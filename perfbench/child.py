"""Run one ``quanto-bayes`` command in this (fresh) interpreter and time it.

    python3 perfbench/child.py --src SRC --result FILE [--trace] -- <cli args>

Writes one JSON object to FILE: the import time of ``quanto_bayes.cli``,
the command's exit code and wall time, the calibration kernel's time before
the import and after the command, this process's peak RSS and the library
versions; with ``--trace`` also every span recorded while the command ran. The CLI's own exit code is reported, not returned.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    from calibrate import kernel_s

    calibration_s = [kernel_s()]
    sys.path.insert(0, opts.src)
    start = time.perf_counter()
    cli = importlib.import_module("quanto_bayes.cli")
    import_s = time.perf_counter() - start

    tracer = None
    if opts.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    main_start = time.perf_counter()
    returncode = cli.main(cli_args)
    main_end = time.perf_counter()
    calibration_s.append(kernel_s())

    import numpy
    import scipy

    result = {
        "returncode": returncode,
        "import_s": import_s,
        "wall_s": main_end - main_start,
        "calibration_s": calibration_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result.update(main_start=main_start, main_end=main_end, spans=tracer.spans)
    with open(opts.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
