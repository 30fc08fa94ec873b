"""quanto-bayes benchmark: time the real CLI on the shipped fixtures and
check its outputs.

    python3 perfbench/run.py --workload grid-static --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the directory holding ``src/`` and
``fixtures/``). Each repeat is one CLI command in a fresh single-threaded
interpreter; repeats continue until ``--seconds`` have passed (at least three
untraced, plus two traced with ``--trace 1``). The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Lines before it give every metric with its unit, the checks
that failed and the machine. Scratch files and a full result record go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, to_reference
from checks import (CHECKS, Gate, compare_digests, price_rse_quantiles, smallest_ess,
                    tree_digests)
from layers import layer_metrics, output_size
from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
MIN_UNTRACED = 3
MIN_TRACED = 2
MAX_REPEATS = 40
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY_UNITS = {"ess_per_s": "1/s", "price_rse_p50": "ratio", "price_rse_p90": "ratio"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


def source_key(root, texts):
    """Digest of the program's sources, the fixtures and the run's inputs."""
    digest = hashlib.sha256()
    for top in ("src", "fixtures"):
        for dirpath, dirnames, names in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()[:16]


class Runner:
    """Starts child interpreters for one benchmark run and keeps their files."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.count = 0

    def run(self, cli_argv, trace=False):
        """Run one CLI command; returns the child's result dict, or None."""
        self.count += 1
        tag = os.path.join(self.work, f"child-{self.count}")
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "child.py"), "--src", os.path.join(self.root, "src"),
                "--result", tag + ".json"]
        if trace:
            cmd.append("--trace")
        cmd += ["--", *cli_argv]
        timeout = max(5.0, self.deadline - time.monotonic())
        try:
            with open(tag + ".out", "wb") as out, open(tag + ".err", "wb") as err:
                subprocess.run(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root,
                               timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return None
        if not os.path.exists(tag + ".json"):
            return None
        with open(tag + ".json", encoding="utf-8") as handle:
            result = json.load(handle)
        if trace:
            with open(tag + ".err", encoding="utf-8", errors="replace") as handle:
                result["importtime"] = handle.read()
        return result

    def stderr_tail(self):
        path = os.path.join(self.work, f"child-{self.count}.err")
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = [ln for ln in handle.read().splitlines() if not ln.startswith("import time:")]
        return " | ".join(lines[-3:])


def _fill(argv, **paths):
    return [part.format(**paths) for part in argv]


def _repeat(runner, cli_argv, out, first_out, args, gate):
    """Run the command until ``args.seconds`` have passed; returns the
    untraced and traced results and the first repeat's output digests."""
    measure_end = time.monotonic() + args.seconds
    untraced, traced = [], []
    reference = None
    last_s = 0.0
    while len(untraced) + len(traced) < MAX_REPEATS:
        now = time.monotonic()
        enough = len(untraced) >= MIN_UNTRACED and (not args.trace or len(traced) >= MIN_TRACED)
        if enough and (now >= measure_end or now + 2 * last_s >= runner.deadline):
            break
        tracing = bool(args.trace) and len(traced) < len(untraced)
        shutil.rmtree(out, ignore_errors=True)
        result = runner.run(cli_argv, trace=tracing)
        last_s = time.monotonic() - now
        label = f"repeat {len(untraced) + len(traced) + 1}"
        if not gate.check(result is not None, f"no result from {label}: {runner.stderr_tail()}"):
            break
        gate.check(result["returncode"] == 0,
                   f"exit code {result['returncode']} ({label}): {runner.stderr_tail()}")
        (traced if tracing else untraced).append(result)
        digests = tree_digests(out) if os.path.isdir(out) else {}
        if reference is None:
            reference = digests
            if os.path.isdir(out):
                os.rename(out, first_out)
        else:
            compare_digests(gate, reference, digests, label)
    return untraced, traced, reference


def _compare_with_earlier_runs(root, workload, args, cfg, cli_argv, reference, gate):
    """Outputs must match earlier runs of this workload and seed on the same
    sources, traced or not, of any length."""
    key = source_key(root, [config_text(cfg), " ".join(cli_argv)])
    store = os.path.join(root, WORK_DIR, "digests", f"{workload.name}-{args.seed}-{key}.json")
    if os.path.exists(store):
        with open(store, encoding="utf-8") as handle:
            compare_digests(gate, json.load(handle), reference, "earlier run")
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=0, sort_keys=True)


def _trace_metrics(traced, wall_s, gate):
    """Per-layer metrics, in measured seconds, of the traced repeat whose wall
    time in reference seconds is the median; checks every repeat's accounting."""
    runs = []
    for r in traced:
        metrics = layer_metrics(r)
        wall = metrics["trace.wall_s"]
        gate.check(abs(metrics["trace.self_sum_s"] - wall) <= 1e-3 * wall,
                   f"self times sum to {metrics['trace.self_sum_s']:.6f} s, "
                   f"traced wall {wall:.6f} s")
        runs.append((r["wall_ref_s"], r, metrics))
    if not runs:
        return {}
    runs.sort(key=lambda entry: entry[0])
    wall_ref_s, run, metrics = runs[(len(runs) - 1) // 2]
    metrics["trace.kernel_over_reference"] = sum(run["calibration_s"]) / (2 * REFERENCE_S)
    metrics["trace.overhead_s"] = wall_ref_s - wall_s
    return metrics


def _stop(signum, frame):
    # SystemExit unwinds subprocess.run, which kills and reaps the child.
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _stop)
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "quanto_bayes", "cli.py"))
            and os.path.isdir(os.path.join(root, "fixtures"))):
        print(f"perfbench: {root} holds no src/quanto_bayes/cli.py and fixtures/; "
              "run from the root of a quanto-bayes checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    workload = WORKLOADS[args.workload]
    # Traced and untraced runs share the path, so their manifests match.
    work = os.path.join(root, WORK_DIR, f"{workload.name}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = workload.config(args.seed, os.path.join(root, "fixtures"))
    cfg_path = os.path.join(work, "bench.cfg")
    with open(cfg_path, "w", encoding="utf-8") as handle:
        handle.write(config_text(cfg))
    out = os.path.join(work, "out")
    first_out = os.path.join(work, "first_out")
    runner = Runner(root, work, started + RUN_LIMIT_S)
    gate = Gate()

    paths = {"config": cfg_path, "out": out}
    if workload.prepare:
        prep = os.path.join(work, "prep")
        result = runner.run(_fill(workload.prepare["argv"], config=cfg_path, prep=prep))
        ok = result is not None and result["returncode"] == 0
        if not gate.check(ok, f"prepare step failed: {runner.stderr_tail()}"):
            print(f"perfbench: {gate.failures[-1]}", file=sys.stderr)
            return 1
        paths["draws"] = os.path.join(prep, workload.prepare["draws"])
    cli_argv = _fill(workload.argv, **paths)

    untraced, traced, reference = _repeat(runner, cli_argv, out, first_out, args, gate)
    if not untraced:
        print("perfbench: no repeat produced a result", file=sys.stderr)
        return 1
    _compare_with_earlier_runs(root, workload, args, cfg, cli_argv, reference, gate)

    extra = {}
    have_out = os.path.isdir(first_out)
    if have_out:
        try:
            extra.update(CHECKS[workload.name](gate, first_out, cfg) or {})
        except (OSError, KeyError, ValueError) as exc:
            gate.check(False, f"output check crashed: {type(exc).__name__}: {exc}")
    else:
        gate.check(False, "the first repeat wrote no output directory")

    # Times are in reference seconds (calibrate.py): the import is scaled by
    # the kernel run just before it, the command by the mean of both runs.
    for r in untraced + traced:
        before, after = r["calibration_s"]
        r["setup_ref_s"] = to_reference(r["import_s"], before)
        r["wall_ref_s"] = to_reference(r["wall_s"], 0.5 * (before + after))
    wall_s = statistics.median(r["wall_ref_s"] for r in untraced)
    e2e = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in untraced),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in untraced),
    }
    raw = {
        "setup_s": statistics.median(r["import_s"] for r in untraced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "kernel_over_reference": statistics.median(
            sum(r["calibration_s"]) / (2 * REFERENCE_S) for r in untraced),
    }
    ess = smallest_ess(first_out) if have_out else None
    rse = price_rse_quantiles(first_out) if have_out else None
    quality = {
        "ess_per_s": ess / wall_s if ess else None,
        "price_rse_p50": rse[0] if rse else None,
        "price_rse_p90": rse[1] if rse else None,
    }

    per_layer = {}
    if args.trace:
        per_layer = _trace_metrics(traced, wall_s, gate)
        files, size = output_size(first_out) if have_out else (0, 0)
        per_layer.update({"cli.files_written": files, "cli.bytes_written": size,
                          "trace.untraced_wall_s": wall_s})
        for name, value in quality.items():
            per_layer[f"quality.{name}"] = value or 0.0

    failed_share = gate.failed / gate.attempted
    if args.trace:
        per_layer["quality.failed_share"] = failed_share
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    facts = machine_facts()
    facts.update(untraced[0]["versions"], seed=args.seed, workload=workload.name,
                 why=workload.why, threads_pinned=dict.fromkeys(THREAD_VARS, "1"))
    record = {
        "facts": facts, "config": cfg, "argv": cli_argv, "e2e": e2e, "raw": raw,
        "quality": quality, "failed_share": failed_share, "per_layer": per_layer,
        "extra": extra,
        "samples": {"untraced": [{k: r[k] for k in ("import_s", "wall_s", "calibration_s",
                                                       "peak_rss_kb")}
                                 for r in untraced],
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "attempted": gate.attempted, "failures": gate.failures,
    }
    results_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir,
                               f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    _report(record, declared, metrics, record_path)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def _report(record, declared, metrics, record_path):
    """Human-readable lines; the JSON result follows them."""
    facts = record["facts"]
    samples = record["samples"]["untraced"]
    print(f"# workload {facts['workload']} seed {facts['seed']}: {facts['why']}")
    print(f"# machine: nproc {facts['nproc']}, {facts['cpu_model']}, python "
          f"{facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"BLAS/OpenMP threads pinned to 1")
    raw = record["raw"]
    print(f"# repeats: {len(samples)} untraced, {len(record['samples']['traced_wall_s'])} traced; "
          "e2e values are medians over the untraced repeats; setup_s and wall_s are in "
          f"reference seconds (the calibration kernel ran {raw['kernel_over_reference']:.3f}x "
          "the reference time)")
    for m in declared["end_to_end"]:
        name = m["name"]
        measured = f" (measured {raw[name]:.6g} s)" if name in raw else ""
        print(f"# e2e {name} = {record['e2e'][name]:.6g} {m['unit']}{measured}")
    for name, value in record["quality"].items():
        shown = "n/a (nothing of this kind in the workload)" if value is None \
            else f"{value:.6g} {QUALITY_UNITS[name]}"
        print(f"# e2e {name} = {shown}")
    print(f"# e2e failed_share = {record['failed_share']:.6g} "
          f"({len(record['failures'])} of {record['attempted']} checks failed)")
    for what in record["failures"][:10]:
        print(f"# FAILED {what}")
    if record["per_layer"]:
        for name, entry in metrics.items():
            print(f"# layer {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"# full record: {os.path.relpath(record_path)}")


if __name__ == "__main__":
    sys.exit(main())
