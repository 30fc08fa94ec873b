"""In-memory span recorder for the traced benchmark run.

``install`` wraps the public functions that ``quanto_bayes.cli`` and
``quanto_bayes.pricing`` import from the other package modules, the
``ReturnPanel`` constructor as the CLI calls it, ``ReturnPanel.tail`` and
``ReturnPanel.extend``, and ``pricing.bs_call`` (so the bisection steps inside
``implied_vol`` are counted). A span is ``[id, parent, name, start, end,
attrs]``: ``parent`` is the id of the span open when it started (-1 at top
level), times are ``time.perf_counter`` seconds and ``attrs`` holds the counts
read from the call's arguments and result. Nothing is written until the
command has returned.
"""

from __future__ import annotations

import functools
import inspect
import time


def _request_attrs(args, kwargs, result):
    request = args[0]
    static_f3 = request.kind == "F3" and request.mode == "static"
    return {"paths": request.n_paths, "horizon": request.horizon_s,
            "legs": 1 if static_f3 else 2}


def _chain_attrs(args, kwargs, result):
    return {"sweeps": len(result),
            "accepted": [int(c) for c in result.acceptance_counts],
            "warnings": list(result.warnings)}


# Counts read from a call once it has returned, keyed by span name.
_ATTRS = {
    "pricing.predictive_samples": _request_attrs,
    "pricing.thinned_draw_count": lambda a, k, r: {"paths": int(a[1]), "distinct": int(r)},
    "inference.mwg_sample": _chain_attrs,
    "inference.refresh": _chain_attrs,
    "inference.conjugate_sample": lambda a, k, r: {"draws": len(r)},
    "model.ReturnPanel.extend": lambda a, k, r: {"copied": r.n_obs},
    "data_io.load_price_series": lambda a, k, r: {"rows": len(r)},
    "data_io.load_option_chain": lambda a, k, r: {"rows": len(r)},
    "data_io.filter_options": lambda a, k, r: {"retained": len(r[0]), "rejected": len(r[1])},
    "diagnostics.summarize": lambda a, k, r: {"draws": len(a[0]) - a[0].burn_in},
}


class Tracer:
    """Collects spans for one process; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans = self.spans
        open_ids = self._open
        attrs = _ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), open_ids[-1] if open_ids else -1, name, clock(), 0.0, None]
            spans.append(record)
            open_ids.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = clock()
                open_ids.pop()
                record[5] = {"error": type(exc).__name__}
                raise
            record[4] = clock()
            open_ids.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn, updated=())


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


def install(tracer: Tracer):
    """Replace the cross-module names in ``cli`` and ``pricing`` by traced ones."""
    from quanto_bayes import cli, model, pricing

    for namespace in (cli, pricing):
        own = namespace.__name__
        for attr, value in list(vars(namespace).items()):
            if not inspect.isfunction(value):
                continue
            home = value.__module__
            if not home.startswith("quanto_bayes.") or home == own:
                continue
            name = f"{_layer(home)}.{value.__name__}"
            if namespace is pricing and name == "inference.mwg_sample":
                name = "inference.refresh"
            setattr(namespace, attr, tracer.wrap(name, value))
    pricing.bs_call = tracer.wrap("pricing.bs_call", pricing.bs_call)
    cli.ReturnPanel = tracer.wrap("model.ReturnPanel", model.ReturnPanel)
    for method in ("tail", "extend"):
        setattr(model.ReturnPanel, method,
                tracer.wrap(f"model.ReturnPanel.{method}", getattr(model.ReturnPanel, method)))
