"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the part of it that its child
spans cover. The CLI's self time is the traced command's wall time minus
the part that top-level spans cover: mostly CSV formatting and writing.
Layers are the package modules, named by the first part of a span name.
``BENCHMARK.json`` lists every metric with its unit.
"""

from __future__ import annotations

import os
import re

import numpy as np

SPAN_LAYERS = ("data_io", "model", "inference", "diagnostics", "pricing")

_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans, main_start, main_end):
    """Self time per span id, plus the CLI's own share of the command."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    own = {span[0]: (span[4] - span[3]) - _covered(children.get(span[0], ()), span[3], span[4])
           for span in spans}
    cli_self = (main_end - main_start) - _covered(children.get(-1, ()), main_start, main_end)
    return own, cli_self


def tail_percentile(values):
    """(p50, highest of p90/p95/p99/p99.9 with >= 10 samples beyond it, its pct)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.0, 0.0, 0.0
    pct = 50.0
    for candidate in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - candidate / 100.0) >= 10.0:
            pct = candidate
    return float(np.percentile(values, 50)), float(np.percentile(values, pct)), pct


def scipy_stats_import_s(importtime_text):
    """Cumulative import time of scipy.stats from ``-X importtime`` output, or 0."""
    for line in importtime_text.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(2) == "scipy.stats":
            return int(match.group(1)) / 1e6
    return 0.0


def output_size(out_dir):
    files = 0
    size = 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def layer_metrics(trace):
    """Per-layer metrics of one traced command (``trace`` as the child wrote it)."""
    spans = trace["spans"]
    own, cli_self = self_times(spans, trace["main_start"], trace["main_end"])
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def total(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = sum(own[s[0]] for s in spans if s[2].split(".", 1)[0] == layer)
    m["cli.self_s"] = cli_self

    predictive = by_name.get("pricing.predictive_samples", ())
    path_steps = sum(s[5]["paths"] * s[5]["horizon"] for s in predictive if s[5] and "paths" in s[5])
    m["pricing.predictive_s"] = total("pricing.predictive_samples")
    m["pricing.predictive_calls"] = count("pricing.predictive_samples")
    m["pricing.normals_computed"] = sum(s[5]["paths"] * s[5]["horizon"] * s[5]["legs"]
                                        for s in predictive if s[5] and "paths" in s[5])
    m["pricing.path_steps_per_s"] = ratio(path_steps, m["pricing.predictive_s"])
    m["pricing.thin_count_s"] = total("pricing.thinned_draw_count")
    m["pricing.summarize_payoffs_s"] = total("pricing.summarize_payoffs")
    m["pricing.distinct_draw_ratio"] = ratio(attr_sum("pricing.thinned_draw_count", "distinct"),
                                             attr_sum("pricing.thinned_draw_count", "paths"))
    iv_ids = {s[0] for s in by_name.get("pricing.implied_vol", ())}
    m["pricing.iv_calls"] = len(iv_ids)
    m["pricing.iv_failures"] = sum(1 for s in by_name.get("pricing.implied_vol", ())
                                   if s[5] and "error" in s[5])
    m["pricing.iv_bs_evals"] = sum(1 for s in by_name.get("pricing.bs_call", ()) if s[1] in iv_ids)

    # A quote runs from its construct_quanto call to the end of its
    # moneyness_bucket call; the CLI makes each exactly once per quote.
    starts = [s[3] for s in by_name.get("data_io.construct_quanto", ())]
    ends = [s[4] for s in by_name.get("data_io.moneyness_bucket", ())]
    latencies = [1e3 * (end - start) for start, end in zip(starts, ends)]
    p50, tail, pct = tail_percentile(latencies)
    m["pricing.quotes_timed"] = len(latencies)
    m["pricing.quote_latency_p50_ms"] = p50
    m["pricing.quote_latency_tail_ms"] = tail
    m["pricing.quote_latency_tail_pct"] = pct

    chains = by_name.get("inference.mwg_sample", ())
    refreshes = by_name.get("inference.refresh", ())
    m["inference.mwg_calls"] = len(chains)
    m["inference.mwg_sweeps"] = attr_sum("inference.mwg_sample", "sweeps")
    m["inference.mwg_s"] = total("inference.mwg_sample")
    m["inference.mwg_us_per_sweep"] = 1e6 * ratio(m["inference.mwg_s"], m["inference.mwg_sweeps"])
    sampled = [s[5] for s in (*chains, *refreshes) if s[5] and "sweeps" in s[5]]
    sweeps = sum(a["sweeps"] for a in sampled)
    for i, name in enumerate(("sigma_x", "sigma_h", "rho")):
        m[f"inference.accept_rate.{name}"] = ratio(sum(a["accepted"][i] for a in sampled), sweeps)
    m["inference.chain_warnings"] = sum(len(a["warnings"]) for a in sampled)
    m["inference.mnc_draws_per_s"] = ratio(attr_sum("inference.conjugate_sample", "draws"),
                                           total("inference.conjugate_sample"))
    m["inference.mle_calls"] = count("inference.mle_estimate")
    m["inference.refresh_calls"] = len(refreshes)
    m["inference.refresh_sweeps"] = attr_sum("inference.refresh", "sweeps")
    m["inference.refresh_s"] = total("inference.refresh")

    m["model.panel_s"] = sum(total(n) for n in ("model.log_returns", "model.ReturnPanel",
                                                "model.ReturnPanel.tail"))
    m["model.payoff_s"] = total("model.payoff")
    m["model.panel_extend_s"] = total("model.ReturnPanel.extend")
    m["model.panel_extend_calls"] = count("model.ReturnPanel.extend")
    m["model.extend_obs_copied"] = attr_sum("model.ReturnPanel.extend", "copied")

    m["data_io.load_s"] = total("data_io.load_price_series") + total("data_io.load_option_chain")
    m["data_io.rows_parsed"] = (attr_sum("data_io.load_price_series", "rows")
                                + attr_sum("data_io.load_option_chain", "rows"))
    m["data_io.align_s"] = total("data_io.align_series")
    m["data_io.quotes_retained"] = attr_sum("data_io.filter_options", "retained")
    m["data_io.quotes_rejected"] = attr_sum("data_io.filter_options", "rejected")

    m["diagnostics.summarize_s"] = total("diagnostics.summarize")
    m["diagnostics.draws_summarized"] = attr_sum("diagnostics.summarize", "draws")

    m["trace.wall_s"] = trace["main_end"] - trace["main_start"]
    m["trace.self_sum_s"] = cli_self + sum(own.values())
    m["trace.spans"] = len(spans)
    m["import.total_s"] = trace["import_s"]
    m["import.scipy_stats_s"] = scipy_stats_import_s(trace.get("importtime", ""))
    return m
