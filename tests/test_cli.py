import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quanto_bayes.cli import (
    ConfigError,
    cmd_diagnose,
    cmd_estimate,
    cmd_experiment,
    cmd_price,
    load_config,
    main,
)

from conftest import fixture_panel, make_workspace
from test_input_properties import PROPERTY


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _assert_no_bare_nan(path):
    with open(path, encoding="utf-8") as f:
        for line in f:
            for cell in line.lower().split(","):
                assert cell.strip() not in ("nan", "inf", "-inf"), path


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_load_config_parses_and_resolves_paths(tmp_path):
    path = make_workspace(tmp_path)
    cfg = load_config(path)
    assert cfg.draws == 1500 and cfg.burn_in == 300
    assert cfg.families == ("tnn", "mle")
    assert os.path.isabs(cfg.asset_series)
    assert cfg.windows == (250,)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("draws = 100\nmystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(str(path))


def test_load_config_rejects_inconsistent_chain_settings(tmp_path):
    path = make_workspace(tmp_path, draws=100, burn_in=100)
    with pytest.raises(ConfigError, match="burn_in"):
        load_config(path)


def test_default_config_values_have_their_defaults_types():
    import dataclasses

    from quanto_bayes.cli import ExperimentConfig

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "fixtures", "default.cfg"))
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(cfg, field.name)
        assert type(value) is type(field.default), field.name
        if isinstance(value, tuple):
            element = int if field.name == "windows" else str
            assert value and all(type(v) is element for v in value), field.name


def test_load_config_overrides_win(tmp_path):
    path = make_workspace(tmp_path)
    cfg = load_config(path, seed=99, families=("ign",))
    assert cfg.seed == 99
    assert cfg.families == ("ign",)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_cmd_estimate_outputs(tmp_path):
    cfg = load_config(make_workspace(tmp_path))
    draws_files = cmd_estimate(cfg)
    rows = _read_csv(os.path.join(cfg.out_dir, "estimate_summary.csv"))
    assert {r["family"] for r in rows} == {"tnn", "mle"}
    mle_rows = [r for r in rows if r["family"] == "mle"]
    assert len(mle_rows) == 3
    for r in mle_rows:
        assert r["std_dev"] == "NA" and r["nse"] == "NA" and r["cd"] == "NA"
        assert r["hpdi95_lo"] == "NA"
        float(r["mean"])
    tnn_rows = [r for r in rows if r["family"] == "tnn"]
    for r in tnn_rows:
        assert 0.0 <= float(r["acceptance_rate"]) <= 1.0
        assert float(r["hpdi95_lo"]) <= float(r["mean"]) <= float(r["hpdi95_hi"])
    data = np.loadtxt(draws_files["tnn"], delimiter=",", skiprows=1)
    assert data.shape == (1200, 3)
    _assert_no_bare_nan(os.path.join(cfg.out_dir, "estimate_summary.csv"))


def _distinct_draws(rng, n):
    return np.column_stack([np.exp(rng.normal(-5.0, 1.0, n)),
                            np.exp(rng.normal(-5.5, 1.0, n)),
                            np.tanh(rng.normal(0.0, 1.0, n))])


def _held_draws(rng, n):
    """Draws whose columns repeat their values in runs of 1 to 40 rows."""
    distinct = _distinct_draws(rng, n)
    return np.column_stack([np.repeat(distinct[:, j], rng.integers(1, 41, n))[:n]
                            for j in range(3)])


def _draws_across_blocks(rng):
    draws = _held_draws(rng, 2600)
    # one run of each column over the boundary between the first two blocks
    draws[1000:1100] = draws[1000]
    return draws, 37


def _draws_with_constant_column(rng):
    draws = _held_draws(rng, 2600)
    draws[:, 1] = 0.0042
    return draws, 0


def _distinct_block_then_repeats(rng):
    draws = _distinct_draws(rng, 2600)
    draws[1024:] = np.repeat(draws[1024::4], 4, axis=0)[:2600 - 1024]
    return draws, 0


def _draws_with_signed_zeros(rng):
    draws = _distinct_draws(rng, 60)
    draws[10:15, 2] = [0.0, -0.0, -0.0, 0.0, -0.0]
    return draws, 0


def _fixture_tnn_draws(rng):
    from quanto_bayes.inference import default_proposals, mle_estimate, mwg_sample

    panel = fixture_panel(140)
    chain = mwg_sample(panel, default_proposals("tnn", panel), 3000, 500,
                       init=mle_estimate(panel), seed=140)
    return chain.draws, chain.burn_in


@pytest.mark.parametrize("make_draws", [
    lambda rng: (_distinct_draws(rng, 2600), 37),  # several blocks and a partial one
    _draws_across_blocks,
    _draws_with_constant_column,
    _distinct_block_then_repeats,
    _draws_with_signed_zeros,
    _fixture_tnn_draws,
], ids=["distinct", "runs-across-blocks", "constant-column", "distinct-then-repeats",
        "signed-zeros", "tnn-w140"])
def test_draws_file_format_and_round_trip(tmp_path, make_draws):
    from quanto_bayes.cli import _load_draws, _write_draws
    from quanto_bayes.inference import Chain

    draws, burn_in = make_draws(np.random.default_rng(12))
    chain = Chain(draws=draws, burn_in=burn_in, acceptance_counts=np.zeros(3), seed=0)
    path = os.path.join(str(tmp_path), "draws.csv")
    _write_draws(path, chain)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    assert lines[0] == "sigma_x,sigma_h,rho" and lines[-1] == ""
    assert lines[1:-1] == [",".join("%.17g" % float(v) for v in row)
                           for row in chain.post_burn_in()]
    assert np.array_equal(_load_draws(path).draws, chain.post_burn_in())


def _assert_draws_text_exact(values):
    """``_draws_text`` of ``values``, three to a row, is ``%.17g`` of every
    cell; returns its fallback count."""
    from quanto_bayes.cli import _draws_text

    rows = np.asarray(values, dtype=float).reshape(-1, 3)
    text, fallbacks = _draws_text(rows)
    expected = ("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist())
    if text != expected.encode("ascii"):
        wrong = [(got, want) for got, want in zip(text.decode("ascii").split("\n"),
                                                  expected.split("\n")) if got != want]
        pytest.fail(f"{len(wrong)} rows differ from %.17g, first {wrong[:3]}")
    return fallbacks


def _with_both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_draws_text_matches_percent_format_on_log_uniform_values():
    rng = np.random.default_rng(1712)
    n = 300_000
    values = 10.0 ** rng.uniform(-6.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
    # four of the seven decades take the bulk path
    assert 0.35 * n < _assert_draws_text_exact(values) < 0.5 * n


def test_draws_text_rounds_exact_decimal_ties_to_even():
    from quanto_bayes.cli import _draws_text

    assert _draws_text(np.array([[26215 / 2 ** 18, 0.5, 0.5]]))[0] == \
        b"0.10000228881835938,0.5,0.5\n"
    rng = np.random.default_rng(1713)
    ties = []
    for k in range(17, 21):
        # q * 2**-(k+1) with q odd has 18 significant digits, the last a 5,
        # when it lies in [10**(16-k), 10**(17-k))
        lo, hi = 10.0 ** (16 - k) * 2 ** (k + 1), 10.0 ** (17 - k) * 2 ** (k + 1)
        q = rng.integers(int(lo) // 2 + 1, int(hi) // 2, 3000) * 2 + 1
        ties.append(q * 2.0 ** -(k + 1))
    assert _assert_draws_text_exact(_with_both_signs(np.concatenate(ties))) == 0


def test_draws_text_near_powers_of_ten():
    neighbours = []
    for j in range(-6, 2):
        for direction in (np.inf, -np.inf):
            value = 10.0 ** j
            for _ in range(7):  # the power and its six neighbours on this side
                neighbours.append(value)
                value = np.nextafter(value, direction)
    values = _with_both_signs(neighbours)
    _assert_draws_text_exact(np.concatenate([values, np.full((-values.size) % 3, 0.5)]))


def test_draws_text_fallback_values():
    values = [0.0, -0.0, 1.0 - 2.0 ** -53, 5e-324, -2.2250738585072014e-308,
              1.0, -7.25, 12345678901234567.0, 1.7976931348623157e308,
              9.999999999999999e-05, -1.2345678901234567e-100, 1e-300]
    assert _assert_draws_text_exact(values) == len(values)


@PROPERTY
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1.0, 1.0)), min_size=3, max_size=30))
def test_draws_text_matches_percent_format_on_finite_floats(values):
    _assert_draws_text_exact(values[:len(values) // 3 * 3])


def test_draws_text_formats_fixture_chains_in_bulk():
    """Every cell of a tnn chain and an mnc chain on the fixtures with
    1e-4 <= |v| < 1 takes the bulk path, so a lost fast path fails here rather
    than only slowing down. The conjugate chain draws a few |rho| < 1e-4,
    which the fallback formats."""
    from quanto_bayes.cli import _draws_text
    from quanto_bayes.inference import (NiwHyperparams, conjugate_sample, default_proposals,
                                        mle_estimate, mwg_sample)

    panel = fixture_panel(140)
    tnn = mwg_sample(panel, default_proposals("tnn", panel), 3000, 500,
                     init=mle_estimate(panel), seed=140)
    mnc = conjugate_sample(panel, NiwHyperparams(), 3000, 500, seed=140)
    assert _draws_text(tnn.post_burn_in())[1] == 0
    magnitudes = np.abs(mnc.post_burn_in())
    outside = np.count_nonzero((magnitudes < 1e-4) | (magnitudes >= 1.0))
    assert outside <= 5 and _draws_text(mnc.post_burn_in())[1] == outside


@pytest.mark.parametrize("command", ["estimate", "experiment"])
def test_chain_warnings_are_printed_to_stderr(tmp_path, monkeypatch, capsys, command):
    import dataclasses

    from quanto_bayes import cli

    real = cli._sample_family

    def flagged(family, panel, cfg, seed):
        return dataclasses.replace(real(family, panel, cfg, seed),
                                   warnings=("no accepted moves for rho after burn-in",))

    monkeypatch.setattr(cli, "_sample_family", flagged)
    path = make_workspace(tmp_path)
    assert main([command, "--config", path]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: tnn [fx w250]: no accepted moves for rho after burn-in"
    ]


def test_cmd_estimate_recovers_synthetic_truth(tmp_path):
    cfg = load_config(make_workspace(tmp_path, n_days=1501, draws=4000, burn_in=1000,
                                     windows="1500", families="ign"))
    cmd_estimate(cfg)
    rows = _read_csv(os.path.join(cfg.out_dir, "estimate_summary.csv"))
    by_param = {r["parameter"]: r for r in rows}
    for name, truth in (("sigma_x", 0.006), ("sigma_h", 0.004), ("rho", -0.03)):
        mean = float(by_param[name]["mean"])
        sd = float(by_param[name]["std_dev"])
        assert abs(mean - truth) < 3.0 * sd


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

def test_cmd_price_outputs(tmp_path):
    from quanto_bayes.data_io import align_series, load_price_series
    from quanto_bayes.inference import mle_estimate
    from quanto_bayes.model import ReturnPanel, log_returns
    from quanto_bayes.pricing import bs_call

    cfg = load_config(make_workspace(tmp_path))
    draws_files = cmd_estimate(cfg)
    cmd_price(cfg, draws_files["tnn"])
    rows = _read_csv(os.path.join(cfg.out_dir, "pricing.csv"))
    assert len(rows) == 5  # 6 quotes, 1 dropped by the filter

    # BS-H is definitionally the MLE historical volatility of the window panel
    market = cfg.market()
    asset, fx = align_series(load_price_series(cfg.asset_series),
                             load_price_series(cfg.fx_series[0]))
    panel = ReturnPanel(log_returns(asset), log_returns(fx)).tail(cfg.windows[0])
    hist_vol = mle_estimate(panel).sigma_x

    for r in rows:
        assert r["bucket"] in ("ITM", "ATM", "OTM")
        assert float(r["model_price"]) >= 0.0
        assert float(r["hpdi99_lo"]) <= float(r["hpdi99_hi"])
        # BS-I re-prices the quote through the implied vol round trip
        assert float(r["rpe_bs_i"]) < 1e-8
        maturity = int(r["maturity_days"])
        expected_bs_h = (math.exp(-market.r_d * maturity) * cfg.h_fix
                         * bs_call(float(r["spot"]), float(r["strike"]),
                                   hist_vol, market.r_f, maturity))
        assert float(r["bs_h_price"]) == pytest.approx(expected_bs_h, rel=1e-9)
    report = _read_csv(os.path.join(cfg.out_dir, "filter_report.csv"))
    assert len(report) == 1 and report[0]["reason"] == "below_lower_bound"
    density = _read_csv(os.path.join(cfg.out_dir, "price_density.csv"))
    assert len(density) == 5 * 50
    counts = sum(int(r["count"]) for r in density)
    assert counts == 5 * cfg.n_paths
    _assert_no_bare_nan(os.path.join(cfg.out_dir, "pricing.csv"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(row=st.tuples(FINITE, st.integers(1, 10 ** 6), FINITE, FINITE, st.integers(0, 10 ** 9)))
def test_density_row_template_matches_fmt(row):
    from quanto_bayes.cli import _DENSITY_ROW, _fmt

    assert _DENSITY_ROW % row == ",".join(map(_fmt, row)) + "\n"


@pytest.mark.parametrize("samples", [
    np.full(7, 0.0),  # constant samples: edges -0.5 to 0.5
    np.full(7, 123.456789012345),
    np.array([0.0, 0.123456789012, 9.87654321098e-5]),  # all 12 significant digits
    np.array([1e21, 3.3e22]),
])
@pytest.mark.parametrize("strike", [0.0, 2655.0, 2711.74123456789, 1e16, 1.5e300])
def test_density_row_template_matches_fmt_on_histogram_edges(samples, strike):
    from quanto_bayes.cli import _DENSITY_ROW, _fmt

    counts, edges = np.histogram(samples, bins=50)
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        row = (strike, 51, lo, hi, int(count))
        text = _DENSITY_ROW % (strike, 51, float(lo), float(hi), int(count))
        assert text == ",".join(map(_fmt, row)) + "\n"


def test_price_density_file_is_fmt_of_the_histograms(tmp_path, monkeypatch):
    from quanto_bayes.cli import _fmt

    cfg = load_config(make_workspace(tmp_path))
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,-0.2\n")
    histograms = []
    histogram = np.histogram

    def recording(*args, **kwargs):
        histograms.append(histogram(*args, **kwargs))
        return histograms[-1]

    monkeypatch.setattr(np, "histogram", recording)
    rows = cmd_price(cfg, draws)
    assert len(histograms) == len(rows) == 5
    expected = ["strike,maturity_days,bin_lo,bin_hi,count\n"]
    for row, (counts, edges) in zip(rows, histograms):
        expected += [",".join(map(_fmt, (row.strike, row.maturity_days, lo, hi, int(count))))
                     + "\n" for lo, hi, count in zip(edges[:-1], edges[1:], counts)]
    with open(os.path.join(cfg.out_dir, "price_density.csv"), "rb") as f:
        assert f.read() == "".join(expected).encode("ascii")


def test_cmd_price_missing_draws_file(tmp_path):
    cfg = load_config(make_workspace(tmp_path))
    with pytest.raises(ConfigError, match="draws file"):
        cmd_price(cfg, os.path.join(str(tmp_path), "nope.csv"))


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_cmd_diagnose(tmp_path):
    cfg = load_config(make_workspace(tmp_path))
    draws_files = cmd_estimate(cfg)
    rows = cmd_diagnose(cfg, draws_files["tnn"])
    assert len(rows) == 3
    table = _read_csv(os.path.join(cfg.out_dir, "diagnose_summary.csv"))
    assert [r["parameter"] for r in table] == ["sigma_x", "sigma_h", "rho"]
    for r in table:
        float(r["mean"]), float(r["nse"])


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_cmd_experiment_single_cell_reduces_to_estimate_plus_price(tmp_path):
    cfg = load_config(make_workspace(tmp_path, families="tnn, mle"))
    failures = cmd_experiment(cfg)
    assert failures == []
    cell = os.path.join(cfg.out_dir, "cells", "fx", "w250")
    assert os.path.exists(os.path.join(cell, "estimate_summary.csv"))
    assert os.path.exists(os.path.join(cell, "draws_tnn.csv"))
    assert os.path.exists(os.path.join(cell, "pricing_tnn.csv"))
    table = _read_csv(os.path.join(cfg.out_dir, "pricing_performance.csv"))
    models = {r["model"] for r in table}
    assert models == {"tnn", "bs_i", "bs_h"}
    assert {r["bucket"] for r in table} == {"ITM", "ATM", "OTM"}
    curves = _read_csv(os.path.join(cfg.out_dir, "pricing_curves.csv"))
    assert {r["model"] for r in curves} == models
    for r in table:
        if r["mean_rpe"] != "NA":
            assert float(r["mean_rpe"]) >= 0.0
    _assert_no_bare_nan(os.path.join(cfg.out_dir, "pricing_performance.csv"))


def test_cmd_experiment_three_fx_row_groups(tmp_path):
    root = tmp_path
    cfg_path = make_workspace(root)
    # clone the fx series under three names, as three exchange-rate processes
    import shutil
    for name in ("eur", "gbp", "cad"):
        shutil.copy(os.path.join(str(root), "fx.csv"), os.path.join(str(root), f"{name}.csv"))
    cfg = load_config(cfg_path, families=("tnn",),
                      fx_series=tuple(os.path.join(str(root), f"{n}.csv")
                                      for n in ("eur", "gbp", "cad")))
    cmd_experiment(cfg)
    table = _read_csv(os.path.join(cfg.out_dir, "pricing_performance.csv"))
    assert {r["fx"] for r in table} == {"eur", "gbp", "cad"}
    # three row groups of (model x bucket)
    assert len(table) == 3 * 3 * 3


def test_cmd_experiment_self_pricing_oracle(tmp_path):
    """Market prices manufactured from the closed form at the posterior mean
    should be recovered with tiny relative error at the money."""
    from quanto_bayes.model import SpotState, Theta
    from quanto_bayes.pricing import closed_form_v3

    # first pass: estimate only, to learn the posterior mean
    boot_cfg = load_config(make_workspace(tmp_path, n_days=1001, draws=4000,
                                          burn_in=1000, windows="1000",
                                          families="ign", n_paths=100000))
    draws = cmd_estimate(boot_cfg)
    data = np.loadtxt(draws["ign"], delimiter=",", skiprows=1)
    post_mean = Theta(*data.mean(axis=0))

    market = boot_cfg.market()
    asset_rows = _read_csv(boot_cfg.asset_series)
    spot = float(asset_rows[-1]["price"])
    chain_prices = []
    for m in (0.99, 1.0, 1.01):
        strike = round(spot * m, 1)
        quanto = closed_form_v3(post_mean, SpotState(spot, 1.0), strike, 51, market)
        plain = quanto * math.exp(market.r_d * 51) / market.h_fix
        chain_prices.append((strike, 51, round(plain, 6)))

    out2 = os.path.join(str(tmp_path), "run2")
    os.makedirs(out2)
    cfg2_path = make_workspace(out2, n_days=1001, draws=4000, burn_in=1000,
                               windows="1000", families="ign", n_paths=100000,
                               chain_prices=chain_prices)
    cfg2 = load_config(cfg2_path)
    cmd_experiment(cfg2)
    table = _read_csv(os.path.join(cfg2.out_dir, "pricing_performance.csv"))
    atm = [r for r in table if r["model"] == "ign" and r["bucket"] == "ATM"]
    assert len(atm) == 1
    assert float(atm[0]["mean_rpe"]) < 0.01


def test_cmd_experiment_records_partial_failures(tmp_path):
    cfg = load_config(make_workspace(tmp_path, windows="250, 9999"))
    failures = cmd_experiment(cfg)
    assert any(w == 9999 for _, w, *_ in failures)
    recorded = _read_csv(os.path.join(cfg.out_dir, "failures.csv"))
    assert len(recorded) == len(failures) >= 1
    # the good window still produced its cell
    assert os.path.exists(os.path.join(cfg.out_dir, "cells", "fx", "w250", "pricing_tnn.csv"))


def test_cmd_experiment_loads_each_fx_series_once(tmp_path, monkeypatch):
    from quanto_bayes import cli

    (tmp_path / "bad.csv").write_text("date,price\n2017-01-02,-1\n", encoding="utf-8")
    cfg = load_config(make_workspace(tmp_path, fx_series="fx.csv, bad.csv",
                                     windows="250, 9999, 300", families="mle"))
    loads = {}
    real = cli.load_price_series

    def counting(path):
        loads[os.path.basename(path)] = loads.get(os.path.basename(path), 0) + 1
        return real(path)

    monkeypatch.setattr(cli, "load_price_series", counting)
    cmd_experiment(cfg)
    assert loads["fx.csv"] == 1 and loads["bad.csv"] == 1
    # a load error still fails every window of its series, a too-long window its own
    rows = [tuple(r.values()) for r in _read_csv(os.path.join(cfg.out_dir, "failures.csv"))]
    bad = f"{cfg.fx_series[1]}: row 2: non-positive price -1.0"
    assert rows == [
        ("fx", "9999", "*", "panel", "window 9999 exceeds the 319 available returns"),
        ("bad", "250", "*", "panel", bad),
        ("bad", "9999", "*", "panel", bad),
        ("bad", "300", "*", "panel", bad),
    ]
    for window in (250, 300):
        assert os.path.exists(os.path.join(cfg.out_dir, "cells", "fx", f"w{window}",
                                           "estimate_summary.csv"))


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


def test_experiment_prices_quote_columns_once(tmp_path, monkeypatch):
    from quanto_bayes import cli

    cfg = load_config(make_workspace(tmp_path, windows="200, 250", families="tnn, mnc, mle",
                                     draws=600, burn_in=100, n_paths=500))
    calls = {}
    for name in ("implied_vol", "mle_estimate"):
        monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))
    monkeypatch.setattr(np, "histogram", _counting(calls, "histogram", np.histogram))
    assert cmd_experiment(cfg) == []
    for window in (200, 250):
        for family in ("tnn", "mnc"):
            rows = _read_csv(os.path.join(cfg.out_dir, "cells", "fx", f"w{window}",
                                          f"pricing_{family}.csv"))
            assert len(rows) == 5
    # BS-I once per retained quote, not once per quote and chain
    assert calls["implied_vol"] == 5
    # per window: tnn's initial value, the mle summary row and BS-H
    assert calls["mle_estimate"] == 2 * 3
    # experiment writes no predictive-density file, so builds no histogram
    assert "histogram" not in calls


def test_experiment_quote_table_error_fails_each_chain(tmp_path, monkeypatch):
    from quanto_bayes import cli

    def broken(*args):
        raise ValueError("quote table broke")

    cfg = load_config(make_workspace(tmp_path, windows="200, 250", families="tnn, mnc, mle",
                                     draws=600, burn_in=100))
    monkeypatch.setattr(cli, "construct_quanto", broken)
    cmd_experiment(cfg)
    rows = [tuple(r.values()) for r in _read_csv(os.path.join(cfg.out_dir, "failures.csv"))]
    assert rows == [("fx", str(w), family, "price", "quote table broke")
                    for w in (200, 250) for family in ("tnn", "mnc")]


_FAILURE_HEADER = ("fx", "window", "family", "stage", "error")


def test_write_csv_keeps_an_error_text_with_commas_in_one_cell(tmp_path):
    from quanto_bayes.cli import _write_csv

    messages = ["at least 2 prices are required to form returns, got 1",
                "market price must be non-negative and finite, got nan"]
    path = os.path.join(str(tmp_path), "failures.csv")
    _write_csv(path, _FAILURE_HEADER, [("fx", 140, "tnn", "price", m) for m in messages])
    rows = _read_csv(path)
    assert [r["error"] for r in rows] == messages
    assert all(None not in r for r in rows)
    # numbers, NA and plain text are written as before, unquoted
    _write_csv(path, ("a", "b", "c", "d"), [("tnn", 140, 0.1, None), ("x", -3, math.nan, 2.5)])
    with open(path, encoding="utf-8") as f:
        assert f.read() == "a,b,c,d\ntnn,140,0.1,NA\nx,-3,NA,2.5\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.text(), st.text()), max_size=5))
def test_write_csv_round_trips_any_text(tmp_path_factory, rows):
    from quanto_bayes.cli import _write_csv

    path = os.path.join(str(tmp_path_factory.mktemp("csv")), "t.csv")
    _write_csv(path, ("a", "b", "c"), rows)
    assert [tuple(r.values()) for r in _read_csv(path)] == rows


# ---------------------------------------------------------------------------
# main entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_estimate_exit_zero_and_manifest(tmp_path):
    cfg_path = make_workspace(tmp_path)
    assert main(["estimate", "--config", cfg_path]) == 0
    out = os.path.join(str(tmp_path), "out")
    manifest = open(os.path.join(out, "manifest.txt"), encoding="utf-8").read()
    assert "command = estimate" in manifest
    assert "seed = 7" in manifest
    assert "numpy" in manifest


def test_main_price_then_diagnose(tmp_path):
    cfg_path = make_workspace(tmp_path)
    assert main(["estimate", "--config", cfg_path]) == 0
    draws = os.path.join(str(tmp_path), "out", "draws_tnn.csv")
    assert main(["price", "--config", cfg_path, "--draws", draws]) == 0
    assert main(["diagnose", "--config", cfg_path, "--draws", draws]) == 0


def test_main_validation_failures_exit_one(tmp_path, capsys):
    assert main(["estimate", "--config", os.path.join(str(tmp_path), "none.cfg")]) == 1
    cfg_path = make_workspace(tmp_path)
    bad = os.path.join(str(tmp_path), "missing_draws.csv")
    assert main(["price", "--config", cfg_path, "--draws", bad]) == 1

    for key, value in (("draws", "2e4"), ("seed", "x"), ("windows", "a")):
        root = tmp_path / f"bad_{key}"
        root.mkdir()
        bad_cfg = make_workspace(root, **{key: value})
        capsys.readouterr()
        assert main(["estimate", "--config", bad_cfg]) == 1, key
        err = capsys.readouterr().err
        assert f"{bad_cfg}:" in err and repr(key) in err, err

    # values that parse but that a constructor of the run rejects: each exits 1
    # naming its key even when no family that reads it is configured
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
    for key, value in (("periods_per_year", "0"), ("vol_scale_multiplier", "0"),
                       ("h_fix", "0"), ("rho_step", "0"), ("tt_df", "1"), ("ig_shape", "1"),
                       ("mnc_df", "1"), ("mnc_kappa", "0"), ("mnc_scale", "-1"),
                       ("mnc_scale", "inf"),
                       ("refresh_interval", "0"), ("r_d_annual", "nan"), ("h_fix", "nan"),
                       ("tt_df", "nan"), ("mnc_kappa", "nan"), ("mnc_df", "nan"),
                       ("tt_df", "inf"), ("mnc_df", "inf"), ("mnc_kappa", "inf"),
                       ("mnc_scale", "1e300"), ("h_fix", "inf")):
        root = tmp_path / f"bad_{key}_{value}"
        root.mkdir()
        bad_cfg = make_workspace(root, families="mle", **{key: value})
        for argv in (["estimate"], ["experiment"],
                     ["price", "--draws", draws, "--mode", "sequential", "--paths", "3"]):
            capsys.readouterr()
            # pytest records warnings instead of printing them, so they are
            # caught here as well as looked for on stderr
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*argv, "--config", bad_cfg]) == 1, (key, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad_cfg}: invalid {key} = "), err
            assert "RuntimeWarning" not in err, err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (key, argv)
            if key == "periods_per_year":
                assert err.endswith(": periods_per_year must be positive, got 0\n"), err
            if (key, value) == ("mnc_scale", "inf"):
                assert err.endswith(": scale must be finite, got inf\n"), err

    # values that parse but leave too few returns or draws to estimate from
    for overrides, text in (
        ({"windows": "250, 2"}, "windows must be integers >= 3, got (250, 2)"),
        ({"draws": 105, "burn_in": 100},
         "need burn_in >= 0 and draws - burn_in >= 10, got draws=105 burn_in=100"),
    ):
        root = tmp_path / f"short_{'_'.join(overrides)}"
        root.mkdir()
        bad_cfg = make_workspace(root, **overrides)
        for command in ("estimate", "experiment"):
            capsys.readouterr()
            assert main([command, "--config", bad_cfg]) == 1, (overrides, command)
            assert capsys.readouterr().err == f"error: {bad_cfg}: {text}\n"

    # diagnose summarizes at least 10 draws; price reads any number
    for n_draws, code in ((1, 1), (9, 1), (10, 0)):
        draws = os.path.join(str(tmp_path), f"draws_{n_draws}.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n" + "0.006,0.004,0.1\n" * n_draws)
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg_path, "--draws", draws]) == code, n_draws
        if code:
            assert capsys.readouterr().err == (f"error: {draws}: draws file has {n_draws} draws; "
                                               f"diagnose needs at least 10\n")

    for name, body in (
        ("nan.csv", "0.006,0.004,0.1\nnan,0.004,0.1\n"),
        ("width.csv", "0.006,0.004\n0.006,0.004\n"),
        ("support.csv", "0.006,0.004,0.1\n0.006,-0.004,0.1\n"),
        ("rho.csv", "0.006,0.004,1.0\n"),
    ):
        draws = os.path.join(str(tmp_path), name)
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n" + body)
        capsys.readouterr()
        assert main(["price", "--config", cfg_path, "--draws", draws]) == 1, name
        assert draws in capsys.readouterr().err, name


def test_load_draws_skips_empty_lines_and_counts_them(tmp_path):
    from quanto_bayes.cli import _load_draws

    path = tmp_path / "draws.csv"
    path.write_text("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n\n0.006,0.004,0.1\n\n",
                    encoding="utf-8")
    assert _load_draws(str(path)).draws.shape == (2, 3)
    path.write_text("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n\n0.006,x,0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"draws.csv: malformed draws file: row 4: not three "
                                          r"numbers inside the parameter support: '0.006,x,0.1'$"):
        _load_draws(str(path))


@pytest.mark.parametrize("command", ["price", "diagnose"])
def test_main_draws_file_without_draws_exits_one(tmp_path, capsys, command):
    cfg_path = make_workspace(tmp_path)
    draws = os.path.join(str(tmp_path), "header_only.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n")
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--draws", draws]) == 1
    assert capsys.readouterr().err == f"error: {draws}: draws file has no draws\n"


@pytest.mark.parametrize("command", ["price", "diagnose"])
@pytest.mark.parametrize("header", ["sigma_h,sigma_x,rho", None], ids=["swapped", "missing"])
def test_main_draws_file_without_its_header_exits_one(tmp_path, capsys, command, header):
    # a swapped header would put sigma_h's draws under sigma_x, and without
    # a header the first draw would be taken for one
    cfg_path = make_workspace(tmp_path)
    rows = ["0.004,0.006,0.1"] + ["0.0041,0.0061,0.1"] * 11
    lines = rows if header is None else [header, *rows]
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--draws", draws]) == 1
    assert capsys.readouterr().err == (
        f"error: {draws}: malformed draws file: row 1: expected the header "
        f"'sigma_x,sigma_h,rho', got {lines[0]!r}\n")


def test_load_draws_header_allows_a_bom_spaces_and_crlf(tmp_path):
    from quanto_bayes.cli import _load_draws

    path = tmp_path / "draws.csv"
    body = "0.006,0.004,0.1\n0.0061,0.0041,-0.2\n"
    path.write_text("sigma_x,sigma_h,rho\n" + body, encoding="utf-8")
    plain = _load_draws(str(path)).draws
    for header in ("\ufeffsigma_x,sigma_h,rho\n", " sigma_x , sigma_h,rho \r\n"):
        path.write_text(header + body, encoding="utf-8", newline="")
        assert np.array_equal(_load_draws(str(path)).draws, plain), header
    path.write_bytes(b"sigma_x,sigma_h,\xffrho\n" + body.encode())
    with pytest.raises(ConfigError, match=r"draws.csv: row 1: not UTF-8 text$"):
        _load_draws(str(path))


@pytest.mark.parametrize("fx_series", ["a/eur.csv, b/eur.csv", "fx.csv, a/fx.csv"])
def test_fx_series_sharing_a_file_stem_exit_one(tmp_path, capsys, fx_series):
    # the stem names an fx series' cells and its rows, so the second series
    # would overwrite the first
    cfg_path = make_workspace(tmp_path, fx_series=fx_series, families="mle")
    paths = [os.path.join(str(tmp_path), p.strip()) for p in fx_series.split(",")]
    for path in paths:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(os.path.join(str(tmp_path), "fx.csv"), "rb") as src:
            data = src.read()
        with open(path, "wb") as dst:
            dst.write(data)
    stem = os.path.splitext(os.path.basename(paths[0]))[0]
    for command in ("experiment", "estimate"):
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 1, command
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: fx_series entries {paths[0]} and {paths[1]} share the "
            f"file stem {stem!r}, which names their outputs\n"), command
    assert not os.path.exists(os.path.join(str(tmp_path), "out", "cells"))


@pytest.mark.parametrize("command", ["price", "experiment"])
@pytest.mark.parametrize("bad_quote, text", [
    ((float("nan"), 51, 10.0), "strike must be positive and finite, got nan"),
    ((2500.0, 51, float("inf")), "market price must be non-negative and finite, got inf"),
    ((2500.0, 30.7, 10.0), "non-integer maturity_days '30.7'"),
    ((2500.0, 51, "1" * 200_000), "field larger than field limit (131072)"),
], ids=["nan-strike", "inf-price", "fractional-maturity", "oversized-cell"])
def test_main_malformed_option_chain_exits_one(tmp_path, capsys, command, bad_quote, text):
    cfg_path = make_workspace(tmp_path, chain_prices=[(2500.0, 51, 10.0), bad_quote])
    chain = os.path.join(str(tmp_path), "chain.csv")
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {chain}: row 3: {text}\n"


@pytest.mark.parametrize("command", ["price", "experiment"])
@pytest.mark.parametrize("key", ["r_d_annual", "r_f_annual"])
def test_main_rate_whose_discount_overflows_exits_one(tmp_path, capsys, command, key):
    # exp(-r * 51) overflows, which every quote's band or quanto quote needs
    cfg_path = make_workspace(tmp_path, **{key: "-1e6"})
    chain = os.path.join(str(tmp_path), "chain.csv")
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: invalid {key} = -1000000.0: its discount factor overflows at the longest "
        f"maturity, 51 days, of {chain}\n")


@pytest.mark.parametrize("command, key", [
    ("estimate", "asset_series"), ("estimate", "fx_series"),
    ("price", "asset_series"), ("price", "fx_series"), ("price", "option_chain"),
    ("experiment", "asset_series"), ("experiment", "fx_series"),
    ("experiment", "option_chain"),
])
def test_main_missing_input_file_exits_one(tmp_path, capsys, command, key):
    cfg_path = make_workspace(tmp_path)
    missing = getattr(load_config(cfg_path), key)
    missing = missing[0] if isinstance(missing, tuple) else missing
    os.remove(missing)
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: input files not found: {[missing]}\n"


def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path):
    from quanto_bayes.data_io import load_option_chain, load_price_series

    cfg_path = make_workspace(tmp_path)
    cfg = load_config(cfg_path)
    paths = (cfg.fx_series[0], cfg.option_chain)
    before = (load_price_series(paths[0]), load_option_chain(paths[1]))
    for path in (cfg_path, *paths):
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write("\ufeff".encode() + data)
    assert load_config(cfg_path) == cfg
    series, quotes = load_price_series(paths[0]), load_option_chain(paths[1])
    assert series.dates == before[0].dates
    assert series.prices.tolist() == before[0].prices.tolist()
    assert quotes == before[1]


def test_estimate_reads_no_option_chain(tmp_path):
    cfg_path = make_workspace(tmp_path, families="mle")
    os.remove(os.path.join(str(tmp_path), "chain.csv"))
    assert main(["estimate", "--config", cfg_path]) == 0


@pytest.mark.parametrize("command", ["estimate", "experiment"])
@pytest.mark.parametrize("fx_rows, text", [
    ("1999-01-04,0.85\n1999-01-05,0.86\n", "series share no dates"),
    ("1999-01-04,0.85\n2017-01-02,0.86\n",
     "at least 2 prices are required to form returns, got 1"),
], ids=["disjoint", "one-shared-date"])
def test_series_without_shared_returns_names_both_files(tmp_path, capsys, command, fx_rows,
                                                         text):
    cfg_path = make_workspace(tmp_path, families="mle")
    fx = os.path.join(str(tmp_path), "fx.csv")
    with open(fx, "w", encoding="utf-8") as f:
        f.write("date,price\n" + fx_rows)
    asset = os.path.join(str(tmp_path), "asset.csv")
    text = f"{asset} and {fx}: {text}"
    capsys.readouterr()
    if command == "estimate":
        assert main([command, "--config", cfg_path]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"
    else:
        assert main([command, "--config", cfg_path]) == 0
        with open(os.path.join(str(tmp_path), "out", "failures.csv"), encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert len(lines) == 2 and lines[1].startswith("fx,250,*,panel,") and text in lines[1]


@pytest.mark.parametrize("command", ["estimate", "price"])
@pytest.mark.parametrize("bad_price, text", [
    ("-1", "row 6: non-positive price -1.0"),
    ("n/a", "row 6: non-numeric price 'n/a'"),
    ("1" * 200_000, "row 6: field larger than field limit (131072)"),
], ids=["negative", "non-numeric", "oversized-cell"])
def test_main_malformed_price_series_exits_one(tmp_path, capsys, command, bad_price, text):
    cfg_path = make_workspace(tmp_path)
    fx = os.path.join(str(tmp_path), "fx.csv")
    with open(fx, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    lines[5] = f"{lines[5].split(',')[0]},{bad_price}\n"
    with open(fx, "w", encoding="utf-8") as f:
        f.writelines(lines)
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {fx}: {text}\n"


def _run_python(code, *args):
    """stdout of ``code`` run in a fresh interpreter with the package on its path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_cli_import_skips_scipy_stats():
    code = "import sys, quanto_bayes.cli; print('scipy.stats' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_cli_never_loads_scipy(tmp_path):
    # scipy is a test dependency only: neither the import nor an estimate and a
    # sequential price run loads any of it. The modules that numpy and argparse
    # load on first use come with the import, outside the command's time.
    cfg_path = make_workspace(tmp_path, draws=600, burn_in=100, refresh_draws=60,
                              refresh_burn_in=10, refresh_interval=20)
    draws = os.path.join(str(tmp_path), "out", "draws_tnn.csv")
    code = (
        "import json, sys\n"
        "from quanto_bayes import cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "record = {'import': scipy_modules(),\n"
        "          'lazy': [m in sys.modules for m in ('numpy.fft', 'numpy.random', 'locale')]}\n"
        "cfg, draws = sys.argv[1:]\n"
        "record['estimate'] = cli.main(['estimate', '--config', cfg])\n"
        "record['price'] = cli.main(['price', '--config', cfg, '--draws', draws,\n"
        "                            '--mode', 'sequential', '--paths', '3'])\n"
        "record['run'] = scipy_modules()\n"
        "print(json.dumps(record))\n"
    )
    record = json.loads(_run_python(code, cfg_path, draws))
    assert record == {"import": [], "lazy": [True, True, True], "estimate": 0, "price": 0,
                      "run": []}


@pytest.mark.parametrize("command", ["experiment", "price-sequential"])
def test_traced_benchmark_child_runs(tmp_path, command):
    # the benchmark's traced run wraps the names cli and pricing import from
    # the other modules and ReturnPanel.tail/extend, and reads request fields
    # from them; a sequential run records its refreshes as exact draws
    root = os.path.join(os.path.dirname(__file__), "..")
    cfg_path = make_workspace(tmp_path, draws=600, burn_in=100, n_paths=200,
                              refresh_draws=60, refresh_burn_in=10, refresh_interval=20)
    argv = ["experiment", "--config", cfg_path]
    if command == "price-sequential":
        assert main(["estimate", "--config", cfg_path, "--families", "tnn"]) == 0
        draws = os.path.join(str(tmp_path), "out", "draws_tnn.csv")
        argv = ["price", "--config", cfg_path, "--draws", draws,
                "--mode", "sequential", "--paths", "3"]
    result = tmp_path / "child.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "child.py"),
         "--src", os.path.join(root, "src"), "--result", str(result), "--trace", "--",
         *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["returncode"] == 0, proc.stderr
    names = {span[2] for span in record["spans"]}
    assert "model.ReturnPanel.tail" in names
    if command == "price-sequential":
        assert "inference.exact_posterior_draws" in names


def test_main_family_and_seed_overrides(tmp_path):
    cfg_path = make_workspace(tmp_path)
    assert main(["estimate", "--config", cfg_path, "--families", "mle", "--seed", "3"]) == 0
    rows = _read_csv(os.path.join(str(tmp_path), "out", "estimate_summary.csv"))
    assert {r["family"] for r in rows} == {"mle"}


def test_main_sequential_mode_price(tmp_path):
    cfg_path = make_workspace(tmp_path, refresh_draws=200, refresh_burn_in=50,
                              refresh_interval=20)
    assert main(["estimate", "--config", cfg_path]) == 0
    draws = os.path.join(str(tmp_path), "out", "draws_tnn.csv")
    assert main(["price", "--config", cfg_path, "--draws", draws,
                 "--mode", "sequential", "--paths", "25"]) == 0
    rows = _read_csv(os.path.join(str(tmp_path), "out", "pricing.csv"))
    assert len(rows) == 5
    for r in rows:
        assert float(r["model_price"]) >= 0.0
        assert int(r["n_effective_draws"]) == 25
