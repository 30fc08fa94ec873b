import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quanto_bayes.cli import (
    cmd_diagnose,
    cmd_estimate,
    cmd_experiment,
    cmd_price,
    load_config,
    main,
)
from quanto_bayes.data_io import InputError

from conftest import FIXTURES, fixture_panel, make_workspace
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
    with pytest.raises(InputError, match="mystery"):
        load_config(str(path))


def test_load_config_rejects_a_key_set_twice(tmp_path, capsys):
    path = make_workspace(tmp_path, draws=400)
    with open(path, "a", encoding="utf-8") as f:
        f.write("# a later edit\ndraws = 320\n")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    first, second = lines.index("draws = 400") + 1, len(lines)
    assert main(["estimate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:{second}: 'draws' already set on line {first}\n"


def test_each_subcommand_takes_only_the_flags_it_reads():
    from quanto_bayes.cli import _build_parser

    values = {"--seed": "3", "--families": "ign", "--paths": "7", "--mode": "sequential"}
    for command, taken in (("estimate", {"--seed", "--families"}),
                           ("price", {"--seed", "--paths", "--mode"}),
                           ("experiment", set(values)),
                           ("diagnose", set())):
        argv = [command, "--config", "run.cfg", "--out", "out"]
        if command in ("price", "diagnose"):
            argv += ["--draws", "draws.csv"]
        for flag, value in values.items():
            if flag in taken:
                _build_parser().parse_args([*argv, flag, value])
                continue
            with pytest.raises(SystemExit) as info:  # argparse's usage error
                _build_parser().parse_args([*argv, flag, value])
            assert info.value.code == 2, (command, flag)


def test_load_config_rejects_inconsistent_chain_settings(tmp_path):
    path = make_workspace(tmp_path, draws=100, burn_in=100)
    with pytest.raises(InputError, match="burn_in"):
        load_config(path)


def test_default_config_values_have_their_defaults_types():
    from quanto_bayes.cli import ExperimentConfig

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "fixtures", "default.cfg"))
    for name, default in ExperimentConfig._field_defaults.items():
        value = getattr(cfg, name)
        assert type(value) is type(default), name
        if isinstance(value, tuple):
            element = int if name == "windows" else str
            assert value and all(type(v) is element for v in value), name


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


# The draws text is written by the native library's C writer or by its Python
# twin, Python's %, whichever inference._native() gives. The ``route`` fixture
# picks one under _write_draws; a case keeps its old id on the C route and adds
# "-percent" on the Python route. The value-set tests call each writer directly.

@pytest.fixture
def route(request, monkeypatch):
    """inference._native() is the C library ("c") or its Python twin ("percent")."""
    from quanto_bayes import inference

    if request.param == "percent":
        monkeypatch.setattr(inference, "_native", lambda: inference._PYTHON)
    else:
        assert inference._native() is not inference._PYTHON
    return request.param


def _on_both_routes(cases):
    """pytest params for each (values, id) case, with a ``route`` value last."""
    return [pytest.param(*values, route, id=case_id + ("-percent" if route == "percent" else ""))
            for values, case_id in cases for route in ("c", "percent")]


@pytest.mark.parametrize("make_draws, route", _on_both_routes([
    ((lambda rng: (_distinct_draws(rng, 2600), 37),), "distinct"),  # blocks and a partial one
    ((_draws_across_blocks,), "runs-across-blocks"),
    ((_draws_with_constant_column,), "constant-column"),
    ((_distinct_block_then_repeats,), "distinct-then-repeats"),
    ((_draws_with_signed_zeros,), "signed-zeros"),
    ((_fixture_tnn_draws,), "tnn-w140"),
]), indirect=["route"])
def test_draws_file_format_and_round_trip(tmp_path, make_draws, route):
    from quanto_bayes.cli import _load_draws, _write_draws
    from quanto_bayes.inference import Chain

    draws, burn_in = make_draws(np.random.default_rng(12))
    chain = Chain(draws=draws, burn_in=burn_in, acceptance_counts=np.zeros(3))
    path = os.path.join(str(tmp_path), "draws.csv")
    _write_draws(path, chain)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    assert lines[0] == "sigma_x,sigma_h,rho" and lines[-1] == ""
    assert lines[1:-1] == [",".join("%.17g" % float(v) for v in row)
                           for row in chain.post_burn_in()]
    assert np.array_equal(_load_draws(path).draws, chain.post_burn_in())


def _assert_draws_text_exact(values, native):
    """``native.draws_text`` of ``values``, three to a row, is ``%.17g`` of
    every cell; returns its fallback count."""
    rows = np.asarray(values, dtype=float).reshape(-1, 3)
    out = bytearray(25 * rows.size)
    length, fallbacks = native.draws_text(rows, out)
    text = out[:length].decode("ascii")
    expected = ("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist())
    if text != expected:
        wrong = [(got, want) for got, want in zip(text.split("\n"), expected.split("\n"))
                 if got != want]
        pytest.fail(f"{native.draws_text.__name__}: {len(wrong)} rows differ from %.17g, "
                    f"first {wrong[:3]}")
    return fallbacks


def _assert_exact_on_the_c_route(values):
    """``_assert_draws_text_exact`` on the C writer; returns its fallback count."""
    from quanto_bayes import inference

    native = inference._native()
    assert native is not inference._PYTHON
    return _assert_draws_text_exact(values, native)


def _assert_exact_on_the_percent_route(values):
    """``_assert_draws_text_exact`` on the Python twin, where every cell
    counts as a fallback."""
    from quanto_bayes import inference

    assert _assert_draws_text_exact(values, inference._PYTHON) == np.size(values)


def _with_both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _log_uniform_values():
    rng = np.random.default_rng(1712)
    n = 300_000
    return 10.0 ** rng.uniform(-6.0, 1.0, n) * rng.choice([-1.0, 1.0], n)


def _decimal_ties():
    rng = np.random.default_rng(1713)
    ties = []
    for k in range(17, 21):
        # q * 2**-(k+1) with q odd has 18 significant digits, the last a 5,
        # when it lies in [10**(16-k), 10**(17-k))
        lo, hi = 10.0 ** (16 - k) * 2 ** (k + 1), 10.0 ** (17 - k) * 2 ** (k + 1)
        q = rng.integers(int(lo) // 2 + 1, int(hi) // 2, 3000) * 2 + 1
        ties.append(q * 2.0 ** -(k + 1))
    return _with_both_signs(np.concatenate(ties))


def _power_of_ten_neighbours():
    neighbours = []
    for j in range(-6, 2):
        for direction in (np.inf, -np.inf):
            value = 10.0 ** j
            for _ in range(7):  # the power and its six neighbours on this side
                neighbours.append(value)
                value = np.nextafter(value, direction)
    values = _with_both_signs(neighbours)
    return np.concatenate([values, np.full((-values.size) % 3, 0.5)])


_FALLBACK_VALUES = [0.0, -0.0, 1.0 - 2.0 ** -53, 5e-324, -2.2250738585072014e-308,
                    1.0, -7.25, 12345678901234567.0, 1.7976931348623157e308,
                    9.999999999999999e-05, -1.2345678901234567e-100, 1e-300]

_FINITE_FLOAT_ROWS = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.floats(-1.0, 1.0)), min_size=3, max_size=30)


def test_draws_text_matches_percent_format_on_log_uniform_values():
    values = _log_uniform_values()
    # four of the seven decades take the bulk path
    assert 0.35 * values.size < _assert_exact_on_the_c_route(values) < 0.5 * values.size


def test_draws_text_rounds_exact_decimal_ties_to_even():
    assert "%.17g" % (26215 / 2 ** 18) == "0.10000228881835938"
    assert _assert_exact_on_the_c_route([26215 / 2 ** 18, 0.5, 0.5]) == 0
    assert _assert_exact_on_the_c_route(_decimal_ties()) == 0


def test_draws_text_near_powers_of_ten():
    _assert_exact_on_the_c_route(_power_of_ten_neighbours())


def test_draws_text_fallback_values():
    assert _assert_exact_on_the_c_route(_FALLBACK_VALUES) == len(_FALLBACK_VALUES)


@PROPERTY
@given(_FINITE_FLOAT_ROWS)
def test_draws_text_matches_percent_format_on_finite_floats(values):
    _assert_exact_on_the_c_route(values[:len(values) // 3 * 3])


# The same value sets through the Python twin, which writes when the native
# library cannot be built.

@pytest.mark.parametrize("values", [
    _log_uniform_values,
    lambda: np.concatenate([[26215 / 2 ** 18, 0.5, 0.5], _decimal_ties()]),
    _power_of_ten_neighbours,
    lambda: _FALLBACK_VALUES,
], ids=["log-uniform", "decimal-ties", "power-of-ten-neighbours", "fallback-values"])
def test_draws_text_percent_route(values):
    _assert_exact_on_the_percent_route(values())


@PROPERTY
@given(_FINITE_FLOAT_ROWS)
def test_draws_text_percent_route_on_finite_floats(values):
    _assert_exact_on_the_percent_route(values[:len(values) // 3 * 3])


def test_draws_text_formats_fixture_chains_in_bulk():
    """Every cell of a tnn chain and an mnc chain on the fixtures with
    1e-4 <= |v| < 1 takes the bulk path, so a lost fast path fails here rather
    than only slowing down. The conjugate chain draws a few |rho| < 1e-4,
    which the fallback formats."""
    from quanto_bayes.inference import (NiwHyperparams, conjugate_sample, default_proposals,
                                        mle_estimate, mwg_sample)

    panel = fixture_panel(140)
    tnn = mwg_sample(panel, default_proposals("tnn", panel), 3000, 500,
                     init=mle_estimate(panel), seed=140)
    mnc = conjugate_sample(panel, NiwHyperparams(), 2500, seed=140)
    assert _assert_exact_on_the_c_route(tnn.post_burn_in()) == 0
    magnitudes = np.abs(mnc.post_burn_in())
    outside = np.count_nonzero((magnitudes < 1e-4) | (magnitudes >= 1.0))
    assert outside <= 5 and _assert_exact_on_the_c_route(mnc.post_burn_in()) == outside


@pytest.mark.parametrize("route", ["c", "percent"], indirect=True)
def test_draws_text_copies_repeated_cells_exactly(route):
    """The C writer copies the text of a cell whose bits equal those of the
    cell above it. Runs of repeated rows, offset from column to column, of
    exact and fallback values, NaN, and 0.0 and -0.0 each directly below the
    other: equal values whose texts differ must not be copied, and a copy
    counts as a fallback when the cell it copies did."""
    from quanto_bayes import inference

    runs = np.repeat([0.12345678901234567, -0.0031415926535897933, 0.0, 5e-324, 7.25, 1e-300,
                      math.nan, -0.0, 0.0, -0.0], 4)
    rows = np.column_stack([runs, np.roll(runs, 1), np.roll(runs, 2)])
    # two exact values of ten in each column, or every cell on Python's %
    expected = 3 * 8 * 4 if route == "c" else rows.size
    assert _assert_draws_text_exact(rows, inference._native()) == expected
    # a whole block of one repeated row, signed zeros included
    rows = np.tile([[-0.0, 0.5, 1e-300]], (50, 1))
    assert _assert_draws_text_exact(rows, inference._native()) == (
        100 if route == "c" else rows.size)


# A draws file in the writer's form is read by the native library's C reader,
# draws_values, when inference._native() gives the library; every other form,
# and every file on the Python twin, whose draws_values takes none, is read by
# np.loadtxt. Both readers must give the same draws bit for bit, and refuse a
# file with the same message.

@pytest.mark.parametrize("make_draws, writer", _on_both_routes([
    # the cases of test_draws_file_format_and_round_trip
    ((lambda rng: (_distinct_draws(rng, 2600), 37),), "distinct"),
    ((_draws_across_blocks,), "runs-across-blocks"),
    ((_draws_with_constant_column,), "constant-column"),
    ((_distinct_block_then_repeats,), "distinct-then-repeats"),
    ((_draws_with_signed_zeros,), "signed-zeros"),
    ((_fixture_tnn_draws,), "tnn-w140"),
]))
def test_draws_file_reads_back_bit_for_bit_on_both_readers(tmp_path, monkeypatch, make_draws,
                                                           writer):
    from quanto_bayes import inference
    from quanto_bayes.cli import _load_draws, _write_draws
    from quanto_bayes.inference import Chain

    native = inference._native()
    assert native is not inference._PYTHON
    draws, burn_in = make_draws(np.random.default_rng(12))
    chain = Chain(draws=draws, burn_in=burn_in, acceptance_counts=np.zeros(3))
    path = os.path.join(str(tmp_path), "draws.csv")
    monkeypatch.setattr(inference, "_native",
                        lambda: native if writer == "c" else inference._PYTHON)
    _write_draws(path, chain)
    expected = chain.post_burn_in().tobytes()
    with open(path, "rb") as f:
        body = f.read().removeprefix(b"sigma_x,sigma_h,rho\n")
    assert native.draws_values(body).tobytes() == expected
    assert inference._PYTHON.draws_values(body) is None
    for reader in (native, inference._PYTHON):
        monkeypatch.setattr(inference, "_native", lambda: reader)
        assert _load_draws(path).draws.tobytes() == expected


@PROPERTY
@given(_FINITE_FLOAT_ROWS)
def test_draws_values_reads_the_writers_text_as_float_does(values):
    """The C reader reads the writer's text of any finite doubles to the
    bits that ``float`` gives each cell."""
    from quanto_bayes import inference

    native = inference._native()
    assert native is not inference._PYTHON
    rows = np.asarray(values[:len(values) // 3 * 3], dtype=float).reshape(-1, 3)
    out = bytearray(25 * rows.size)
    text = bytes(out[:native.draws_text(rows, out)[0]])
    cells = text.decode("ascii").replace("\n", ",").split(",")[:-1]
    expected = np.array([float(cell) for cell in cells]).reshape(-1, 3)
    assert native.draws_values(text).tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, taken", [
    ("sigma_x,sigma_h,rho\r\n0.006,0.004,0.1\r\n0.0061,0.0041,-0.2\r\n", False),
    ("\ufeffsigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,-0.2\n", True),
    ("sigma_x,sigma_h,rho\n0.006, 0.004,0.1\n0.0061,0.0041,-0.2\n", False),
    ("sigma_x,sigma_h,rho\n# a comment\n0.006,0.004,0.1\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n\n0.0061,0.0041,-0.2\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,+1e-05\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,1e5\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,.5\n", False),
    ("sigma_x,sigma_h,rho\ninf,0.004,0.5\n", False),
    ("sigma_x,sigma_h,rho\n0.006,nan,0.5\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,0.1,0.2\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,-0.2", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041\x00,-0.2\n", False),
    ("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,1\n", True),
    ("sigma_x,sigma_h,rho\n", True),
], ids=["crlf", "bom", "space", "comment", "blank-line", "plus-sign", "unsigned-exponent",
        "no-leading-digit", "inf", "nan", "four-cells", "two-cells", "no-final-newline", "nul",
        "rho-one", "no-draws"])
def test_draws_files_read_alike_on_both_readers(tmp_path, monkeypatch, text, taken):
    """A file that the C reader does not take, or takes but ``Chain``
    refuses, is read by np.loadtxt as on the Python twin: the same draws, or
    the same message."""
    from quanto_bayes import inference
    from quanto_bayes.cli import _load_draws

    native = inference._native()
    assert native is not inference._PYTHON
    path = tmp_path / "draws.csv"
    path.write_bytes(text.encode())
    body = text.removeprefix("\ufeff").removeprefix("sigma_x,sigma_h,rho\n").encode()
    assert (native.draws_values(body) is not None) == taken
    results = []
    for reader in (native, inference._PYTHON):
        monkeypatch.setattr(inference, "_native", lambda: reader)
        try:
            results.append(_load_draws(str(path)).draws.tobytes())
        except InputError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def test_draws_values_refuses_a_file_under_a_comma_decimal_point(tmp_path, monkeypatch):
    """Under an LC_NUMERIC whose decimal point is ',', strtod stops at a
    cell's '.', so the C reader refuses the file and np.loadtxt, which no
    locale moves, reads it. The locale is built into tmp_path."""
    import locale
    import shutil

    from quanto_bayes import inference
    from quanto_bayes.cli import _load_draws

    if shutil.which("localedef") is None:
        pytest.skip("no localedef to build a locale with")
    (tmp_path / "comma.def").write_text('LC_NUMERIC\ndecimal_point ","\nthousands_sep ""\n'
                                        "grouping -1\nEND LC_NUMERIC\n")
    subprocess.run(["localedef", "-c", "-i", str(tmp_path / "comma.def"), "-f", "ANSI_X3.4-1968",
                    str(tmp_path / "comma")], capture_output=True)
    native = inference._native()
    assert native is not inference._PYTHON
    path = tmp_path / "draws.csv"
    path.write_text("sigma_x,sigma_h,rho\n0.5,0.25,-0.125\n0.5,0.25,1e-05\n3,2,0\n")
    expected = _load_draws(str(path)).draws
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    old = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "comma")
    except locale.Error:
        pytest.skip("the comma locale could not be built")
    try:
        assert locale.localeconv()["decimal_point"] == ","
        assert native.draws_values(b"0.5,0.25,-0.125\n") is None
        assert native.draws_values(b"3,2,0\n") is None
        assert np.array_equal(_load_draws(str(path)).draws, expected)
    finally:
        locale.setlocale(locale.LC_NUMERIC, old)


@pytest.mark.parametrize("command", ["estimate", "experiment"])
def test_chain_warnings_are_printed_to_stderr(tmp_path, monkeypatch, capsys, command):
    from quanto_bayes import cli
    from quanto_bayes.inference import Chain

    real = cli._sample_family

    def flagged(family, *args):
        chain = real(family, *args)
        return Chain(chain.draws, chain.burn_in, chain.acceptance_counts,
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
    priced = cmd_price(cfg, draws_files["tnn"])
    rows = _read_csv(os.path.join(cfg.out_dir, "pricing.csv"))
    assert len(rows) == 5  # 6 quotes, 1 dropped by the filter

    # each relative pricing error is |price - quote| / quote, NA without a price
    for row, cells in zip(priced, rows, strict=True):
        quote = row.quanto_market_price
        for price_field, rpe_field in (("model_price", "rpe_model"),
                                       ("bs_i_price", "rpe_bs_i"), ("bs_h_price", "rpe_bs_h")):
            price = getattr(row, price_field)
            if price is None:
                assert getattr(row, rpe_field) is None and cells[rpe_field] == "NA"
            else:
                assert getattr(row, rpe_field) == pytest.approx(abs(price - quote) / quote,
                                                                 rel=1e-12, abs=0.0)

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
        # the chain is one flat vol, rounded to 4 decimals, so BS-I at the
        # ATM quote's implied vol re-prices every quote to that rounding
        assert float(r["rpe_bs_i"]) < 1e-4
        maturity = int(r["maturity_days"])
        expected_bs_h = (cfg.h_fix * math.exp((market.r_f - market.r_d) * maturity)
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


def test_cmd_price_quote_columns_follow_one_quanto_convention(tmp_path):
    """The quanto quote is h_fix * exp((r_f - r_d) * s) times the call
    quote, and BS-I re-prices each maturity's ATM quote but not the smile."""
    from quanto_bayes.pricing import bs_call

    make_workspace(tmp_path)
    spot = float(_read_csv(os.path.join(str(tmp_path), "chain.csv"))[0]["spot"])
    r_f = 0.025 / 252
    chain_prices = []
    for s in (21, 51, 90):
        for m in (0.95, 0.99, 1.0, 1.01, 1.05):
            strike = round(spot * m, 1)
            smile_vol = 0.0062 * (1.0 + 10.0 * abs(m - 1.0))
            chain_prices.append((strike, s, round(bs_call(spot, strike, smile_vol, r_f, s), 6)))
    cfg = load_config(make_workspace(tmp_path, chain_prices=chain_prices, h_fix=1.25))
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
    cmd_price(cfg, draws)
    rows = _read_csv(os.path.join(cfg.out_dir, "pricing.csv"))
    assert len(rows) == 15

    market = cfg.market()
    for r in rows:
        factor = 1.25 * math.exp((market.r_f - market.r_d) * int(r["maturity_days"]))
        assert float(r["quanto_market_price"]) == pytest.approx(
            factor * float(r["market_price"]), rel=1e-11)
    for s in ("21", "51", "90"):
        same = [r for r in rows if r["maturity_days"] == s]
        atm = min(same, key=lambda r: (abs(float(r["strike"]) / spot - 1.0), float(r["strike"])))
        assert float(atm["rpe_bs_i"]) < 1e-8
        # one vol per maturity misses the smile's wings
        assert max(float(r["rpe_bs_i"]) for r in same) > 1e-3


def test_quote_table_solves_one_implied_vol_per_maturity():
    from quanto_bayes import cli
    from quanto_bayes.data_io import OptionQuote
    from quanto_bayes.model import MarketConfig
    from quanto_bayes.pricing import bs_call

    market = MarketConfig.from_annual(0.015, 0.025)
    quotes = [
        # 99 and 101 tie at |K/S - 1| = 0.01, so 99's vol prices the maturity
        OptionQuote(None, 101.0, 51, bs_call(100.0, 101.0, 0.009, market.r_f, 51), 100.0),
        OptionQuote(None, 99.0, 51, bs_call(100.0, 99.0, 0.008, market.r_f, 51), 100.0),
        OptionQuote(None, 90.0, 51, bs_call(100.0, 90.0, 0.008, market.r_f, 51), 100.0),
        # no vol up to 5 per day reaches 99.9 in one day, so the solve fails
        OptionQuote(None, 100.0, 1, 99.9, 100.0),
        OptionQuote(None, 95.0, 1, 6.0, 100.0),
    ]
    rows = {(r.strike, r.maturity_days): r for r in cli._quote_table(quotes, market)}
    assert rows[99.0, 51].rpe_bs_i < 1e-8
    assert rows[90.0, 51].rpe_bs_i < 1e-8  # same vol, so BS-I re-prices it too
    assert rows[101.0, 51].rpe_bs_i > 1e-3
    assert rows[100.0, 1].bs_i_price is None and rows[95.0, 1].bs_i_price is None
    assert rows[100.0, 1].rpe_bs_i is None and rows[95.0, 1].rpe_bs_i is None


def test_bs_h_is_the_closed_form_at_zero_correlation():
    from quanto_bayes import cli
    from quanto_bayes.data_io import OptionQuote
    from quanto_bayes.inference import mle_estimate
    from quanto_bayes.model import MarketConfig, SpotState, Theta
    from quanto_bayes.pricing import bs_call, closed_form_v3

    market = MarketConfig.from_annual(0.015, 0.025, h_fix=1.25)
    panel = fixture_panel(140)
    spot = 2711.74
    quotes = [OptionQuote(None, spot * m, s, bs_call(spot, spot * m, 0.007, market.r_f, s), spot)
              for s in (1, 21, 51, 90, 252) for m in np.linspace(0.8, 1.2, 9)]
    hist_vol = mle_estimate(panel).sigma_x
    rows = cli._with_bs_h(cli._quote_table(quotes, market), market, hist_vol)
    for sigma_h in (0.001, 0.004, 0.02):
        theta = Theta(hist_vol, sigma_h, 0.0)
        for row in rows:
            expected = closed_form_v3(theta, SpotState(spot, 1.0), row.strike,
                                      row.maturity_days, market)
            assert row.bs_h_price == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("value, text", [
    (0.0, "0"), (-0.0, "-0"), (5e-324, "4.94065645841e-324"), (1e-300, "1e-300"),
    (0.1, "0.1"), (2.0, "2"), (1e16, "1e+16"), (1.5e300, "1.5e+300"),
    (math.nan, "NA"), (math.inf, "NA"), (-math.inf, "NA"),
])
def test_fmt_of_a_float_is_the_text_of_its_numpy_twin(value, text):
    # np.float64 is a float subclass that skips the fast path for floats
    from quanto_bayes.cli import _fmt

    assert _fmt(value) == text
    assert _fmt(np.float64(value)) == text


@pytest.mark.parametrize("value, text", [
    (np.float64(2655.123456789012), "2655.12345679"), (np.int64(-42), "-42"),
    (True, "1"), (False, "0"), (7, "7"), (10 ** 20, "100000000000000000000"),
    ("ATM", "ATM"), ("a, b", '"a, b"'), ('say "x"', '"say ""x"""'), (None, "NA"),
])
def test_fmt_of_other_cells(value, text):
    from quanto_bayes.cli import _fmt

    assert _fmt(value) == text


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(row=st.tuples(FINITE, st.integers(1, 10 ** 6), FINITE, FINITE, st.integers(0, 10 ** 9)))
def test_density_row_template_matches_fmt(row):
    from quanto_bayes.cli import PricingRow, _density_lines, _fmt

    strike, maturity, lo, hi, count = row
    lines = _density_lines(PricingRow(strike, maturity, 1.0, "ATM", 1.0, 1.0),
                           np.array([count]), np.array([lo, hi]))
    assert lines == [",".join(map(_fmt, row)) + "\n"]


@pytest.mark.parametrize("samples", [
    np.full(7, 0.0),  # constant samples: edges -0.5 to 0.5
    np.full(7, 123.456789012345),
    np.array([0.0, 0.123456789012, 9.87654321098e-5]),  # all 12 significant digits
    np.array([1e21, 3.3e22]),
])
@pytest.mark.parametrize("strike", [0.0, 2655.0, 2711.74123456789, 1e16, 1.5e300])
def test_density_row_template_matches_fmt_on_histogram_edges(samples, strike):
    from quanto_bayes.cli import PricingRow, _density_lines, _fmt

    counts, edges = np.histogram(samples, bins=50)
    lines = _density_lines(PricingRow(strike, 51, 1.0, "ATM", 1.0, 1.0), counts, edges)
    assert lines == [",".join(map(_fmt, (strike, 51, lo, hi, int(count)))) + "\n"
                     for lo, hi, count in zip(edges[:-1], edges[1:], counts)]


def _bins_outcome(bins, ordered):
    """The counts and edge bits ``bins`` gives, or the text of its ValueError."""
    try:
        counts, edges = bins(ordered)
    except ValueError as exc:
        return str(exc)
    return counts.dtype, counts.tolist(), edges.tobytes()


def _assert_density_bins_are_histogram(ordered):
    from quanto_bayes.cli import _density_bins

    ordered = np.sort(np.asarray(ordered, dtype=float))
    expected = _bins_outcome(lambda a: np.histogram(a, bins=50), ordered)
    assert _bins_outcome(_density_bins, ordered) == expected, ordered


def test_density_bins_match_histogram_on_random_sorted_samples():
    rng = np.random.default_rng(1901)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-8, 8)
        _assert_density_bins_are_histogram(
            rng.normal(rng.normal() * scale, scale, size=int(rng.integers(2, 300))))


def test_density_bins_match_histogram_on_payoffs_with_leading_zeros():
    rng = np.random.default_rng(1902)
    for _ in range(500):
        growth = np.exp(rng.normal(0.0, 0.05, size=int(rng.integers(1, 2000))))
        strike = 2711.74 * rng.uniform(0.8, 1.3)
        _assert_density_bins_are_histogram(np.maximum(2711.74 * growth - strike, 0.0))


def test_density_bins_match_histogram_on_ties_and_edge_values():
    rng = np.random.default_rng(1903)
    for _ in range(500):
        lo = rng.normal() * 100.0
        edges = np.linspace(lo, lo + rng.exponential(10.0), 51)
        values = np.concatenate([edges[[0, -1]], rng.choice(edges, size=int(rng.integers(0, 80)))])
        _assert_density_bins_are_histogram(values)
        _assert_density_bins_are_histogram(rng.choice(values[:3], size=40))


@pytest.mark.parametrize("value", [0.0, 1.0, -2.5, 2655.0, 1e-300, 1e16, 1e17, 1.5e300])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_density_bins_match_histogram_on_constant_samples(value, n):
    # from 1e17 on, value +- 0.5 is value and np.histogram refuses the bins
    _assert_density_bins_are_histogram(np.full(n, value))


@pytest.mark.parametrize("samples", [
    [1.0, 1.0 + 2 ** -52],  # the edges collapse onto two values
    [1.0, 1.0 + 60 * 2 ** -52, 1.0 + 120 * 2 ** -52],
    [0.0, 5e-324, 1e-320],  # 50 / (max - min) overflows
    [1e-310, 3e-310, 7e-310],
    [-1e308, 1e308],  # max - min overflows
])
def test_density_bins_match_histogram_on_ranges_of_a_few_ulps(samples):
    with np.errstate(over="ignore", invalid="ignore"):  # linspace over an infinite range
        _assert_density_bins_are_histogram(samples)


@pytest.mark.parametrize("samples", [
    [float("nan")], [1.0, float("nan")], [0.0, 1.0, float("inf")], [-float("inf"), 0.0],
])
def test_density_bins_refuse_non_finite_samples(samples):
    from quanto_bayes.cli import _density_bins

    with pytest.raises(ValueError, match="is not finite"):
        _density_bins(np.sort(np.array(samples)))
    _assert_density_bins_are_histogram(samples)


@pytest.mark.parametrize("n_paths", [None, 1], ids=["config-paths", "one-path"])
def test_price_density_file_is_fmt_of_the_histograms(tmp_path, n_paths):
    # np.histogram of each quote's sorted payoffs, priced again from the
    # run's requests and seed, is the oracle of the binning; with one path
    # every payoff is equal and the bins span it -0.5 to +0.5
    from quanto_bayes import cli
    from quanto_bayes.cli import _fmt
    from quanto_bayes.pricing import PricingRequest, price_batch

    cfg = load_config(make_workspace(tmp_path))
    if n_paths is not None:  # as --paths sets it
        cfg = cfg._replace(n_paths=n_paths)
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,-0.2\n")
    rows = cmd_price(cfg, draws)
    assert len(rows) == 5
    _, h_level = cli._load_panel(cfg, cfg.fx_series[0])
    seed = cli._derive_seed(cfg.seed, "price", "draws")
    requests = [PricingRequest(kind="F3", strike=row.strike, horizon_s=row.maturity_days,
                               spot=cli.SpotState(row.spot, h_level))
                for row in rows]
    expected = ["strike,maturity_days,bin_lo,bin_hi,count\n"]
    priced = price_batch(requests, cli._load_draws(draws), cfg.market(), cfg.n_paths, seed)
    for row, (result, payoffs) in zip(rows, priced):
        assert result.price == row.model_price
        counts, edges = np.histogram(payoffs, bins=50)
        expected += [",".join(map(_fmt, (row.strike, row.maturity_days, lo, hi, int(count))))
                     + "\n" for lo, hi, count in zip(edges[:-1], edges[1:], counts)]
    with open(os.path.join(cfg.out_dir, "price_density.csv"), "rb") as f:
        assert f.read() == "".join(expected).encode("ascii")


def test_cmd_price_missing_draws_file(tmp_path, capsys):
    cfg_path = make_workspace(tmp_path)
    missing = os.path.join(str(tmp_path), "nope.csv")
    capsys.readouterr()
    assert main(["price", "--config", cfg_path, "--draws", missing]) == 1
    assert capsys.readouterr().err == f"error: input files not found: {[missing]}\n"
    assert not os.path.exists(os.path.join(str(tmp_path), "out"))


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


def test_cmd_diagnose_writes_na_nse_and_cd_below_100_draws(tmp_path):
    cfg = load_config(make_workspace(tmp_path))
    rng = np.random.default_rng(50)
    draws = os.path.join(str(tmp_path), "draws_50.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n")
        for x, h, r in np.column_stack([0.006 + 0.0005 * rng.standard_normal(50),
                                        0.004 + 0.0004 * rng.standard_normal(50),
                                        0.1 * rng.standard_normal(50)]).tolist():
            f.write(f"{x!r},{h!r},{r!r}\n")
    cmd_diagnose(cfg, draws)
    table = _read_csv(os.path.join(cfg.out_dir, "diagnose_summary.csv"))
    assert [r["parameter"] for r in table] == ["sigma_x", "sigma_h", "rho"]
    for r in table:
        assert r["nse"] == "NA" and r["cd"] == "NA", r
        float(r["mean"]), float(r["hpdi95_lo"])


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
    cfg = load_config(cfg_path)._replace(families=("tnn",),
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
        plain = quanto * math.exp((market.r_d - market.r_f) * 51) / market.h_fix
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


def test_experiment_families_of_a_cell_price_on_the_same_paths(tmp_path, monkeypatch):
    from quanto_bayes import cli

    real = cli._sample_family

    def one_chain(family, panel, mle, cfg, seed):
        return real("mnc", panel, mle, cfg, 11)

    monkeypatch.setattr(cli, "_sample_family", one_chain)
    cfg = load_config(make_workspace(tmp_path, families="ttn, mnc", draws=600, burn_in=100,
                                     n_paths=500))
    assert cmd_experiment(cfg) == []
    cell = os.path.join(cfg.out_dir, "cells", "fx", "w250")
    with open(os.path.join(cell, "pricing_ttn.csv"), "rb") as f:
        ttn = f.read()
    with open(os.path.join(cell, "pricing_mnc.csv"), "rb") as f:
        assert f.read() == ttn


def test_experiment_family_difference_is_less_noisy_on_shared_paths(tmp_path, monkeypatch):
    """Over eight seeds, the SD of an ATM quote's ttn - mnc price difference
    on the cell's shared paths is below that on a seed per family,
    _derive_seed(seed, "price", family, fx, window); the same chains price
    both. The SDs were 0.196 and 3.95, a ratio of 20, when this test was
    written."""
    from quanto_bayes import cli

    real_sample, real_price = cli._sample_family, cli._price_chain
    family_of = {}
    own_seed_atm = {}

    def sample(family, *args):
        chain = real_sample(family, *args)
        family_of[id(chain)] = family
        return chain

    def price_also_on_own_seed(cfg, chain, table, market, panel, h_level, seed):
        family = family_of[id(chain)]
        own = cli._derive_seed(cfg.seed, "price", family, "fx", 250)
        own_seed_atm[family] = next(
            row.model_price for row, _ in
            real_price(cfg, chain, table, market, panel, h_level, own) if row.bucket == "ATM")
        return real_price(cfg, chain, table, market, panel, h_level, seed)

    monkeypatch.setattr(cli, "_sample_family", sample)
    monkeypatch.setattr(cli, "_price_chain", price_also_on_own_seed)
    shared, own = [], []
    for seed in range(8):
        root = tmp_path / str(seed)
        root.mkdir()
        cfg = load_config(make_workspace(root, families="ttn, mnc", draws=600, burn_in=100,
                                         n_paths=500, seed=seed))
        assert cmd_experiment(cfg) == []
        cell = os.path.join(cfg.out_dir, "cells", "fx", "w250")
        atm = {family: next(float(r["model_price"]) for r in
                            _read_csv(os.path.join(cell, f"pricing_{family}.csv"))
                            if r["bucket"] == "ATM") for family in ("ttn", "mnc")}
        shared.append(atm["ttn"] - atm["mnc"])
        own.append(own_seed_atm["ttn"] - own_seed_atm["mnc"])
    assert np.std(shared, ddof=1) < 0.25 * np.std(own, ddof=1), (shared, own)


def test_cmd_experiment_records_partial_failures(tmp_path):
    cfg = load_config(make_workspace(tmp_path, windows="250, 9999"))
    failures = cmd_experiment(cfg)
    assert any(w == 9999 for _, w, *_ in failures)
    recorded = _read_csv(os.path.join(cfg.out_dir, "failures.csv"))
    assert len(recorded) == len(failures) >= 1
    # the good window still produced its cell
    assert os.path.exists(os.path.join(cfg.out_dir, "cells", "fx", "w250", "pricing_tnn.csv"))


def test_cmd_experiment_records_a_family_estimate_failure_and_goes_on(tmp_path, monkeypatch):
    from quanto_bayes import cli

    real = cli._sample_family

    def failing(family, *args):
        if family == "mnc":
            raise ValueError("the mnc sampler failed")
        return real(family, *args)

    monkeypatch.setattr(cli, "_sample_family", failing)
    cfg = load_config(make_workspace(tmp_path, families="tnn, mnc, mle", draws=600,
                                     burn_in=100, n_paths=500))
    assert cmd_experiment(cfg) == [("fx", 250, "mnc", "estimate", "the mnc sampler failed")]
    assert [tuple(r.values()) for r in _read_csv(os.path.join(cfg.out_dir, "failures.csv"))] \
        == [("fx", "250", "mnc", "estimate", "the mnc sampler failed")]
    cell = os.path.join(cfg.out_dir, "cells", "fx", "w250")
    summary = _read_csv(os.path.join(cell, "estimate_summary.csv"))
    assert [r["family"] for r in summary] == ["tnn"] * 3 + ["mle"] * 3
    assert os.path.exists(os.path.join(cell, "pricing_tnn.csv"))
    assert not os.path.exists(os.path.join(cell, "draws_mnc.csv"))
    assert not os.path.exists(os.path.join(cell, "pricing_mnc.csv"))
    models = {r["model"] for r in _read_csv(os.path.join(cfg.out_dir, "pricing_performance.csv"))}
    assert models == {"tnn", "bs_i", "bs_h"}


def test_cmd_experiment_records_a_family_price_failure_and_goes_on(tmp_path, monkeypatch):
    from quanto_bayes import cli

    real = cli.price_batch
    calls = []

    def failing_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("the first chain failed to price")
        return real(*args)

    monkeypatch.setattr(cli, "price_batch", failing_first)
    cfg = load_config(make_workspace(tmp_path, families="tnn, mnc, mle", draws=600,
                                     burn_in=100, n_paths=500))
    assert cmd_experiment(cfg) == [("fx", 250, "tnn", "price", "the first chain failed to price")]
    assert len(calls) == 2
    cell = os.path.join(cfg.out_dir, "cells", "fx", "w250")
    assert os.path.exists(os.path.join(cell, "draws_tnn.csv"))
    assert not os.path.exists(os.path.join(cell, "pricing_tnn.csv"))
    assert len(_read_csv(os.path.join(cell, "pricing_mnc.csv"))) == 5
    models = {r["model"] for r in _read_csv(os.path.join(cfg.out_dir, "pricing_performance.csv"))}
    assert models == {"mnc", "bs_i", "bs_h"}


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


@pytest.mark.parametrize("asset_rows", [None, "2017-01-02,-1\n"], ids=["asset-read", "asset-bad"])
def test_cmd_experiment_reads_the_asset_series_once(tmp_path, monkeypatch, asset_rows):
    import shutil

    from quanto_bayes import cli

    root = str(tmp_path)
    cfg = load_config(make_workspace(tmp_path, families="tnn, mle", draws=600, burn_in=100,
                                     n_paths=500, windows="250, 300"))
    asset = os.path.join(root, "asset.csv")
    if asset_rows is not None:
        with open(asset, "w", encoding="utf-8") as f:
            f.write("date,price\n" + asset_rows)
    shutil.copy(os.path.join(root, "fx.csv"), os.path.join(root, "gbp.csv"))
    fx_series = tuple(os.path.join(root, f"{name}.csv") for name in ("fx", "gbp"))
    loads = []
    real = cli.load_price_series
    monkeypatch.setattr(cli, "load_price_series",
                        lambda path: loads.append(os.path.basename(path)) or real(path))
    both = cfg._replace(fx_series=fx_series, out_dir=os.path.join(root, "both"))
    cmd_experiment(both)
    assert sorted(loads) == (["asset.csv"] if asset_rows else ["asset.csv", "fx.csv", "gbp.csv"])
    # each fx series on its own, which reads the asset series for itself,
    # writes the same cell files and the same table rows
    tables = ("failures.csv", "pricing_performance.csv", "pricing_curves.csv")
    rows = {name: [] for name in tables}
    cell_files = []
    for path in fx_series:
        one = cfg._replace(fx_series=(path,), out_dir=os.path.join(root, cli._stem(path)))
        cmd_experiment(one)
        for file in _files_under(os.path.join(one.out_dir, "cells")):
            cell_files.append(file[len(one.out_dir):])
            with open(file, "rb") as f, open(both.out_dir + cell_files[-1], "rb") as g:
                assert f.read() == g.read(), file
        for name in tables:
            with open(os.path.join(one.out_dir, name), encoding="utf-8") as f:
                rows[name] += f.read().splitlines()[1:]
    assert len(cell_files) == (0 if asset_rows else 2 * 2 * 3)  # fx x window x file
    assert [file[len(both.out_dir):] for file in _files_under(both.out_dir)
            if file[len(both.out_dir):].startswith("/cells/")] == sorted(cell_files)
    for name in tables:
        with open(os.path.join(both.out_dir, name), encoding="utf-8") as f:
            assert f.read().splitlines()[1:] == rows[name], name
    if asset_rows:
        bad = f"{asset}: row 2: non-positive price -1.0"
        assert rows["failures.csv"] == [f"{fx},{w},*,panel,{bad}" for fx in ("fx", "gbp")
                                        for w in (250, 300)]


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
    monkeypatch.setattr(cli, "_density_bins", _counting(calls, "density", cli._density_bins))
    assert cmd_experiment(cfg) == []
    for window in (200, 250):
        for family in ("tnn", "mnc"):
            rows = _read_csv(os.path.join(cfg.out_dir, "cells", "fx", f"w{window}",
                                          f"pricing_{family}.csv"))
            assert len(rows) == 5
    # BS-I solves once per maturity, not once per quote or per chain
    assert calls["implied_vol"] == 1
    # once per window: its check, which tnn's initial value, the mle summary
    # row and BS-H then share
    assert calls["mle_estimate"] == 2
    # experiment writes no predictive-density file, so bins no density
    assert "density" not in calls
    # while price bins one per retained quote
    cmd_price(cfg, os.path.join(cfg.out_dir, "cells", "fx", "w200", "draws_tnn.csv"))
    assert calls["density"] == 5


@pytest.mark.parametrize("command, windows", [(cmd_estimate, 1), (cmd_experiment, 2)],
                         ids=["estimate", "experiment"])
def test_each_window_computes_its_mle_once(tmp_path, monkeypatch, command, windows):
    """The MwG families' proposals reuse the window's MLE rather than
    computing their own; calls through inference's name and cli's count."""
    from quanto_bayes import cli, inference

    cfg = load_config(make_workspace(tmp_path, windows="200, 250", draws=600, burn_in=100,
                                     n_paths=500, families="ttn, tnn, ign, mnc, mle"))
    inference._native()  # a first build's self-check makes its own MLE
    calls = {}
    counted = _counting(calls, "mle_estimate", inference.mle_estimate)
    monkeypatch.setattr(inference, "mle_estimate", counted)
    monkeypatch.setattr(cli, "mle_estimate", counted)
    command(cfg)
    assert calls["mle_estimate"] == windows


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

    # a seed outside [0, 2**32 - 1], in the config or from --seed: such seeds
    # once aliased the seed 2**32 apart
    for value in ("-1", "4294967296"):
        root = tmp_path / f"bad_seed_{value}"
        root.mkdir()
        bad_cfg = make_workspace(root, families="mnc", seed=value)
        capsys.readouterr()
        assert main(["estimate", "--config", bad_cfg]) == 1, value
        assert capsys.readouterr().err == (
            f"error: {bad_cfg}: seed must lie in [0, 2**32 - 1], got {value}\n")
    for value in ("4294967303", "-4294967289"):
        capsys.readouterr()
        assert main(["estimate", "--config", cfg_path, f"--seed={value}"]) == 1, value
        assert capsys.readouterr().err == (
            f"error: --seed: seed must lie in [0, 2**32 - 1], got {value}\n")

    # values that parse but that a constructor of the run rejects: each exits 1
    # naming its key even when no family that reads it is configured
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
    for key, value in (("periods_per_year", "0"), ("vol_scale_multiplier", "0"),
                       ("h_fix", "0"), ("rho_step", "0"), ("tt_df", "1"), ("ig_shape", "1"),
                       ("ig_shape", "-1"),
                       ("mnc_df", "1"), ("mnc_kappa", "0"), ("mnc_scale", "-1"),
                       ("mnc_scale", "inf"),
                       ("refresh_interval", "0"), ("r_d_annual", "nan"), ("h_fix", "nan"),
                       ("tt_df", "nan"), ("mnc_kappa", "nan"), ("mnc_df", "nan"),
                       ("tt_df", "inf"), ("mnc_df", "inf"), ("mnc_kappa", "inf"),
                       ("mnc_scale", "1e300"), ("h_fix", "inf"), ("rho_step", "nan"),
                       ("rho_step", "inf"), ("vol_scale_multiplier", "1.4e154"),
                       ("vol_scale_multiplier", "5e-324")):
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
            if (key, value) == ("ig_shape", "-1"):
                assert err.endswith(": inverse_gamma needs shape > 2\n"), err
            if key == "rho_step":
                assert err.endswith(
                    f": rho needs a positive finite random-walk step, got {float(value)!r}\n"), err
            # a multiplier is refused by name, not with the text of Python's
            # OverflowError or ZeroDivisionError from its square
            if key == "vol_scale_multiplier":
                assert "out of range" not in err and "division by zero" not in err, err
                assert err.endswith({
                    "0": ": scale_multiplier must be positive and finite, got 0.0\n",
                    "1.4e154": ": scale_multiplier**2 over- or underflows the inverse-gamma "
                               "shape 2 + T / (4 * scale_multiplier**2), got 1.4e+154\n",
                    "5e-324": ": scale must be positive, got 0.0\n"}[value]), err

    # values that parse but repeat an entry, or leave too few returns or draws
    # to estimate from
    for case, (overrides, text) in enumerate((
        ({"families": "tnn, tnn, mle"}, "families lists 'tnn' more than once"),
        ({"families": ""},
         "families must list at least one of ('ttn', 'tnn', 'ign', 'mnc', 'mle')"),
        ({"windows": "250, 140, 250"}, "windows lists 250 more than once"),
        ({"windows": "250, 2"}, "windows must be integers >= 3, got (250, 2)"),
        ({"draws": 105, "burn_in": 100},
         "need burn_in >= 0 and draws - burn_in >= 10, got draws=105 burn_in=100"),
        ({"n_paths": 0}, "n_paths must be positive, got 0"),
        ({"refresh_draws": 100, "refresh_burn_in": 100},
         "need refresh_draws > refresh_burn_in >= 0"),
    )):
        root = tmp_path / f"short_{case}"
        root.mkdir()
        bad_cfg = make_workspace(root, **overrides)
        for command in ("estimate", "experiment"):
            capsys.readouterr()
            assert main([command, "--config", bad_cfg]) == 1, (overrides, command)
            assert capsys.readouterr().err == f"error: {bad_cfg}: {text}\n"
    # an empty --families flag overrides the config's families with none
    assert main(["estimate", "--config", cfg_path, "--families", ""]) == 1
    assert capsys.readouterr().err.startswith("error: --families: families must list ")
    # and an empty --out names the flag instead of falling back to the config's out_dir
    ten_draws = os.path.join(str(tmp_path), "ten_draws.csv")
    with open(ten_draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n" + "0.006,0.004,0.1\n" * 10)
    for argv in (["estimate", "--families", "mle"], ["experiment", "--families", "mle"],
                 ["price", "--draws", ten_draws, "--paths", "3"],
                 ["diagnose", "--draws", ten_draws]):
        capsys.readouterr()
        assert main([*argv, "--config", cfg_path, "--out", ""]) == 1, argv
        assert capsys.readouterr().err == "error: --out must name an output directory, got ''\n"

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
    with pytest.raises(InputError, match=r"draws.csv: malformed draws file: row 4: not three "
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


def test_load_draws_reads_its_file_once(tmp_path, monkeypatch):
    import builtins

    from quanto_bayes import cli

    path = tmp_path / "draws.csv"
    path.write_text("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n0.0061,0.0041,-0.2\n",
                    encoding="utf-8")
    calls = {}
    monkeypatch.setattr(cli, "read_text", _counting(calls, "read_text", cli.read_text))
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs:
                        opened.append(file) or real_open(file, *args, **kwargs))
    assert cli._load_draws(str(path)).draws.shape == (2, 3)
    assert calls == {"read_text": 1}
    assert opened.count(str(path)) == 1


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
    with pytest.raises(InputError, match=r"draws.csv: row 1: not UTF-8 text$"):
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
    # the workspace's quote date, 2018-03-23, in forms only some Pythons read
    (("20180323", 2500.0, 51, 10.0), "invalid ISO date '20180323'"),
    (("2018-W12-5", 2500.0, 51, 10.0), "invalid ISO date '2018-W12-5'"),
    # numbers that float reads but that are not ASCII decimals
    (("2_500.0", 51, 10.0), "non-numeric strike '2_500.0'"),
    ((2500.0, 51, "\u0661\u0660"), "non-numeric price '\u0661\u0660'"),
], ids=["nan-strike", "inf-price", "fractional-maturity", "oversized-cell",
        "basic-format-date", "week-date", "underscore-strike", "arabic-indic-price"])
def test_main_malformed_option_chain_exits_one(tmp_path, capsys, command, bad_quote, text):
    quote_date, *bad_quote = bad_quote if len(bad_quote) == 4 else (None, *bad_quote)
    cfg_path = make_workspace(tmp_path, chain_prices=[(2500.0, 51, 10.0), bad_quote])
    chain = os.path.join(str(tmp_path), "chain.csv")
    if quote_date is not None:
        with open(chain, encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        lines[2] = quote_date + lines[2][lines[2].index(","):]
        with open(chain, "w", encoding="utf-8") as f:
            f.writelines(lines)
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
@pytest.mark.parametrize("key, value", [
    ("r_d_annual", -1e6), ("r_f_annual", -1e6), ("r_d_annual", -1985.0), ("h_fix", 1e306),
], ids=["r_d_annual", "r_f_annual", "r_d_annual-quanto", "h_fix-quanto"])
def test_main_rate_whose_discount_overflows_exits_one(tmp_path, capsys, command, key, value):
    # At -1e6, exp(-r * 51) overflows, which every quote's band or model
    # price needs. The other two cases leave it finite, but overflow the
    # quanto value h_fix * exp((r_f - r_d) * s) * spot of a 90-day quote.
    quanto = value != -1e6
    cfg_path = make_workspace(tmp_path, chain_prices=[(2600.0, 90, 100.0)] if quanto else None,
                              **{key: value})
    chain = os.path.join(str(tmp_path), "chain.csv")
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    if quanto:
        given = {"r_d_annual": 0.015, "r_f_annual": 0.025, "h_fix": 1.0, key: value}
        expected = (f"r_d_annual = {given['r_d_annual']!r}, r_f_annual = "
                    f"{given['r_f_annual']!r} and h_fix = {given['h_fix']!r} overflow the "
                    f"quanto value h_fix * exp((r_f - r_d) * s) * spot of {chain}'s quote at "
                    f"strike 2600.0, maturity_days 90")
    else:
        expected = (f"invalid {key} = -1000000.0: its discount factor overflows at the "
                    f"longest maturity, 51 days, of {chain}")
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("command", ["price", "experiment"])
def test_quote_whose_moneyness_underflows_prices(tmp_path, capsys, command):
    # spot / strike = 1e-300 / 1e30 underflows to 0, so BS-H needs log(S) -
    # log(K); K / x0 overflows, so no simulated path is in the money. The
    # quote passes the no-arbitrage filter: 0 lies in [0, spot).
    cfg_path = make_workspace(tmp_path)
    with open(os.path.join(str(tmp_path), "chain.csv"), "a", encoding="utf-8") as f:
        f.write("2018-03-23,1e30,51,0,1e-300\n")
    argv = [command, "--config", cfg_path]
    out = os.path.join(str(tmp_path), "out")
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
        tables = [os.path.join(out, "pricing.csv")]
    else:
        tables = [os.path.join(out, "cells", "fx", "w250", "pricing_tnn.csv")]
    capsys.readouterr()
    assert main(argv) == 0
    if command == "experiment":
        assert len(_read_csv(os.path.join(out, "failures.csv"))) == 0
    for table in tables:
        rows = _read_csv(table)
        assert len(rows) == 6, table
        row, = [r for r in rows if float(r["strike"]) == 1e30]
        assert math.isfinite(float(row["bs_h_price"])) and float(row["bs_h_price"]) >= 0.0
        assert float(row["model_price"]) == 0.0
        assert float(row["mc_std_error"]) == 0.0
        assert (row["hpdi99_lo"], row["hpdi99_hi"]) == ("0", "0")
        # the quote no longer fails its maturity's BS-I
        assert all(r["bs_i_price"] != "NA" for r in rows), table


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
    assert series.days.tolist() == before[0].days.tolist()
    assert series.prices.tolist() == before[0].prices.tolist()
    assert quotes == before[1]


def _drop_keys(cfg_path, keys):
    """Remove the lines that set ``keys`` from a config file."""
    with open(cfg_path, encoding="utf-8") as f:
        lines = [line for line in f if line.partition("=")[0].strip() not in keys]
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.writelines(lines)


@pytest.mark.parametrize("argv, dropped, settings, text", [
    (["estimate", "--seed", "4294967303"], (), {},
     "--seed: seed must lie in [0, 2**32 - 1], got 4294967303"),
    (["price", "--draws", "{draws}", "--paths", "0"], (), {},
     "--paths: n_paths must be positive, got 0"),
    (["experiment", "--families", ""], (), {},
     "--families: families must list at least one of ('ttn', 'tnn', 'ign', 'mnc', 'mle')"),
    (["experiment"], ("asset_series",), {}, "config needs asset_series"),
    (["estimate"], ("asset_series",), {}, "config needs asset_series"),
    (["estimate"], ("fx_series",), {}, "config needs at least one fx_series entry"),
    (["price", "--draws", "{draws}"], ("option_chain",), {}, "config needs option_chain"),
    (["diagnose", "--draws", "{missing}"], (), {}, "input files not found: [{missing!r}]"),
    (["experiment", "--paths", "5"], (), {"n_paths": 0},
     "{config}: n_paths must be positive, got 0"),
], ids=["seed-flag", "paths-flag", "families-flag", "experiment-no-asset", "estimate-no-asset",
        "estimate-no-fx", "price-no-chain", "diagnose-missing-draws",
        "config-under-flag"])
def test_refused_run_writes_nothing(tmp_path, capsys, argv, dropped, settings, text):
    # every check of the config, the flags and the input files comes before
    # the manifest, so a refused run leaves no output directory behind
    cfg_path = make_workspace(tmp_path, **settings)
    _drop_keys(cfg_path, dropped)
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n" + "0.006,0.004,0.1\n" * 10)
    names = {"draws": draws, "missing": os.path.join(str(tmp_path), "none.csv"),
             "config": cfg_path}
    out = os.path.join(str(tmp_path), "refused")
    argv = [arg.format(**names) for arg in argv] + ["--config", cfg_path, "--out", out]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {text.format(**names)}\n"
    assert not os.path.exists(out)
    assert not os.path.exists(os.path.join(str(tmp_path), "out"))


@pytest.mark.parametrize("argv, via_key, below", [
    (["estimate", "--families", "mle"], False, False),
    (["price", "--draws", "{draws}", "--paths", "3"], False, False),
    (["experiment", "--families", "mle"], False, False),
    (["diagnose", "--draws", "{draws}"], False, False),
    (["estimate", "--families", "mle"], True, False),
    (["estimate", "--families", "mle"], False, True),
], ids=["estimate", "price", "experiment", "diagnose", "out_dir-key", "below-a-file"])
def test_output_directory_naming_a_file_exits_one(tmp_path, capsys, argv, via_key, below):
    # a regular file where the output directory (or one of its parents)
    # should be is refused before the manifest, and left as it was
    afile = os.path.join(str(tmp_path), "afile")
    with open(afile, "wb") as f:
        f.write(b"keep me\n")
    out = os.path.join(afile, "sub") if below else afile
    cfg_path = make_workspace(tmp_path, **({"out_dir": out} if via_key else {}))
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n" + "0.006,0.004,0.1\n" * 10)
    argv = [arg.format(draws=draws) for arg in argv] + ["--config", cfg_path]
    if not via_key:
        argv += ["--out", out]
    source = f"{cfg_path}: out_dir" if via_key else "--out"
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {source}: {afile} exists and is not a directory\n"
    with open(afile, "rb") as f:
        assert f.read() == b"keep me\n"
    assert sorted(os.listdir(str(tmp_path))) == sorted(
        ["afile", "asset.csv", "chain.csv", "draws.csv", "fx.csv", "run.cfg"])


@pytest.mark.parametrize("parts", [("cells",), ("cells", "fx"), ("cells", "fx", "w{window}")],
                         ids=["cells", "fx", "window"])
@pytest.mark.parametrize("via_key", [False, True], ids=["out", "out_dir-key"])
def test_experiment_refuses_a_file_where_a_cell_directory_goes(tmp_path, capsys, parts,
                                                               via_key):
    # experiment writes below out_dir, into cells/<fx stem>/w<window>; a regular
    # file on that path is refused before the manifest, and left as it was
    out = os.path.join(str(tmp_path), "out")
    cfg_path = make_workspace(tmp_path, **({"out_dir": out} if via_key else {}))
    window = load_config(cfg_path).windows[0]
    afile = os.path.join(out, *(part.format(window=window) for part in parts))
    os.makedirs(os.path.dirname(afile))
    with open(afile, "wb") as f:
        f.write(b"keep me\n")
    argv = ["experiment", "--families", "mle", "--config", cfg_path]
    if not via_key:
        argv += ["--out", out]
    source = f"{cfg_path}: out_dir" if via_key else "--out"
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {source}: {afile} exists and is not a directory\n"
    with open(afile, "rb") as f:
        assert f.read() == b"keep me\n"
    written = [os.path.join(root, name) for root, _, names in os.walk(out) for name in names]
    assert written == [afile]


def test_a_directory_at_an_output_file_path_leaves_no_temporary_file(tmp_path, capsys):
    # no input is malformed, so the failed rename is a runtime failure, exit 2
    out = os.path.join(str(tmp_path), "out")
    target = os.path.join(out, "estimate_summary.csv")
    os.makedirs(target)
    cfg_path = make_workspace(tmp_path)
    capsys.readouterr()
    assert main(["estimate", "--families", "mle", "--config", cfg_path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("runtime failure: ")
    assert sorted(os.listdir(out)) == ["estimate_summary.csv", "manifest.txt"]
    assert os.path.isdir(target) and os.listdir(target) == []


def test_write_lines_removes_its_temporary_file_when_the_lines_fail(tmp_path):
    from quanto_bayes.cli import _write_lines

    path = os.path.join(str(tmp_path), "t.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("kept\n")

    def lines():
        yield b"1\n"
        raise ArithmeticError("no more lines")

    with pytest.raises(ArithmeticError, match="no more lines"):
        _write_lines(path, ("a",), lines())
    assert os.listdir(str(tmp_path)) == ["t.csv"]
    with open(path, encoding="utf-8") as f:
        assert f.read() == "kept\n"


@pytest.mark.parametrize("command, name", [
    ("estimate", "asset"), ("estimate", "fx"), ("price", "fx"), ("price", "chain"),
    ("experiment", "chain"),
])
def test_header_only_input_exits_one(tmp_path, capsys, command, name):
    cfg_path = make_workspace(tmp_path)
    path = os.path.join(str(tmp_path), f"{name}.csv")
    with open(path, encoding="utf-8") as f:
        header = f.readline()
    with open(path, "w", encoding="utf-8") as f:
        f.write(header)
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: no data rows\n"


@pytest.mark.parametrize("command", ["price", "experiment"])
def test_chain_without_a_quote_inside_the_band_exits_one(tmp_path, capsys, command):
    # one quote below the lower bound S - K*exp(-r_f*s), one at or above the spot
    cfg_path = make_workspace(tmp_path, chain_prices=[(1.0, 51, 0.0), (2500.0, 51, 1e9)])
    argv = [command, "--config", cfg_path]
    if command == "price":
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv += ["--draws", draws]
    capsys.readouterr()
    assert main(argv) == 1
    chain = os.path.join(str(tmp_path), "chain.csv")
    assert capsys.readouterr().err == (
        f"error: {chain}: no quote lies inside the no-arbitrage band\n")


def test_quanto_value_that_raises_overflow_exits_one(tmp_path, capsys):
    # exp((r_f - r_d) * s) overflows to an OverflowError, where
    # test_main_rate_whose_discount_overflows_exits_one's cases give inf
    cfg_path = make_workspace(tmp_path, r_d_annual=-1986.6, r_f_annual=1.4)
    chain = os.path.join(str(tmp_path), "chain.csv")
    with open(chain, "w", encoding="utf-8") as f:
        f.write("quote_date,strike,maturity_days,price,spot\n2018-10-31,300,90,0.01,100\n")
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
    capsys.readouterr()
    assert main(["price", "--config", cfg_path, "--draws", draws]) == 1
    assert capsys.readouterr().err == (
        f"error: r_d_annual = -1986.6, r_f_annual = 1.4 and h_fix = 1.0 overflow the quanto "
        f"value h_fix * exp((r_f - r_d) * s) * spot of {chain}'s quote at strike 300.0, "
        f"maturity_days 90\n")


def test_main_unexpected_error_exits_two(tmp_path, capsys, monkeypatch):
    from quanto_bayes import cli

    def fail(*args):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(cli, "_sample_family", fail)
    cfg_path = make_workspace(tmp_path)
    capsys.readouterr()
    assert main(["estimate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == "runtime failure: stage failed\n"


def _files_under(root):
    return sorted(os.path.join(d, name) for d, _, names in os.walk(root) for name in names)


def test_estimate_writes_the_same_files_from_non_plain_series(tmp_path):
    # price,date columns, quoted dates and CRLF line ends: the row reader's
    # route, whose series must be the columnar pass's to the last byte out
    from quanto_bayes import data_io

    outputs = {}
    for form in ("shipped", "non-plain"):
        root = tmp_path / form
        root.mkdir()
        paths = {name: os.path.join(FIXTURES, f"{name}_synthetic.csv")
                 for name in ("sp500", "eur_usd")}
        if form == "non-plain":
            for name, shipped in paths.items():
                with open(shipped, encoding="utf-8") as f:
                    _, *rows = f.read().splitlines()
                paths[name] = str(root / os.path.basename(shipped))
                with open(paths[name], "w", encoding="utf-8", newline="") as f:
                    f.write("price,date\r\n" + "".join(
                        f'{price},"{day}"\r\n' for day, price in (r.split(",") for r in rows)))
                assert data_io._plain_series(data_io.read_text(paths[name])) is None
        cfg_path = root / "run.cfg"
        cfg_path.write_text("".join(f"{key} = {value}\n" for key, value in (
            ("asset_series", paths["sp500"]), ("fx_series", paths["eur_usd"]),
            ("option_chain", os.path.join(FIXTURES, "option_chain_synthetic.csv")),
            ("out_dir", "out"), ("families", "mle, mnc"), ("draws", 300), ("burn_in", 100),
            ("windows", 140), ("seed", 7))), encoding="utf-8")
        assert main(["estimate", "--config", str(cfg_path)]) == 0
        out = str(root / "out")
        outputs[form] = {}
        for path in _files_under(out):
            with open(path, "rb") as f:
                lines = f.read().splitlines(keepends=True)
            if os.path.basename(path) == "manifest.txt":
                lines = [line for line in lines
                         if not line.startswith((b"out_dir = ", b"asset_series = ",
                                                 b"fx_series = "))]
            outputs[form][path[len(out):]] = lines
    assert len(outputs["shipped"]) >= 3 and outputs["non-plain"] == outputs["shipped"]


@pytest.mark.parametrize("key, line", [("asset_series", 1), ("option_chain", 3),
                                       ("out_dir", 4)])
def test_empty_path_value_exits_one(tmp_path, capsys, key, line):
    # an empty value once resolved to the config file's own directory
    cfg_path = make_workspace(tmp_path, families="mle", **{key: ""})
    before = _files_under(tmp_path)
    capsys.readouterr()
    assert main(["estimate", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg_path}:{line}: invalid value for {key!r}: ''\n")
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("command, key", [
    ("estimate", "asset_series"), ("experiment", "asset_series"), ("price", "fx_series"),
    ("price", "option_chain"), ("diagnose", "--draws"), ("price", "--draws"),
])
def test_directory_input_exits_one(tmp_path, capsys, command, key):
    folder = os.path.join(str(tmp_path), "folder")
    os.mkdir(folder)
    settings = {} if key == "--draws" else {key: folder}
    cfg_path = make_workspace(tmp_path, families="mle", **settings)
    draws = os.path.join(str(tmp_path), "draws.csv")
    with open(draws, "w", encoding="utf-8") as f:
        f.write("sigma_x,sigma_h,rho\n" + "0.006,0.004,0.1\n" * 10)
    argv = [command, "--config", cfg_path]
    if command in ("price", "diagnose"):
        argv += ["--draws", folder if key == "--draws" else draws]
    before = _files_under(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: input files are directories: {[folder]}\n"
    assert _files_under(tmp_path) == before


def test_directory_config_exits_one(tmp_path, capsys):
    capsys.readouterr()
    assert main(["estimate", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config file is a directory: {tmp_path}\n"
    assert os.listdir(tmp_path) == []


def test_draws_from_a_pipe_are_read(tmp_path):
    # a pipe is neither a regular file nor a directory
    cfg_path = make_workspace(tmp_path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"sigma_x,sigma_h,rho\n" + b"0.006,0.004,0.1\n" * 10)
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        assert main(["diagnose", "--config", cfg_path, "--draws", pipe]) == 0
    finally:
        os.close(read_end)
    assert os.path.exists(os.path.join(str(tmp_path), "out", "diagnose_summary.csv"))


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


@pytest.mark.parametrize("argv", [["estimate", "--families", "mle"],
                                  ["estimate", "--families", "tnn"],
                                  ["estimate", "--families", "mnc"], ["price"], ["experiment"]],
                         ids=["estimate-mle", "estimate-tnn", "estimate-mnc", "price",
                              "experiment"])
def test_window_without_an_mle_is_refused_as_input(tmp_path, capsys, argv):
    # a constant asset series has zero sample variance on every window. A
    # window on which the MLE is undefined is refused for every family, mnc
    # alone too, because BS-H prices with the MLE
    cfg_path = make_workspace(tmp_path, families="mle, mnc", windows="250, 140")
    asset = os.path.join(str(tmp_path), "asset.csv")
    with open(asset, encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    with open(asset, "w", encoding="utf-8") as f:
        f.write(header + "\n" + "".join(r.split(",")[0] + ",100\n" for r in rows))
    fx = os.path.join(str(tmp_path), "fx.csv")
    text = (f"{asset} and {fx}: window {{}}: degenerate data: a return series has zero sample "
            "variance")
    out = os.path.join(str(tmp_path), "out")
    if argv == ["price"]:
        draws = os.path.join(str(tmp_path), "draws.csv")
        with open(draws, "w", encoding="utf-8") as f:
            f.write("sigma_x,sigma_h,rho\n0.006,0.004,0.1\n")
        argv = ["price", "--draws", draws]
    capsys.readouterr()
    if argv == ["experiment"]:
        assert main([*argv, "--config", cfg_path]) == 0
        # one panel row per window, and no family's row
        assert [tuple(r.values()) for r in _read_csv(os.path.join(out, "failures.csv"))] == [
            ("fx", str(w), "*", "panel", text.format(w)) for w in (250, 140)]
        assert not os.path.exists(os.path.join(out, "cells"))
    else:
        assert main([*argv, "--config", cfg_path]) == 1
        assert capsys.readouterr().err == f"error: {text.format(250)}\n"
        # the manifest is written first, as for a window longer than the series
        assert os.listdir(out) == ["manifest.txt"]


def _extreme_rate_config(tmp_path, r_d_annual, windows=140, n_paths=20, refresh_interval=10):
    """A sequential tnn run on the shipped fixtures at an extreme domestic rate."""
    cfg_path = os.path.join(str(tmp_path), "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        for key, value in (("asset_series", os.path.join(FIXTURES, "sp500_synthetic.csv")),
                           ("fx_series", os.path.join(FIXTURES, "eur_usd_synthetic.csv")),
                           ("option_chain", os.path.join(FIXTURES, "option_chain_synthetic.csv")),
                           ("out_dir", "out"), ("families", "tnn"), ("draws", 400),
                           ("burn_in", 100), ("windows", windows), ("n_paths", n_paths),
                           ("mode", "sequential-update"), ("refresh_interval", refresh_interval),
                           ("r_d_annual", r_d_annual)):
            f.write(f"{key} = {value}\n")
    return cfg_path


@pytest.mark.parametrize("r_d_annual, refresh_interval, text", [
    # the 90-day paths overflow, and exp(-r_d*s) = 0 turns their payoffs into
    # NaN; refreshing every 10 days instead, the refresh after day 80 would
    # meet a sample correlation within 1e-6 of +-1 in 1 - rho^2 first
    ("1e4", 20, re.escape("F3 at strike 2388.5, maturity 90 days: a simulated payoff is not "
                          "finite")),
    # the refresh after day 20 is refused before any draw; without that
    # refusal it ran on, and the one after day 30 met a scale that overflows.
    # experiment and price simulate from different seeds, so their paths'
    # sample correlations differ
    ("1e8", 10, r"sequential refresh after day 20: sample correlation -?0\.99999\d* lies too "
                r"close to \+-1 for exact draws: 1 - rho\^2 = \d(\.\d+)?e-0\d < 1e-06"),
], ids=["payoff-overflow", "refresh-overflow"])
def test_sequential_pricing_failure_names_the_quote_or_the_refresh(tmp_path, capsys, r_d_annual,
                                                                   refresh_interval, text):
    # ``text`` is a pattern of the failure's whole message
    cfg_path = _extreme_rate_config(tmp_path, r_d_annual, refresh_interval=refresh_interval)
    out = os.path.join(str(tmp_path), "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # refused with no numpy warning
        assert main(["experiment", "--config", cfg_path]) == 0
        [row] = [tuple(r.values()) for r in _read_csv(os.path.join(out, "failures.csv"))]
        assert row[:4] == ("eur_usd_synthetic", "140", "tnn", "price")
        assert re.fullmatch(text, row[4]), row[4]
        assert not os.path.exists(os.path.join(out, "cells", "eur_usd_synthetic", "w140",
                                               "pricing_tnn.csv"))
        draws = os.path.join(out, "cells", "eur_usd_synthetic", "w140", "draws_tnn.csv")
        capsys.readouterr()
        # a runtime failure, exit 2, as every pricing refusal of price is today
        assert main(["price", "--config", cfg_path, "--draws", draws]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"runtime failure: {text}\n", err), err


@pytest.mark.parametrize("windows, n_paths, refresh_interval, status, err", [
    # the refresh after day 80 meets a sample correlation whose 1 - rho^2 is
    # near 3e-11, where the exact sampler once spun for seconds
    (140, 200, 10, 2, r"runtime failure: sequential refresh after day 80: sample correlation "
                      r"-?0\.99999\d* lies too close to \+-1 for exact draws: "
                      r"1 - rho\^2 = \S+ < 1e-06\n"),
    # every request is F3, which reads no exchange rate, so none overflows
    (1840, 50, 10, 0, ""),
    # the 90-day asset paths overflow, and the quote is refused without
    # numpy's overflow and invalid-value warnings
    (140, 20, 20, 2, re.escape("runtime failure: F3 at strike 2388.5, maturity 90 days: a "
                               "simulated payoff is not finite\n")),
], ids=["near-unit-correlation", "f3-only-overflowing-fx", "payoff-overflow"])
def test_extreme_rate_sequential_price_ends_in_time_without_warnings(tmp_path, windows, n_paths,
                                                                     refresh_interval, status,
                                                                     err):
    # price runs in a fresh interpreter with numpy's RuntimeWarning raised as
    # an error and a time limit, so a hang fails this test and does not stall
    # the suite
    cfg_path = _extreme_rate_config(tmp_path, "1e4", windows=windows, n_paths=n_paths,
                                    refresh_interval=refresh_interval)
    assert main(["estimate", "--config", cfg_path]) == 0
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "quanto_bayes.cli", "price",
         "--config", cfg_path, "--draws", os.path.join(str(tmp_path), "out", "draws_tnn.csv"),
         "--out", os.path.join(str(tmp_path), "price")],
        env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == status, run.stderr
    assert re.fullmatch(err, run.stderr), run.stderr


@pytest.mark.parametrize("command", ["estimate", "price"])
@pytest.mark.parametrize("bad_row, text", [
    ((None, "-1"), "row 6: non-positive price -1.0"),
    ((None, "1e400"), "row 6: non-finite price inf"),
    ((None, "n/a"), "row 6: non-numeric price 'n/a'"),
    ((None, "1" * 200_000), "row 6: field larger than field limit (131072)"),
    # the row's own date, 2017-01-06, in forms only some Pythons read
    (("20170106", None), "row 6: invalid ISO date '20170106'"),
    (("2017-W01-5", None), "row 6: invalid ISO date '2017-W01-5'"),
    # numbers that float reads but that are not ASCII decimals
    ((None, "2_000.5"), "row 6: non-numeric price '2_000.5'"),
    ((None, "\u0661\u0662"), "row 6: non-numeric price '\u0661\u0662'"),
    # the right form, but no such day
    (("2017-02-30", None), "row 6: invalid ISO date '2017-02-30'"),
], ids=["negative", "infinite", "non-numeric", "oversized-cell", "basic-format-date", "week-date",
        "underscore", "arabic-indic-digits", "impossible-day"])
def test_main_malformed_price_series_exits_one(tmp_path, capsys, command, bad_row, text):
    cfg_path = make_workspace(tmp_path)
    fx = os.path.join(str(tmp_path), "fx.csv")
    with open(fx, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    day, price = lines[5].rstrip("\n").split(",")
    bad_day, bad_price = bad_row
    lines[5] = f"{bad_day or day},{bad_price or price}\n"
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


def test_estimate_runs_on_numpy_alone(tmp_path):
    # the README's "runtime dependency: numpy only": from outside the checkout,
    # with only src/ on the path, an estimate run loads no test dependency and
    # no test module
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    cfg = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "fixtures",
                                       "default.cfg"))
    code = (
        "import json, sys\n"
        "import quanto_bayes\n"
        "from quanto_bayes import cli\n"
        "cfg, out = sys.argv[1:]\n"
        "status = cli.main(['estimate', '--config', cfg, '--families', 'mle', '--out', out])\n"
        "banned = {'scipy', 'pytest', 'hypothesis', 'mpmath', 'oracles', 'conftest'}\n"
        "print(json.dumps({'status': status, 'file': quanto_bayes.__file__,\n"
        "                  'loaded': sorted(m for m in sys.modules\n"
        "                                   if m.partition('.')[0] in banned)}))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "est")],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=300)
    record = json.loads(run.stdout)
    assert record["status"] == 0, run.stderr
    assert record["loaded"] == []
    assert os.path.samefile(os.path.dirname(os.path.dirname(record["file"])), src)
    assert os.path.exists(tmp_path / "est" / "estimate_summary.csv")


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
    # the flag wins over the config's seed = 7
    with open(os.path.join(str(tmp_path), "out", "manifest.txt"), encoding="utf-8") as f:
        assert "seed = 3" in f.read().splitlines()


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
