import math

import numpy as np
import pytest

from quanto_bayes.diagnostics import ChainSummary, geweke_cd, hpdi, nse, summarize
from quanto_bayes.inference import (
    PARAMETERS, Chain, NiwHyperparams, conjugate_sample, default_proposals, mle_estimate,
    mwg_sample,
)

from conftest import fixture_panel
from oracles import reference_summarize


def _hpdi_bruteforce(samples, level):
    """Exhaustive scan over every window of ceil(level*n) sorted draws."""
    ordered = sorted(float(v) for v in samples)
    n = len(ordered)
    m = math.ceil(level * n)
    best = None
    for i in range(n - m + 1):
        width = ordered[i + m - 1] - ordered[i]
        if best is None or width < best[0]:
            best = (width, ordered[i], ordered[i + m - 1])
    return best[1], best[2]


# ---------------------------------------------------------------------------
# nse
# ---------------------------------------------------------------------------

def test_nse_iid_normal():
    rng = np.random.default_rng(123)
    x = rng.standard_normal(100_000)
    assert nse(x) == pytest.approx(1.0 / math.sqrt(100_000), rel=0.15)


def test_nse_constant_sequence_is_zero():
    assert nse(np.full(500, 3.25)) == 0.0


def test_nse_ar1_matches_analytic_long_run_variance():
    phi = 0.9
    n = 100_000
    rng = np.random.default_rng(11)
    eps = rng.standard_normal(n) * math.sqrt(1 - phi * phi)
    y = np.empty(n)
    y[0] = rng.standard_normal()
    for t in range(1, n):
        y[t] = phi * y[t - 1] + eps[t]
    target = math.sqrt((1 + phi) / (1 - phi)) * y.std() / math.sqrt(n)
    assert nse(y) == pytest.approx(target, rel=0.20)


def test_nse_affine_equivariance():
    rng = np.random.default_rng(21)
    s = rng.standard_normal(5000)
    base = nse(s)
    assert nse(2.5 * s + 7.0) == pytest.approx(2.5 * base, rel=1e-12)
    assert nse(-0.3 * s - 1.0) == pytest.approx(0.3 * base, rel=1e-12)
    assert nse(s + 100.0) == pytest.approx(base, rel=1e-12)


def test_nse_minimum_length():
    with pytest.raises(ValueError, match="at least 100"):
        nse(np.zeros(99))


# ---------------------------------------------------------------------------
# geweke_cd
# ---------------------------------------------------------------------------

def test_geweke_cd_covers_stationary_sequences():
    rng = np.random.default_rng(2024)
    inside = 0
    for _ in range(1000):
        if abs(geweke_cd(rng.standard_normal(10_000))) < 1.96:
            inside += 1
    assert inside >= 930


def test_geweke_cd_flags_deterministic_trend():
    assert abs(geweke_cd(np.arange(10_000, dtype=float))) > 10.0


def test_geweke_cd_constant_sequence_not_available():
    assert geweke_cd(np.full(1000, 1.23)) is None


def test_geweke_cd_affine_invariance():
    rng = np.random.default_rng(31)
    s = rng.standard_normal(5000)
    base = geweke_cd(s)
    assert geweke_cd(4.0 * s + 3.0) == pytest.approx(base, abs=1e-10)
    assert geweke_cd(-s) == pytest.approx(-base, abs=1e-10)


@pytest.mark.parametrize("n, head, tail", [(2000, 200, 1000), (1239, 123, 619)])
def test_geweke_cd_compares_the_first_tenth_with_the_last_half(n, head, tail):
    # a drifting deterministic sequence, so that every other choice of
    # segments gives another value; the segments are sliced here by hand
    i = np.arange(n, dtype=float)
    s = np.sin(0.37 * i) + (i / n) ** 2
    first, last = s[:head], s[n - tail:]
    expected = (first.mean() - last.mean()) / math.hypot(nse(first), nse(last))
    assert geweke_cd(s) == pytest.approx(expected, rel=1e-12)


def test_geweke_cd_minimum_length():
    with pytest.raises(ValueError):
        geweke_cd(np.zeros(50))


# ---------------------------------------------------------------------------
# hpdi
# ---------------------------------------------------------------------------

def test_hpdi_uniform_grid():
    lo, hi = hpdi(np.arange(1.0, 101.0), 0.95)
    assert (lo, hi) == (1.0, 95.0)
    assert hi - lo == 94.0


def test_hpdi_normal_sample_matches_central_interval():
    rng = np.random.default_rng(41)
    s = rng.standard_normal(100_000)
    lo, hi = hpdi(s, 0.95)
    assert lo == pytest.approx(-1.96, rel=0.05)
    assert hi == pytest.approx(1.96, rel=0.05)


def test_hpdi_matches_bruteforce_oracle():
    rng = np.random.default_rng(51)
    for i in range(100):
        kind = i % 3
        if kind == 0:
            s = rng.standard_normal(1000)
        elif kind == 1:
            s = rng.exponential(2.0, size=1000)
        else:
            s = rng.integers(0, 40, size=1000).astype(float)  # heavy ties
        level = float(rng.uniform(0.5, 0.99))
        assert hpdi(s, level) == _hpdi_bruteforce(s, level)


def test_hpdi_width_nondecreasing_in_level():
    rng = np.random.default_rng(61)
    s = rng.standard_normal(2000)
    widths = []
    for level in (0.5, 0.8, 0.9, 0.95, 0.99):
        lo, hi = hpdi(s, level)
        widths.append(hi - lo)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_hpdi_validation():
    with pytest.raises(ValueError):
        hpdi(np.zeros(5), 0.9)
    with pytest.raises(ValueError):
        hpdi(np.zeros(100), 1.0)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def _chain_from(draws, burn_in=0, counts=(1, 1, 1)):
    return Chain(
        draws=np.asarray(draws, dtype=float),
        burn_in=burn_in,
        acceptance_counts=np.asarray(counts, dtype=int),
    )


def test_summarize_constant_chain():
    # dyadic constants keep the arithmetic exact
    draws = np.tile([0.5, 0.25, -0.25], (200, 1))
    chain = _chain_from(draws, burn_in=50, counts=(200, 200, 200))
    s = summarize(chain)["sigma_x"]
    assert isinstance(s, ChainSummary)
    assert s.mean == 0.5
    assert s.std_dev == 0.0
    assert s.nse == 0.0
    assert s.cd is None
    assert s.hpdi_95 == (0.5, 0.5)
    assert s.acceptance_rate == 1.0


def test_summarize_mean_is_exact_arithmetic_mean():
    rng = np.random.default_rng(71)
    draws = np.column_stack([
        0.006 + 0.0005 * rng.standard_normal(5000),
        0.004 + 0.0004 * rng.standard_normal(5000),
        np.clip(0.1 * rng.standard_normal(5000), -0.99, 0.99),
    ])
    chain = _chain_from(draws, burn_in=1000, counts=(2500, 2500, 2500))
    s = summarize(chain)["rho"]
    assert s.mean == float(np.mean(draws[1000:, 2]))
    assert s.acceptance_rate == 0.5


def test_summarize_tracks_known_target_within_nse():
    rng = np.random.default_rng(81)
    draws = np.column_stack([
        0.006 + 0.0002 * rng.standard_normal(20_000),
        0.004 + 0.0002 * rng.standard_normal(20_000),
        -0.03 + 0.01 * rng.standard_normal(20_000),
    ])
    chain = _chain_from(draws, counts=(20_000,) * 3)
    for name, target in (("sigma_x", 0.006), ("sigma_h", 0.004), ("rho", -0.03)):
        s = summarize(chain)[name]
        assert abs(s.mean - target) < 4.0 * s.nse
        assert s.hpdi_95[0] <= s.mean <= s.hpdi_95[1]


@pytest.mark.parametrize("n", [99, 100])
def test_summarize_reports_nse_and_cd_from_100_draws(n):
    # nse refuses fewer than 100 samples, and summarize gives None below that
    rng = np.random.default_rng(91)
    draws = np.column_stack([0.006 + 0.0005 * rng.standard_normal(n),
                             0.004 + 0.0004 * rng.standard_normal(n),
                             0.1 * rng.standard_normal(n)])
    for name in ("sigma_x", "sigma_h", "rho"):
        s = summarize(_chain_from(draws))[name]
        if n < 100:
            assert s.nse is None and s.cd is None
        else:
            assert s.nse == nse(draws[:, ("sigma_x", "sigma_h", "rho").index(name)])
            assert s.nse > 0.0 and s.cd is not None


# ---------------------------------------------------------------------------
# summarize against the one-parameter oracle, bit for bit
# ---------------------------------------------------------------------------

def _summary_chains():
    panel = fixture_panel(1840)
    mle = mle_estimate(panel)
    rng = np.random.default_rng(5)
    wide = np.column_stack([0.006 + 0.0005 * rng.standard_normal(400),
                            0.004 + 0.0004 * rng.standard_normal(400),
                            0.1 * rng.standard_normal(400)])
    constant = wide.copy()
    constant[:, 1] = 0.25  # dyadic, so its mean is exact and every deviation zero
    return {
        "mwg": mwg_sample(panel, default_proposals("ttn", panel, mle=mle), 6000, 1500,
                          init=mle, seed=3),
        "mnc": conjugate_sample(panel, NiwHyperparams(), 5000, seed=4),
        "constant-column": _chain_from(constant, burn_in=40, counts=(7, 400, 9)),
        **{f"{n}-draws": _chain_from(wide[:n + 5], burn_in=5, counts=(1, 2, 3))
           for n in (10, 99, 100)},
    }


@pytest.mark.parametrize("case", ["mwg", "mnc", "constant-column", "10-draws", "99-draws",
                                  "100-draws"])
def test_summarize_block_matches_the_one_parameter_oracle_bitwise(case):
    chain = _summary_chains()[case]
    got = summarize(chain)
    assert list(got) == list(PARAMETERS)
    for name in PARAMETERS:
        # repr tells every float apart bit for bit, -0.0 from 0.0 included
        assert repr(got[name]) == repr(reference_summarize(chain, name)), name
    if case == "constant-column":
        assert got["sigma_h"].nse == 0.0 and got["sigma_h"].cd is None
        assert got["sigma_x"].cd is not None
    if case in ("10-draws", "99-draws"):
        assert all(s.nse is None and s.cd is None for s in got.values())
