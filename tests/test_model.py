import math
from datetime import date

import mpmath
import numpy as np
import pytest

from quanto_bayes.model import (
    MarketConfig,
    PriceSeries,
    ReturnPanel,
    SpotState,
    Theta,
    log_returns,
    payoff,
    risk_neutral_drifts,
)

from conftest import synth_panel

MARKET = MarketConfig.from_annual(0.015, 0.025, h_fix=1.0, periods_per_year=252)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def test_theta_invariants():
    Theta(0.006, 0.004, -0.03)
    with pytest.raises(ValueError):
        Theta(0.0, 0.004, 0.0)
    with pytest.raises(ValueError):
        Theta(0.006, -0.004, 0.0)
    with pytest.raises(ValueError):
        Theta(0.006, 0.004, 1.0)
    with pytest.raises(ValueError):
        Theta(0.006, 0.004, -1.5)
    with pytest.raises(ValueError):
        Theta(float("nan"), 0.004, 0.0)


def test_market_config_from_annual_divides_rates():
    mk = MarketConfig.from_annual(0.0252, 0.0504, periods_per_year=252)
    assert mk.r_d == pytest.approx(0.0001, rel=1e-15)
    assert mk.r_f == pytest.approx(0.0002, rel=1e-15)
    with pytest.raises(ValueError):
        MarketConfig(0.0001, 0.0001, h_fix=0.0)
    with pytest.raises(ValueError, match="periods_per_year"):
        MarketConfig.from_annual(0.0252, 0.0504, periods_per_year=0)


def test_spot_state_positivity():
    SpotState(2700.0, 0.88)
    with pytest.raises(ValueError):
        SpotState(-1.0, 0.88)
    with pytest.raises(ValueError):
        SpotState(2700.0, 0.0)


def test_price_series_validation():
    days = [date(2018, 1, d).toordinal() for d in (2, 3, 4)]
    ps = PriceSeries(days, [1.0, 2.0, 3.0])
    assert len(ps) == 3
    assert ps.days.tolist() == days
    assert ps.days.dtype == np.int64
    assert not ps.days.flags.writeable
    with pytest.raises(ValueError, match="2018-01-03"):
        PriceSeries(days, [1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match="not strictly increasing"):
        PriceSeries([days[0], days[0], days[2]], [1.0, 2.0, 3.0])


def test_price_series_messages_and_repr_render_days_as_iso_dates():
    days = [date(2018, 1, d).toordinal() for d in (2, 3, 4)]
    assert repr(PriceSeries(days, [1.0, 2.0, 3.0])) == "PriceSeries(3 points, 2018-01-02..2018-01-04)"
    assert repr(PriceSeries([], [])) == "PriceSeries(empty)"
    for order, day in (([0, 0, 2], "2018-01-02"), ([0, 2, 1], "2018-01-03")):
        with pytest.raises(ValueError) as info:
            PriceSeries([days[i] for i in order], [1.0, 2.0, 3.0])
        assert str(info.value) == f"dates not strictly increasing at {day}"
    with pytest.raises(ValueError) as info:
        PriceSeries([[d] for d in days], [1.0, 2.0, 3.0])
    assert str(info.value) == "days must be one-dimensional"


def test_return_panel_caches_match_recomputation():
    panel = synth_panel(747, seed=7)
    x, h = panel.x, panel.h
    assert panel.n_obs == 747
    assert panel.mean_x == pytest.approx(float(np.mean(x)), rel=1e-12)
    assert panel.mean_h == pytest.approx(float(np.mean(h)), rel=1e-12)
    assert panel.sxx == pytest.approx(float(np.sum((x - np.mean(x)) ** 2)), rel=1e-12)
    assert panel.shh == pytest.approx(float(np.sum((h - np.mean(h)) ** 2)), rel=1e-12)
    sxh = float(np.sum(x * h)) - panel.n_obs * panel.mean_x * panel.mean_h
    assert panel.sxh == sxh  # bit for bit: C = -sxh is the kernels' cross term
    two_pass = float(np.sum((x - np.mean(x)) * (h - np.mean(h))))
    assert panel.sxh == pytest.approx(two_pass, rel=1e-9)


def test_return_panel_centered_stats_shift_invariant():
    panel = synth_panel(200, seed=11)
    shifted = ReturnPanel(panel.x + 0.01, panel.h + 0.02)
    assert shifted.sxx == pytest.approx(panel.sxx, rel=1e-9)
    assert shifted.shh == pytest.approx(panel.shh, rel=1e-9)


def test_return_panel_validation():
    with pytest.raises(ValueError):
        ReturnPanel([0.1], [0.2])
    with pytest.raises(ValueError):
        ReturnPanel([0.1, 0.2], [0.2])
    with pytest.raises(ValueError):
        ReturnPanel([0.1, float("inf")], [0.2, 0.3])


def test_return_panel_tail_and_extend():
    panel = synth_panel(100, seed=3)
    tail = panel.tail(40)
    assert tail.n_obs == 40
    np.testing.assert_array_equal(tail.x, panel.x[-40:])
    grown = panel.extend([0.01], [0.02])
    assert grown.n_obs == 101
    assert grown.x[-1] == 0.01


# ---------------------------------------------------------------------------
# log_returns
# ---------------------------------------------------------------------------

def test_log_returns_constant_series():
    np.testing.assert_allclose(log_returns([100.0, 100.0, 100.0]), [0.0, 0.0])


def test_log_returns_single_e_ratio():
    np.testing.assert_allclose(log_returns([1.0, math.e]), [1.0], rtol=1e-15)


def test_log_returns_errors():
    with pytest.raises(ValueError, match="at least 2"):
        log_returns([100.0])
    with pytest.raises(ValueError, match="index 1"):
        log_returns([100.0, -1.0, 100.0])
    days = [date(2018, 1, 2).toordinal(), date(2018, 1, 3).toordinal()]
    with pytest.raises(ValueError, match="2018-01-03"):
        PriceSeries(days, [100.0, 0.0])


@pytest.mark.parametrize("bad, fault", [
    (float("nan"), "non-finite price nan"),
    (float("inf"), "non-finite price inf"),
    (-2.0, "non-positive price -2.0"),
    (0.0, "non-positive price 0.0"),
], ids=["nan", "inf", "negative", "zero"])
def test_bad_price_messages_name_the_first_bad_entry(bad, fault):
    # "non-positive" for values <= 0, "non-finite" for inf and NaN, and the
    # value as a plain float, not numpy's repr "np.float64(...)"
    days = [date(2018, 1, d).toordinal() for d in (2, 3, 4, 5)]
    prices = [1.0, bad, 3.0, -4.0]
    with pytest.raises(ValueError) as info:
        PriceSeries(days, prices)
    assert str(info.value) == f"{fault} on 2018-01-03"
    with pytest.raises(ValueError) as info:
        log_returns(prices)
    assert str(info.value) == f"{fault} at index 1"


def test_log_returns_against_extended_precision_oracle():
    # 141 synthetic prices; oracle recomputes each ln ratio at 40 digits
    rng = np.random.default_rng(141)
    prices = 2000.0 * np.exp(np.cumsum(np.concatenate([[0.0], 0.01 * rng.standard_normal(140)])))
    got = log_returns(prices)
    assert got.size == 140
    with mpmath.workdps(40):
        expected = [float(mpmath.log(mpmath.mpf(float(b)) / mpmath.mpf(float(a))))
                    for a, b in zip(prices, prices[1:])]
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)


# ---------------------------------------------------------------------------
# Risk-neutral drifts
# ---------------------------------------------------------------------------

def test_risk_neutral_equals_physical_with_substituted_drifts():
    # physical return means are mu - sigma^2/2; the risk-neutral ones take
    # mu_x = r_f - rho*sigma_x*sigma_h (the quanto adjustment) and
    # mu_h = r_d - r_f
    sx = np.array([0.006, 0.011, 0.004])
    sh = np.array([0.004, 0.007, 0.009])
    rho = np.array([-0.3, 0.0, 0.85])
    mean_x, mean_h = risk_neutral_drifts(MARKET, sx, sh, rho)
    mu_x = MARKET.r_f - rho * sx * sh
    mu_h = MARKET.r_d - MARKET.r_f
    np.testing.assert_allclose(mean_x, mu_x - sx ** 2 / 2, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mean_h, mu_h - sh ** 2 / 2, rtol=1e-13, atol=0.0)
    # floats give the array's entries bit for bit
    for i in range(sx.size):
        assert risk_neutral_drifts(MARKET, float(sx[i]), float(sh[i]), float(rho[i])) == (
            mean_x[i], mean_h[i])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_return_pair_sample_correlation():
    theta = Theta(0.006, 0.004, 0.5)
    rng = np.random.default_rng(12345)
    n = 1_000_000
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    # the pricer's mixing of two independent normals
    x = theta.sigma_x * z1
    h = theta.sigma_h * (theta.rho * z1 + math.sqrt(1 - theta.rho ** 2) * z2)
    got = np.corrcoef(x, h)[0, 1]
    assert got == pytest.approx(0.5, abs=0.01)


def test_simulate_return_pair_mean_matches_quanto_drift():
    # rho*sx*sh = 1e-5 with sx = 0.006: analytic mean r_f - rho*sx*sh - sx^2/2
    sigma_x, sigma_h = 0.006, 0.004
    rho = 1e-5 / (sigma_x * sigma_h)
    theta = Theta(sigma_x, sigma_h, rho)
    market = MarketConfig(r_d=0.0001, r_f=0.0002)
    rng = np.random.default_rng(777)
    n = 1_000_000
    mx, mh = risk_neutral_drifts(market, *theta.as_tuple())
    assert mx == pytest.approx(0.000172, abs=1e-18)
    draws = mx + sigma_x * rng.standard_normal(n)
    assert draws.mean() == pytest.approx(0.000172, abs=3 * 0.006 / 1000)


def test_simulate_moments_match_analytic_within_mc_error():
    theta = Theta(0.006, 0.004, -0.3)
    rng = np.random.default_rng(2718)
    n = 1_000_000
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    mx, mh = risk_neutral_drifts(MARKET, *theta.as_tuple())
    xs = mx + theta.sigma_x * z1
    hs = mh + theta.sigma_h * (theta.rho * z1 + math.sqrt(1 - theta.rho ** 2) * z2)
    assert xs.mean() == pytest.approx(mx, abs=4 * theta.sigma_x / math.sqrt(n))
    assert hs.mean() == pytest.approx(mh, abs=4 * theta.sigma_h / math.sqrt(n))
    assert xs.std() == pytest.approx(theta.sigma_x, rel=4 / math.sqrt(2 * n) + 1e-3)
    assert hs.std() == pytest.approx(theta.sigma_h, rel=4 / math.sqrt(2 * n) + 1e-3)
    corr = np.corrcoef(xs, hs)[0, 1]
    assert corr == pytest.approx(theta.rho, abs=4 * (1 - theta.rho ** 2) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def test_payoff_examples():
    assert payoff("F1", 100.0, 1.1, 100.0, MARKET) == pytest.approx(10.0, rel=1e-12)
    assert payoff("F3", 2655.0, 0.9, 2655.0, MARKET) == 0.0
    assert payoff("F4", 123.0, 1.25, 0.0, MARKET) == pytest.approx(123.0 * 1.25, rel=1e-12)
    assert payoff("F2", 2700.0, 0.9, 2650.0, MARKET) == pytest.approx(45.0, rel=1e-12)


def test_payoff_errors():
    with pytest.raises(ValueError, match="strike"):
        payoff("F1", 100.0, 1.0, -1.0, MARKET)
    with pytest.raises(ValueError, match="kind"):
        payoff("F9", 100.0, 1.0, 1.0, MARKET)


@pytest.mark.parametrize("kind", ["F1", "F2", "F3", "F4"])
def test_payoff_monotone_and_convex_in_strike(kind):
    rng = np.random.default_rng(55)
    x_term = 2500.0 + 500.0 * rng.random(64)
    h_term = 0.7 + 0.4 * rng.random(64)
    strikes = np.linspace(0.0, 4000.0, 41) if kind != "F4" else np.linspace(0.0, 2.0, 41)
    values = np.array([np.sum(payoff(kind, x_term, h_term, k, MARKET)) for k in strikes])
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-9)
    second = np.diff(values, 2)
    assert np.all(second >= -1e-9)
