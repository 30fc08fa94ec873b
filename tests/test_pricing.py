import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, lognorm

from quanto_bayes import pricing
from quanto_bayes.diagnostics import hpdi
from quanto_bayes.inference import Chain, default_proposals, exact_posterior_draws, mwg_sample
from quanto_bayes.model import MarketConfig, ReturnPanel, SpotState, Theta, payoff
from quanto_bayes.pricing import (
    PricingRequest,
    SequentialSettings,
    bs_call,
    closed_form_v3,
    implied_vol,
    predictive_batch,
    price_batch,
)

from conftest import predictive_samples, price_one, synth_panel

MARKET = MarketConfig.from_annual(0.015, 0.025, h_fix=1.0, periods_per_year=252)
THETA = Theta(0.006, 0.004, -0.03)
SPOT = SpotState(2711.74, 0.88)


def one_draw_chain(theta=THETA):
    return Chain(
        draws=np.array([[theta.sigma_x, theta.sigma_h, theta.rho]]),
        burn_in=0,
        acceptance_counts=np.ones(3, dtype=int),
    )


def posterior_like_chain(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    draws = np.column_stack([
        THETA.sigma_x * np.exp(0.02 * rng.standard_normal(n)),
        THETA.sigma_h * np.exp(0.02 * rng.standard_normal(n)),
        np.clip(THETA.rho + 0.05 * rng.standard_normal(n), -0.9, 0.9),
    ])
    return Chain(draws=draws, burn_in=0,
                 acceptance_counts=np.full(3, n, dtype=int))


# ---------------------------------------------------------------------------
# Closed form F3
# ---------------------------------------------------------------------------

def test_closed_form_zero_strike_is_discounted_forward():
    s = 51
    expected = MARKET.h_fix * SPOT.x0 * math.exp(
        (MARKET.r_f - THETA.rho * THETA.sigma_x * THETA.sigma_h - MARKET.r_d) * s
    )
    assert closed_form_v3(THETA, SPOT, 0.0, s, MARKET) == pytest.approx(expected, rel=1e-14)


def test_closed_form_reduces_to_black_scholes():
    theta = Theta(0.006, 0.004, 1e-300)
    market = MarketConfig(r_d=0.0001, r_f=0.0001, h_fix=1.0)
    got = closed_form_v3(theta, SPOT, 2700.0, 51, market)
    expected = bs_call(SPOT.x0, 2700.0, theta.sigma_x, market.r_f, 51)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("strike", [1500.0, 2655.0, 2900.0])
def test_closed_form_matches_lognormal_quadrature(strike):
    s = 51
    mean_log = (MARKET.r_f - THETA.rho * THETA.sigma_x * THETA.sigma_h
                - 0.5 * THETA.sigma_x ** 2) * s
    sd_log = THETA.sigma_x * math.sqrt(s)
    dist = lognorm(s=sd_log, scale=SPOT.x0 * math.exp(mean_log))
    integrand = lambda v: (v - strike) * dist.pdf(v)
    expected, err = quad(integrand, strike, dist.ppf(1 - 1e-14), limit=400)
    expected *= math.exp(-MARKET.r_d * s) * MARKET.h_fix
    got = closed_form_v3(THETA, SPOT, strike, s, MARKET)
    assert got == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# Monte Carlo pricing
# ---------------------------------------------------------------------------

def test_price_zero_strike_f1_recovers_spot_product():
    request = PricingRequest(kind="F1", strike=0.0, horizon_s=51, spot=SPOT)
    result = price_one(request, one_draw_chain(), MARKET, 200_000, 42)
    target = SPOT.x0 * SPOT.h0
    assert abs(result.price - target) < 4.0 * result.mc_std_error


def test_price_f3_matches_closed_form_one_draw():
    request = PricingRequest(kind="F3", strike=2655.0, horizon_s=51, spot=SPOT)
    result = price_one(request, one_draw_chain(), MARKET, 200_000, 7)
    expected = closed_form_v3(THETA, SPOT, 2655.0, 51, MARKET)
    assert abs(result.price - expected) < 4.0 * result.mc_std_error


def test_martingale_identity_discounted_spot_product():
    request = PricingRequest(kind="F1", strike=0.0, horizon_s=30, spot=SPOT)
    samples = predictive_samples(request, one_draw_chain(), MARKET, 300_000, 11)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - SPOT.x0 * SPOT.h0) < 4.0 * se


def test_fixed_seed_reproduces_result_bitwise():
    chain = posterior_like_chain()
    request = PricingRequest(kind="F2", strike=2700.0, horizon_s=21, spot=SPOT)
    a = price_one(request, chain, MARKET, 20_000, 99)
    b = price_one(request, chain, MARKET, 20_000, 99)
    assert a == b


def test_one_draw_chain_equals_plain_fixed_parameter_pricer():
    # independent oracle sharing the documented stream convention: one batch
    # of asset shocks, then (except for F3) one batch of exchange-rate shocks
    n, s, strike = 5000, 13, 2700.0
    mx = MARKET.r_f - THETA.rho * THETA.sigma_x * THETA.sigma_h - THETA.sigma_x ** 2 / 2
    mh = MARKET.r_d - MARKET.r_f - THETA.sigma_h ** 2 / 2
    comp = math.sqrt(1 - THETA.rho ** 2)
    rng = np.random.default_rng(123)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x_term = SPOT.x0 * np.exp(s * mx + math.sqrt(s) * THETA.sigma_x * z1)
    h_term = SPOT.h0 * np.exp(s * mh + math.sqrt(s) * THETA.sigma_h * (THETA.rho * z1 + comp * z2))
    disc = math.exp(-MARKET.r_d * s)
    oracles = {
        "F2": disc * h_term * np.maximum(x_term - strike, 0.0),
        "F3": disc * MARKET.h_fix * np.maximum(x_term - strike, 0.0),
    }
    for kind, oracle in oracles.items():
        request = PricingRequest(kind=kind, strike=strike, horizon_s=s, spot=SPOT)
        mine = predictive_samples(request, one_draw_chain(), MARKET, n, 123)
        np.testing.assert_allclose(mine, oracle, rtol=0.0, atol=1e-12, err_msg=kind)
        result = price_one(request, one_draw_chain(), MARKET, n, 123)
        assert result.price == pytest.approx(float(oracle.mean()), abs=1e-12), kind


@pytest.mark.parametrize("s, sequential", [
    pytest.param(13, False, id="13"),
    pytest.param(51, False, id="51"),
    pytest.param(13, True, id="13-sequential-no-refresh"),
])
def test_terminal_draw_matches_daily_construction_in_distribution(s, sequential, monkeypatch):
    theta = Theta(0.006, 0.004, 0.6)
    n = 20_000
    captured = []

    def capture(kind, x_terminal, h_terminal, strike, market):
        captured.append((np.log(x_terminal / SPOT.x0), np.log(h_terminal / SPOT.h0)))
        return np.zeros_like(x_terminal)

    monkeypatch.setattr(pricing, "payoff", capture)
    request = PricingRequest(kind="F2", strike=2700.0, horizon_s=s, spot=SPOT)
    if sequential:
        # an interval beyond the horizon runs no refresh, so the daily
        # sequential paths must match the static terminal draw
        settings = SequentialSettings(panel=synth_panel(50, seed=60), refresh_interval=s + 1)
        predictive_samples(request, one_draw_chain(theta), MARKET, n, 31, settings)
        predictive_samples(request, one_draw_chain(theta), MARKET, n, 32)
        terminal, daily = captured
    else:
        predictive_samples(request, one_draw_chain(theta), MARKET, n, 31)
        terminal, = captured

        # the daily construction: s correlated return pairs summed per path
        rng = np.random.default_rng(32)
        mx = MARKET.r_f - theta.rho * theta.sigma_x * theta.sigma_h - theta.sigma_x ** 2 / 2
        mh = MARKET.r_d - MARKET.r_f - theta.sigma_h ** 2 / 2
        comp = math.sqrt(1 - theta.rho ** 2)
        acc_x = np.zeros(n)
        acc_h = np.zeros(n)
        for _ in range(s):
            z1 = rng.standard_normal(n)
            z2 = rng.standard_normal(n)
            acc_x += mx + theta.sigma_x * z1
            acc_h += mh + theta.sigma_h * (theta.rho * z1 + comp * z2)
        daily = (acc_x, acc_h)

    for a, b in zip(terminal, daily):
        se_mean = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 4.0 * se_mean

        def var_se(v):
            d2 = (v - v.mean()) ** 2
            return d2.std(ddof=1) / math.sqrt(n)

        se_var = math.hypot(var_se(a), var_se(b))
        assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4.0 * se_var
        assert ks_2samp(a, b).pvalue > 1e-3

    corr = [np.corrcoef(*pair)[0, 1] for pair in (terminal, daily)]
    se_corr = math.hypot(*((1.0 - c * c) / math.sqrt(n) for c in corr))
    assert abs(corr[0] - corr[1]) < 4.0 * se_corr


def test_price_monotone_in_strike_common_random_numbers():
    chain = posterior_like_chain()
    strikes = [2400.0, 2550.0, 2700.0, 2850.0, 3000.0]
    prices = []
    for k in strikes:
        request = PricingRequest(kind="F3", strike=k, horizon_s=51, spot=SPOT)
        prices.append(price_one(request, chain, MARKET, 30_000, 5).price)
    assert all(b <= a for a, b in zip(prices, prices[1:]))


@pytest.mark.parametrize("kind", ["F1", "F3"])
def test_price_convex_in_strike(kind):
    chain = posterior_like_chain()
    base = 2700.0 * SPOT.h0 if kind == "F1" else 2700.0
    strikes = np.linspace(0.8 * base, 1.2 * base, 5)
    prices = []
    ses = []
    for k in strikes:
        request = PricingRequest(kind=kind, strike=float(k), horizon_s=30, spot=SPOT)
        r = price_one(request, chain, MARKET, 40_000, 17)
        prices.append(r.price)
        ses.append(r.mc_std_error)
    for i in range(1, 4):
        second = prices[i - 1] - 2 * prices[i] + prices[i + 1]
        tol = 2.0 * math.sqrt(ses[i - 1] ** 2 + 4 * ses[i] ** 2 + ses[i + 1] ** 2)
        assert second > -tol


def test_zero_strike_identities_all_kinds():
    target = SPOT.x0 * SPOT.h0
    for kind in ("F1", "F2", "F4"):
        request = PricingRequest(kind=kind, strike=0.0, horizon_s=21, spot=SPOT)
        r = price_one(request, posterior_like_chain(), MARKET, 150_000, 23)
        assert abs(r.price - target) < 4.0 * r.mc_std_error, kind
    request = PricingRequest(kind="F3", strike=0.0, horizon_s=21, spot=SPOT)
    r = price_one(request, one_draw_chain(), MARKET, 150_000, 23)
    assert abs(r.price - closed_form_v3(THETA, SPOT, 0.0, 21, MARKET)) < 4.0 * max(
        r.mc_std_error, 1e-12
    )


def test_horizon_zero_returns_intrinsic_exactly():
    # every path pays x0*h0 - K exactly (exp(0) = 1), so the price is their
    # mean: the intrinsic value up to the rounding of the sum
    value = SPOT.x0 * SPOT.h0 - 2000.0
    request = PricingRequest(kind="F1", strike=2000.0, horizon_s=0, spot=SPOT)
    chain = posterior_like_chain(n=40)
    assert np.all(predictive_samples(request, chain, MARKET, 100, 1) == value)
    r = price_one(request, chain, MARKET, 100, 1)
    assert abs(r.price - value) <= 2.0 * math.ulp(value)
    assert r.mc_std_error <= 1e-12 * r.price
    assert r.hpdi_99 == (value, value)
    assert r.n_effective_draws == 40


def test_thinning_consumes_evenly_spaced_draws():
    chain = posterior_like_chain(n=1000)
    request = PricingRequest(kind="F3", strike=2700.0, horizon_s=5, spot=SPOT)
    r = price_one(request, chain, MARKET, 10_000, 2)
    assert r.n_effective_draws == 1000
    r = price_one(request, chain, MARKET, 100, 2)
    assert r.n_effective_draws == 100
    for n_available in range(1, 61):
        chain = posterior_like_chain(n=n_available)
        for n_paths in range(1, 61):
            indices = (np.arange(n_paths) * n_available) // n_paths
            assert (price_one(request, chain, MARKET, n_paths, 2).n_effective_draws
                    == np.unique(indices).size)


def test_request_validation():
    with pytest.raises(ValueError):
        PricingRequest(kind="F9", strike=1.0, horizon_s=5, spot=SPOT)
    with pytest.raises(ValueError):
        PricingRequest(kind="F1", strike=-1.0, horizon_s=5, spot=SPOT)
    for strike in (float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"strike must be non-negative and finite, got {strike}"):
            PricingRequest(kind="F3", strike=strike, horizon_s=5, spot=SPOT)
    panel = synth_panel(50, seed=60)
    with pytest.raises(ValueError, match="refresh_interval"):
        SequentialSettings(panel=panel, refresh_interval=0)


# ---------------------------------------------------------------------------
# Sequential-update mode
# ---------------------------------------------------------------------------

def test_sequential_mode_deterministic_and_consistent_with_static():
    panel = synth_panel(300, seed=61)
    # interval beyond the horizon: no refresh ever triggers
    settings = SequentialSettings(panel=panel, refresh_interval=99)
    chain = posterior_like_chain(n=200)
    request = PricingRequest(kind="F3", strike=2700.0, horizon_s=10, spot=SPOT)
    a = price_one(request, chain, MARKET, 200, 71, settings)
    b = price_one(request, chain, MARKET, 200, 71, settings)
    assert a == b
    static = price_one(request, chain, MARKET, 200, 71)
    tol = 4.0 * math.sqrt(a.mc_std_error ** 2 + static.mc_std_error ** 2)
    assert abs(a.price - static.price) < tol


def test_sequential_mode_with_refreshes_runs_and_reproduces():
    panel = synth_panel(250, seed=62)
    settings = SequentialSettings(panel=panel, refresh_interval=4)
    chain = posterior_like_chain(n=100)
    request = PricingRequest(kind="F3", strike=2700.0, horizon_s=8, spot=SPOT)
    a = price_one(request, chain, MARKET, 40, 81, settings)
    b = price_one(request, chain, MARKET, 40, 81, settings)
    assert a == b
    assert math.isfinite(a.price) and a.price >= 0.0


def _per_request_static(request, chain, market, n_paths, seed):
    """One static request priced on its own: the thinned draws, one batch of
    asset normals z1 and, except for F3, one batch of exchange-rate normals
    z2 from default_rng(seed), then the exact terminal draw."""
    retained = chain.post_burn_in()
    spot = request.spot
    s = request.horizon_s
    thetas = retained[(np.arange(n_paths) * retained.shape[0]) // n_paths]
    sx = thetas[:, 0]
    sh = thetas[:, 1]
    rho = thetas[:, 2]
    root_s = math.sqrt(s)
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n_paths)
    x_term = spot.x0 * np.exp(s * (market.r_f - rho * sx * sh - 0.5 * sx * sx)
                              + root_s * sx * z1)
    if request.kind == "F3":
        h_term = spot.h0
    else:
        z2 = rng.standard_normal(n_paths)
        shock = rho * z1 + np.sqrt(1.0 - rho * rho) * z2
        h_term = spot.h0 * np.exp(s * (market.r_d - market.r_f - 0.5 * sh * sh)
                                  + root_s * sh * shock)
    values = payoff(request.kind, x_term, h_term, request.strike, market)
    return math.exp(-market.r_d * s) * values


def _per_request_sequential(request, chain, market, n_paths, seed, panel, refresh_interval,
                            refresh_draws=200, refresh_burn_in=50):
    """One request priced with a Metropolis-within-Gibbs refresh, the
    independent reference for the exact one: path i owns the substream SeedSequence((seed, i)), runs day by day to the
    request's horizon s, and after day j, when j % interval == 0 and j < s,
    takes the last draw of a ``tnn`` chain on the panel extended with its
    returns so far, started from its current parameters. A day's return pair
    mixes two scalar normals, z1 then z2, under the risk-neutral drifts."""
    retained = chain.post_burn_in()
    idx = (np.arange(n_paths) * retained.shape[0]) // n_paths
    specs = default_proposals("tnn", panel)
    s = request.horizon_s
    out = np.empty(n_paths)
    for i in range(n_paths):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        theta = Theta(*retained[idx[i]])
        xs, hs = [], []
        for j in range(1, s + 1):
            sx, sh, rho = theta.as_tuple()
            z1 = rng.standard_normal()
            z2 = rng.standard_normal()
            x = market.r_f - rho * sx * sh - 0.5 * sx ** 2 + sx * z1
            h = (market.r_d - market.r_f - 0.5 * sh ** 2
                 + sh * (rho * z1 + math.sqrt(1.0 - rho ** 2) * z2))
            xs.append(x)
            hs.append(h)
            if j % refresh_interval == 0 and j < s:
                grown = ReturnPanel(np.concatenate([panel.x, xs]), np.concatenate([panel.h, hs]))
                refresh = mwg_sample(grown, specs, refresh_draws,
                                     refresh_burn_in, init=theta,
                                     seed=int(rng.integers(2 ** 63)))
                theta = Theta(*refresh.draws[-1])
        value = payoff(request.kind, request.spot.x0 * math.exp(sum(xs)),
                       request.spot.h0 * math.exp(sum(hs)), request.strike, market)
        out[i] = math.exp(-market.r_d * s) * value
    return out


def _per_request_lockstep(request, chain, market, n, seed, settings):
    """One request simulated on its own in the sequential stream layout: all
    paths in lockstep to the request's horizon s, day j drawing n_paths
    normals z1 and then n_paths normals z2 from default_rng(seed), and after
    day j, when j % interval == 0 and j < s, one exact draw per path from
    the statistics of the panel rebuilt with the path's returns so far."""
    retained = chain.post_burn_in()
    thetas = retained[(np.arange(n) * retained.shape[0]) // n]
    s = request.horizon_s
    rng = np.random.default_rng(seed)
    xs = np.empty((s, n))
    hs = np.empty((s, n))
    for j in range(1, s + 1):
        sx, sh, rho = thetas.T
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        xs[j - 1] = market.r_f - rho * sx * sh - 0.5 * sx * sx + sx * z1
        hs[j - 1] = (market.r_d - market.r_f - 0.5 * sh * sh
                     + sh * (rho * z1 + np.sqrt(1.0 - rho * rho) * z2))
        if j % settings.refresh_interval == 0 and j < s:
            panel = settings.panel
            panels = [ReturnPanel(np.concatenate([panel.x, xs[:j, i]]),
                                  np.concatenate([panel.h, hs[:j, i]])) for i in range(n)]
            thetas = exact_posterior_draws(
                [p.n_obs for p in panels], [p.sxx for p in panels], [p.shh for p in panels],
                [p.sxh for p in panels], rng)
    value = payoff(request.kind, request.spot.x0 * np.exp(xs.sum(axis=0)),
                   request.spot.h0 * np.exp(hs.sum(axis=0)), request.strike, market)
    return math.exp(-market.r_d * s) * value


def _sequential_settings(refresh_interval=4):
    return SequentialSettings(panel=synth_panel(250, seed=63),
                              refresh_interval=refresh_interval)


@pytest.mark.parametrize("mode", ["static", "sequential-update"])
def test_sequential_batch_equals_single_requests_bitwise(mode):
    settings = _sequential_settings()
    sequential = settings if mode == "sequential-update" else None
    chain = posterior_like_chain(n=100)
    simulation = (MARKET, 12, 91)
    # horizons shorter than, equal to, a multiple of and off the interval
    requests = [
        PricingRequest(kind="F3", strike=2700.0, horizon_s=3, spot=SPOT),
        PricingRequest(kind="F1", strike=2380.0, horizon_s=4, spot=SPOT),
        PricingRequest(kind="F3", strike=2650.0, horizon_s=8,
                       spot=SpotState(2690.0, 0.88)),
        PricingRequest(kind="F4", strike=0.87, horizon_s=10, spot=SPOT),
        PricingRequest(kind="F2", strike=2720.0, horizon_s=6,
                       spot=SpotState(2730.0, 0.86)),
        PricingRequest(kind="F3", strike=2720.0, horizon_s=8, spot=SPOT),
        PricingRequest(kind="F3", strike=2700.0, horizon_s=0, spot=SPOT),
    ]
    f3_only = [r for r in requests if r.kind == "F3"]
    for batch in (requests, f3_only):
        batched = list(predictive_batch(batch, chain, *simulation, sequential))
        assert len(batched) == len(batch)
        for request, samples in zip(batch, batched):
            single = predictive_samples(request, chain, *simulation, sequential)
            assert np.array_equal(samples, single), request
            if request.horizon_s == 0:
                continue
            if sequential is None:
                reference = _per_request_static(request, chain, *simulation)
                assert np.array_equal(single, reference), request
            else:
                # the reference rebuilds each path's panel instead of updating
                # its statistics, so only rounding may differ
                reference = _per_request_lockstep(request, chain, *simulation, settings)
                np.testing.assert_allclose(single, reference, rtol=1e-10, atol=0.0,
                                           err_msg=str(request))
        assert np.all(batched[-1] == MARKET.h_fix * (SPOT.x0 - 2700.0))  # intrinsic


def test_sequential_exact_refresh_matches_mwg_refresh():
    # the reference refresh takes the last draw of a short MwG chain per
    # path; both draw from the same extended posterior, so every price must
    # agree.
    # The chain's one draw lies far from that posterior, so the refreshes
    # move every price: without them the F1 and F3 prices miss by over 4 SE.
    panel = synth_panel(40, seed=64)
    settings = SequentialSettings(panel=panel, refresh_interval=3)
    chain = one_draw_chain(Theta(0.003, 0.002, -0.5))
    requests = [
        PricingRequest(kind="F3", strike=2700.0, horizon_s=7, spot=SPOT),
        PricingRequest(kind="F1", strike=2380.0, horizon_s=10, spot=SPOT),
        PricingRequest(kind="F4", strike=0.88, horizon_s=10, spot=SPOT),
    ]
    for request, exact in zip(requests,
                              predictive_batch(requests, chain, MARKET, 300, 93, settings)):
        mwg = _per_request_sequential(request, chain, MARKET, 300, 93, panel,
                                      settings.refresh_interval)
        se = math.sqrt(exact.var(ddof=1) / exact.size + mwg.var(ddof=1) / mwg.size)
        assert abs(exact.mean() - mwg.mean()) < 4.0 * se, request


# sha256 of predictive_batch's payoff bytes, request after request: the
# random-stream layout, the drifts and every arithmetic step, pinned bit for
# bit. "static-f3" is the batch without its z2 shocks.
_PINNED_BATCHES = {
    "static": "effc819abd40dc7369ffef1d665e60bd8adc3c823a130aeecb4dc7d058ec8d0d",
    "static-f3": "0186cad864af2f9aa5c392cf14aa5411f4ce46868a17b9f85454149147375f1c",
    "sequential-update": "377f4450d1341f8a67d1b1eb435708280f049a635ca1fa5d46c38603d692c21d",
}


@pytest.mark.parametrize("case", sorted(_PINNED_BATCHES))
def test_predictive_batch_pinned_payoffs(case):
    chain = posterior_like_chain(n=300)
    requests = [
        PricingRequest(kind="F1", strike=2380.0, horizon_s=5, spot=SPOT),
        PricingRequest(kind="F2", strike=2720.0, horizon_s=12,
                       spot=SpotState(2730.0, 0.86)),
        PricingRequest(kind="F3", strike=2700.0, horizon_s=12, spot=SPOT),
        PricingRequest(kind="F4", strike=0.87, horizon_s=21, spot=SPOT),
        PricingRequest(kind="F3", strike=2650.0, horizon_s=0, spot=SPOT),
    ]
    if case == "static-f3":
        requests = [r for r in requests if r.kind == "F3"]
    # refreshes after days 4, 8, 12 and 16 of 21
    sequential = _sequential_settings(4) if case == "sequential-update" else None
    digest = hashlib.sha256()
    for samples in predictive_batch(requests, chain, MARKET, 500, 2718, sequential):
        digest.update(samples.tobytes())
    assert digest.hexdigest() == _PINNED_BATCHES[case]


@pytest.mark.parametrize("n_paths", [1, 5, 12])
@pytest.mark.parametrize("mode", ["static", "sequential-update"])
def test_price_batch_summarizes_the_sorted_predictive_batch(mode, n_paths):
    sequential = _sequential_settings() if mode == "sequential-update" else None
    chain = posterior_like_chain(n=100)
    simulation = (MARKET, n_paths, 94)
    tiny = SpotState(1e-300, 0.88)  # strike / spot overflows to inf
    terms = [
        ("F1", 2380.0, 6, SPOT), ("F1", 0.0, 6, SPOT), ("F1", 1e7, 6, SPOT),
        ("F2", 2720.0, 8, SPOT), ("F2", 0.0, 8, SPOT), ("F2", 1e7, 8, SPOT),
        ("F3", 2700.0, 8, SPOT), ("F3", 2650.0, 8, SpotState(2690.0, 0.88)),
        ("F3", 0.0, 8, SPOT), ("F3", 1e7, 8, SPOT), ("F3", 1e30, 8, tiny),
        ("F3", 2700.0, 3, SPOT), ("F3", 2700.0, 0, SPOT), ("F3", 2750.0, 0, SPOT),
        ("F4", 0.87, 10, SPOT), ("F4", 0.0, 10, SPOT), ("F4", 1e3, 10, SPOT),
    ]
    requests = [PricingRequest(kind=kind, strike=strike, horizon_s=s, spot=spot)
                for kind, strike, s, spot in terms]
    priced = price_batch(requests, chain, *simulation, sequential)
    for request, payoffs, (result, ordered) in zip(
            requests, predictive_batch(requests, chain, *simulation, sequential), priced,
            strict=True):
        assert ordered.tobytes() == np.sort(payoffs).tobytes(), request
        if n_paths >= 10:
            assert result.hpdi_99 == hpdi(payoffs, 0.99), request
        else:
            assert result.hpdi_99 == (payoffs.min(), payoffs.max()), request
        # the reference summary: mean, and std(ddof=1) / sqrt(n), of the payoffs
        assert result.price == pytest.approx(payoffs.mean(), rel=1e-12, abs=0.0), request
        se = payoffs.std(ddof=1) / math.sqrt(n_paths) if n_paths > 1 else 0.0
        assert result.mc_std_error == pytest.approx(se, rel=1e-12, abs=0.0), request
        assert result.n_effective_draws == n_paths  # each path takes its own draw of 100
    assert result.price == 0.0  # out of the money on every path


def test_standard_error_survives_payoffs_whose_squares_overflow():
    # F3 payoffs scale with h_fix; at 1e300 their squares overflow a float,
    # which must neither warn nor leave a non-finite standard error
    results = []
    for h_fix in (1.0, 1e300):
        market = MarketConfig.from_annual(0.015, 0.025, h_fix=h_fix, periods_per_year=252)
        request = PricingRequest(kind="F3", strike=2700.0, horizon_s=51, spot=SPOT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results.append(price_one(request, posterior_like_chain(), market, 2000, 5))
    base, big = results
    assert math.isfinite(big.mc_std_error) and base.mc_std_error > 0.0
    assert big.mc_std_error == pytest.approx(1e300 * base.mc_std_error, rel=1e-12)
    assert big.price == pytest.approx(1e300 * base.price, rel=1e-12)


@pytest.mark.parametrize("kind", ["F1", "F2", "F3", "F4"])
def test_price_batch_refuses_a_request_whose_payoffs_are_not_finite(kind):
    # at 10 per day the asset's growth overflows by day 100, and the discount
    # exp(-r_d*s) = 0 turns its payoffs into NaN; day 5 still prices
    market = MarketConfig(r_d=10.0, r_f=10.0)
    requests = [PricingRequest(kind=kind, strike=1.0, horizon_s=s, spot=SPOT) for s in (5, 100)]
    with np.errstate(all="ignore"):
        priced = price_batch(requests, one_draw_chain(), market, 50, 3)
        assert math.isfinite(next(priced)[0].price)
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} at strike 1.0, maturity 100 days: a simulated payoff is not finite")):
            next(priced)


def test_f3_tail_starts_at_the_first_positive_payoff():
    # F3 payoffs over sorted growth come out sorted, bit for bit, even over
    # the growth levels within a few ulps of K / x0, which rounds either way
    # and so may pay, or not, on either side of it
    rng = np.random.default_rng(95)
    for _ in range(300):
        x0, strike = np.exp(rng.uniform(-5.0, 10.0, size=2))
        quotient = strike / x0
        around = [quotient]
        for _ in range(3):
            around = [np.nextafter(around[0], 0.0), *around, np.nextafter(around[-1], np.inf)]
        growth = np.sort(np.concatenate([around, np.exp(rng.normal(0.0, 0.1, size=5))
                                         * quotient]))
        request = PricingRequest(kind="F3", strike=float(strike), horizon_s=4,
                                 spot=SpotState(float(x0), 0.88))
        ordered = pricing._sorted_payoffs(request, MARKET, None, {4: growth})
        expected = np.sort(pricing._discounted_payoffs(request, MARKET, growth, None))
        assert ordered.tobytes() == expected.tobytes(), (x0, strike)


def test_request_is_only_the_contract():
    # the simulation's market, path count and seed are the batch's, given once
    assert PricingRequest.__slots__ == ("kind", "strike", "horizon_s", "spot")
    with pytest.raises(TypeError, match="refresh_interval"):
        SequentialSettings(panel=synth_panel(50, seed=60))


@pytest.mark.parametrize("batch", [price_batch, predictive_batch])
def test_batches_refuse_fewer_than_one_path_before_drawing(batch, monkeypatch):
    def no_simulation(*args):
        raise AssertionError("paths simulated before n_paths was checked")

    monkeypatch.setattr(pricing, "_terminal_growth", no_simulation)
    monkeypatch.setattr(pricing, "_sequential_growth", no_simulation)
    request = PricingRequest(kind="F1", strike=1.0, horizon_s=5, spot=SPOT)
    for sequential in (None, _sequential_settings()):
        # refused when the batch is built, before any payoff is read
        with pytest.raises(ValueError, match="n_paths must be at least 1, got 0"):
            batch([request], posterior_like_chain(n=100), MARKET, 0, 91, sequential)


@pytest.mark.parametrize("batch", [price_batch, predictive_batch])
def test_empty_batch_yields_nothing(batch):
    for sequential in (None, _sequential_settings()):
        assert list(batch([], posterior_like_chain(n=100), MARKET, 10, 0, sequential)) == []


# ---------------------------------------------------------------------------
# Black-Scholes and implied volatility
# ---------------------------------------------------------------------------

def test_bs_call_zero_vol_limit():
    assert bs_call(100.0, 90.0, 0.0, 0.0001, 30) == pytest.approx(
        100.0 - 90.0 * math.exp(-0.003), rel=1e-14
    )
    assert bs_call(80.0, 90.0, 0.0, 0.0001, 30) == 0.0


def test_bs_call_when_the_moneyness_underflows_or_overflows():
    # spot / strike is 0 or inf as a float, but its log is finite
    assert bs_call(1e-300, 1e30, 0.01, 0.0001, 30) == 0.0
    assert bs_call(1e30, 1e-300, 0.01, 0.0001, 30) == 1e30


def test_bs_call_atm_short_dated_approximation():
    # Brenner-Subrahmanyam: ATM price ~ 0.3989 * S * sigma * sqrt(s)
    for vol, s in ((0.002, 10), (0.005, 51), (0.01, 25)):
        total_vol = vol * math.sqrt(s)
        assert total_vol <= 0.05
        got = bs_call(100.0, 100.0, vol, 0.0, s)
        assert got == pytest.approx(0.3989422804 * 100.0 * total_vol, rel=0.01)


def test_implied_vol_round_trip_per_day_vols():
    for vol in (0.001, 0.01, 0.05):
        price = bs_call(2700.0, 2700.0, vol, MARKET.r_f, 51)
        assert abs(implied_vol(price, 2700.0, 2700.0, MARKET.r_f, 51) - vol) < 1e-8


def test_implied_vol_stops_on_the_interval_when_no_price_is_close_enough(monkeypatch):
    # at a spot of 1e6 no bisection price comes within the price tolerance of
    # the quote, so the search ends once hi - lo <= 1e-14
    spot, strike, rate, s = 1e6, 1.01e6, 0.025 / 252, 51
    price = bs_call(spot, strike, 0.007, rate, s)
    prices = []

    def counted_bs_call(*args):
        prices.append(bs_call(*args))
        return prices[-1]

    monkeypatch.setattr(pricing, "bs_call", counted_bs_call)
    vol = implied_vol(price, spot, strike, rate, s)
    assert len(prices) == 50  # the upper-bound check and 49 halvings, far below 200
    assert min(abs(p - price) for p in prices) > pricing._IV_PRICE_TOL
    assert abs(vol / 0.007 - 1.0) <= 1e-10


def test_implied_vol_no_solution_outside_bounds():
    with pytest.raises(ValueError, match="no implied volatility"):
        implied_vol(0.0, 100.0, 50.0, 0.0001, 30)  # below intrinsic
    with pytest.raises(ValueError, match="no implied volatility"):
        implied_vol(101.0, 100.0, 50.0, 0.0001, 30)  # above spot

