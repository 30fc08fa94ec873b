"""Posterior-predictive Monte Carlo pricing of the four quanto payoffs,
with a closed-form anchor for the fixed-rate payoff and Black-Scholes
baselines.

A :class:`PricingRequest` is one contract. ``price_batch`` prices many of
them from one simulation per chain, taking its market, path count and seed
once, in the random-stream layout that :func:`predictive_batch` states: a
fixed seed reproduces the result bit for bit, and common random numbers
apply across strikes and maturities. Each path consumes one posterior draw,
the retained chain thinned to ``n_paths`` evenly spaced entries, and builds
its growth factors to every requested maturity once, for every strike of
that maturity to read. The fixed-rate payoff F3 is non-decreasing in the
terminal asset level, even as rounded, so one sort of each maturity's growth
orders the payoffs of all its strikes, each computed over the sorted growth.
The other kinds sort their own payoffs. The price, its standard error and
the 99 percent HPDI all come from the sorted payoffs, the first two from the
positive tail with the leading zeros entering in closed form.
``predictive_batch`` yields the same simulation's payoffs in path order.

With the parameters fixed along a static path, the ``horizon_s`` daily
return pairs under the domestic risk-neutral measure sum to one bivariate
normal, so each path takes a single exact terminal draw.

Passing :class:`SequentialSettings` selects sequential-update pricing, which
re-infers the parameters along each path and so keeps a daily loop. All
paths run in lockstep up to the longest requested maturity s_max, each
carrying the sufficient statistics of the historical panel extended with its
own simulated returns, updated in O(1) per day (Welford). Every
``refresh_interval`` days before s_max each path takes one exact draw from
its extended posterior, all paths in one
:func:`~quanto_bayes.inference.exact_posterior_draws` call.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .diagnostics import sorted_hpdi
from .inference import Chain, exact_posterior_draws
from .model import (PAYOFF_KINDS, MarketConfig, ReturnPanel, SpotState, _Record,
                    call_price_band, ndtr, payoff, quanto_of_call, risk_neutral_drifts)

__all__ = [
    "PricingRequest",
    "PricingResult",
    "SequentialSettings",
    "price_batch",
    "predictive_batch",
    "closed_form_v3",
    "bs_call",
    "implied_vol",
]


class PricingRequest(_Record):
    """One contract to price: payoff kind, strike, maturity and spot.

    ``strike`` is in the currency the kind calls for (domestic for F1,
    foreign for F2/F3, exchange-rate units for F4). ``horizon_s`` counts
    trading days to maturity; at 0 every path pays the intrinsic value.
    """

    __slots__ = ("kind", "strike", "horizon_s", "spot")

    def __init__(self, kind: str, strike: float, horizon_s: int, spot: SpotState):
        if kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {kind!r}")
        if not (math.isfinite(strike) and strike >= 0.0):
            raise ValueError(f"strike must be non-negative and finite, got {strike}")
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be non-negative, got {horizon_s}")
        super().__init__(kind, strike, horizon_s, spot)


class PricingResult(NamedTuple):
    """Monte Carlo price with its sampling error.

    ``hpdi_99`` is the 99 percent highest-density interval of the per-draw
    discounted payoffs; ``n_effective_draws`` counts the chain rows the paths
    read after thinning, which repeat a draw wherever a MwG move was rejected.
    """

    price: float
    mc_std_error: float
    hpdi_99: tuple
    n_effective_draws: int


class SequentialSettings(_Record):
    """Inputs of sequential-update pricing; passing them selects that mode.

    Each path's posterior is that of ``panel`` extended with the path's own
    simulated returns; every ``refresh_interval`` simulated days the path
    replaces its parameters with one exact draw from it.
    """

    __slots__ = ("panel", "refresh_interval")

    def __init__(self, panel: ReturnPanel, refresh_interval: int):
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be at least 1, got {refresh_interval}")
        super().__init__(panel, refresh_interval)


def price_batch(requests, chain: Chain, market: MarketConfig, n_paths, seed,
                sequential: SequentialSettings | None = None):
    """Each request's :class:`PricingResult` with its discounted payoffs in
    sorted order, lazily, one pair at a time.

    The inputs are checked and the paths simulated as by
    :func:`predictive_batch`, whose random-stream layout this shares, before
    this returns. Each maturity's F3 requests read one sort of its growth
    X_s/x0: h_fix*max(x0*g - K, 0)*exp(-r_d*s) is non-decreasing in g under
    rounding, since a product with a positive constant, the subtraction of a
    constant and a max with 0 each keep order, so the payoffs over the sorted
    growth come out sorted. Every other request sorts its own payoffs.
    """
    with np.errstate(over="ignore"):  # _sorted_payoffs refuses a path that overflows
        requests, growth, n_distinct = _simulate(requests, chain, market, n_paths, seed,
                                                 sequential)
    sorted_growth = {s: np.sort(growth[s][0])
                     for s in {r.horizon_s for r in requests if r.kind == "F3"}}
    ordered = (_sorted_payoffs(request, market, growth, sorted_growth) for request in requests)
    return ((_summary(values, n_distinct), values) for values in ordered)


def _sorted_payoffs(request, market, growth, sorted_growth):
    """One request's discounted payoffs in ascending order; a payoff that is
    not finite, as an overflowing path gives, raises ValueError and no warning."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if request.kind == "F3":  # non-decreasing in X_s, so already in order
            values = _discounted_payoffs(request, market, sorted_growth[request.horizon_s], None)
        else:
            values = _discounted_payoffs(request, market, *growth[request.horizon_s])
            values.sort()  # a NaN sorts last
    if not math.isfinite(values[-1]):
        raise ValueError(f"{request.kind} at strike {request.strike!r}, maturity "
                         f"{request.horizon_s} days: a simulated payoff is not finite")
    return values


def _summary(ordered, n_effective_draws) -> PricingResult:
    """Price, standard error and 99% HPDI of sorted non-negative payoffs.

    The mean and the centred sum of squares read only the positive tail
    after the j leading zeros, which add j*mean^2 to the sum of squares.
    They are taken on the tail times 2^-e, with e the binary exponent of the
    largest payoff, so no square overflows; the price and the standard error
    are scaled back by 2^e. A power of two scales exactly, so the scaling
    changes no bit unless a scaled value leaves the normal range.
    """
    n = ordered.size
    j = int(np.searchsorted(ordered, 0.0, side="right"))
    e = math.frexp(ordered[-1])[1]
    tail = np.ldexp(ordered[j:], -e)
    price = float(tail.sum() / n)
    if n > 1:
        tail -= price  # centred and squared in place
        tail *= tail
        ss = float(tail.sum()) + j * price * price
        se = math.sqrt(ss / (n - 1)) / math.sqrt(n)
    else:
        se = 0.0
    return PricingResult(
        price=math.ldexp(price, e), mc_std_error=math.ldexp(se, e),
        hpdi_99=sorted_hpdi(ordered, 0.99), n_effective_draws=n_effective_draws,
    )


def predictive_batch(requests, chain: Chain, market: MarketConfig, n_paths, seed,
                     sequential: SequentialSettings | None = None):
    """Per-draw discounted payoffs of many requests, one array each, lazily.

    The requests may differ in kind, strike, horizon and spot; ``market``,
    ``n_paths`` (at least 1) and ``seed`` belong to the one simulation they
    share. The inputs are checked and the paths simulated before this
    returns; the iterator then yields each request's payoffs in request
    order and path order, so one payoff array is held at a time. Horizon 0
    gives the intrinsic value on every path.

    Static mode (``sequential`` is None): path k holds the thinned draw
    theta^(k) to maturity and draws its terminal log-levels exactly,
    log(X_s/x0) = s*m_x + sqrt(s)*sigma_x*z1 and log(H_s/h0) = s*m_h +
    sqrt(s)*sigma_h*(rho*z1 + sqrt(1-rho^2)*z2), from one batch of
    ``n_paths`` normals z1 and, unless every request is F3, one batch z2,
    both from ``default_rng(seed)`` and shared by every maturity.

    Sequential-update mode: every path is simulated day by day, in
    lockstep, up to the longest horizon s_max, from one ``default_rng(seed)``:
    day j draws ``n_paths`` normals z1, then ``n_paths`` normals z2, and
    after day j every path is refreshed with one exact posterior draw when j
    is a multiple of ``refresh_interval`` and j < s_max. A request with
    horizon s prices from the paths' first s return pairs, which neither a
    later day nor a refresh after day s can change, so it gets the same
    payoffs as when priced alone. Both return legs are simulated even when
    every request is F3, because the refresh needs the pair.
    """
    requests, growth, _ = _simulate(requests, chain, market, n_paths, seed, sequential)
    return (_discounted_payoffs(request, market, *growth[request.horizon_s])
            for request in requests)


def _simulate(requests, chain, market, n_paths, seed, sequential):
    """The requests as a list, {s: (X_s/x0, H_s/h0 or None)} for every
    requested maturity s, and the number of chain rows the paths read.

    Path k takes retained row (k*A)//N of A; the indices are strictly
    increasing when N <= A and cover every row when N > A, so min(A, N)
    rows are read. A rejected MwG move repeats a row, so fewer may differ.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    requests = list(requests)
    if not requests:
        return requests, {}, 0
    retained = chain.post_burn_in()
    horizons = sorted({r.horizon_s for r in requests})
    thetas = retained[np.arange(n_paths, dtype=np.int64) * len(retained) // n_paths]
    both_legs = any(r.kind != "F3" for r in requests)  # F3 reads no H_s
    if sequential is None:
        growth = _terminal_growth(thetas, horizons, market, seed, both_legs)
    else:
        growth = _sequential_growth(thetas, horizons, market, seed, sequential, both_legs)
    return requests, growth, min(len(retained), n_paths)


def _terminal_growth(thetas, horizons, market, seed, both_legs):
    """{s: (X_s/x0, H_s/h0 or None)} from one exact terminal draw per path,
    one path per row of ``thetas``."""
    sx, sh, rho = thetas.T
    drift_x, drift_h = risk_neutral_drifts(market, sx, sh, rho)
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(sx.size)
    if both_legs:
        z2 = rng.standard_normal(sx.size)
        shock = rho * z1 + np.sqrt(1.0 - rho * rho) * z2
    growth = {}
    for s in horizons:
        root_s = math.sqrt(s)
        growth_h = np.exp(s * drift_h + root_s * sh * shock) if both_legs else None
        growth[s] = (np.exp(s * drift_x + root_s * sx * z1), growth_h)
    return growth


def _sequential_growth(thetas, horizons, market, seed, settings: SequentialSettings, both_legs):
    """{s: (X_s/x0, H_s/h0 or, unless ``both_legs``, None)} from a daily
    simulation of all paths, one per row of ``thetas``, in lockstep, to s_max.

    Each path carries the sufficient statistics of its extended panel: the
    count T, the means and the centred sums sxx, shh and sxh, updated per
    day by Welford's recurrences (Chan, Golub & LeVeque 1979).
    """
    n = len(thetas)
    panel = settings.panel
    sx, sh, rho = thetas.T
    mean_x = np.full(n, panel.mean_x)
    mean_h = np.full(n, panel.mean_h)
    sxx = np.full(n, panel.sxx)
    shh = np.full(n, panel.shh)
    sxh = np.full(n, panel.sxh)
    log_x = np.zeros(n)
    log_h = np.zeros(n)
    s_max = horizons[-1]
    growth = {0: (np.ones(n), np.ones(n) if both_legs else None)} if horizons[0] == 0 else {}
    rng = np.random.default_rng(seed)
    for j in range(1, s_max + 1):
        if (j - 1) % settings.refresh_interval == 0:  # day 1, or the day after a refresh
            drift_x, drift_h = risk_neutral_drifts(market, sx, sh, rho)
            root = np.sqrt(1.0 - rho * rho)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        x = drift_x + sx * z1
        h = drift_h + sh * (rho * z1 + root * z2)
        log_x += x
        log_h += h
        if j in horizons:
            growth[j] = (np.exp(log_x), np.exp(log_h) if both_legs else None)
        n_obs = panel.n_obs + j
        dx = x - mean_x
        dh = h - mean_h
        mean_x += dx / n_obs
        mean_h += dh / n_obs
        rest_h = h - mean_h
        sxx += dx * (x - mean_x)
        shh += dh * rest_h
        sxh += dx * rest_h
        if j % settings.refresh_interval == 0 and j < s_max:
            try:
                sx, sh, rho = exact_posterior_draws(n_obs, sxx, shh, sxh, rng).T
            except ValueError as exc:
                raise ValueError(f"sequential refresh after day {j}: {exc}") from None
    return growth


def _discounted_payoffs(request, market, growth_x, growth_h):
    spot = request.spot
    h_term = spot.h0 if growth_h is None else spot.h0 * growth_h
    values = payoff(request.kind, spot.x0 * growth_x, h_term, request.strike, market)
    values *= math.exp(-market.r_d * request.horizon_s)  # a new array from payoff
    return values


def closed_form_v3(theta, spot: SpotState, strike_f, horizon_s, market: MarketConfig):
    """Analytic price of the fixed-rate quanto call F3 at fixed parameters
    ``theta``, a :class:`~quanto_bayes.model.Theta`: the quanto value of a
    Black-Scholes call at the drift-adjusted spot X * exp(-rho*sigma_x*sigma_h*s),
    whose forward is the domestic-measure forward. A zero strike collapses to
    the discounted forward exactly.
    """
    if strike_f < 0.0:
        raise ValueError(f"strike must be non-negative, got {strike_f}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    adjusted = spot.x0 * math.exp(-theta.rho * theta.sigma_x * theta.sigma_h * horizon_s)
    # a call struck at zero is worth its spot
    call = adjusted if strike_f == 0.0 else bs_call(adjusted, strike_f, theta.sigma_x,
                                                     market.r_f, horizon_s)
    return quanto_of_call(call, horizon_s, market)


def bs_call(spot_x, strike, vol_per_period, rate_per_period, horizon_s):
    """Standard Black-Scholes call with per-period vol and rate.

    The zero-volatility limit is the discounted intrinsic value.
    """
    if spot_x <= 0.0 or strike <= 0.0:
        raise ValueError("spot and strike must be positive")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    s = float(horizon_s)
    if vol_per_period <= 0.0:
        return max(spot_x - strike * math.exp(-rate_per_period * s), 0.0)
    sd = vol_per_period * math.sqrt(s)
    moneyness = spot_x / strike
    if sys.float_info.min <= moneyness <= sys.float_info.max:
        log_moneyness = math.log(moneyness)
    else:  # the quotient underflowed or overflowed
        log_moneyness = math.log(spot_x) - math.log(strike)
    d1 = (log_moneyness + (rate_per_period + 0.5 * vol_per_period ** 2) * s) / sd
    d2 = d1 - sd
    return spot_x * ndtr(d1) - strike * math.exp(-rate_per_period * s) * ndtr(d2)


# bisection stops once the call price is this close to the quote
_IV_PRICE_TOL = 1e-10


def implied_vol(price, spot_x, strike, rate_per_period, horizon_s):
    """Per-period implied volatility of a call by bisection on [1e-8, 5].

    Prices outside the no-arbitrage band of :func:`model.call_price_band`
    have no solution and raise.
    """
    if spot_x <= 0.0 or strike <= 0.0:
        raise ValueError("spot and strike must be positive")
    lower, upper = call_price_band(spot_x, strike, rate_per_period, horizon_s)
    if price < lower - 1e-12 or price >= upper:
        raise ValueError(
            f"no implied volatility: price {price} outside [{lower}, {upper})"
        )
    lo, hi = 1e-8, 5.0
    if bs_call(spot_x, strike, hi, rate_per_period, horizon_s) < price:
        raise ValueError(f"no implied volatility below {hi} per period for price {price}")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = bs_call(spot_x, strike, mid, rate_per_period, horizon_s) - price
        if abs(diff) <= _IV_PRICE_TOL:
            return mid
        if diff > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14:
            break
    return mid
