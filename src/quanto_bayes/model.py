"""Two-asset market model: correlated lognormal dynamics for a foreign asset
and an exchange rate, observed through per-period log returns.

All quantities are expressed per trading day: volatilities are daily standard
deviations of log returns and rates are daily continuously-compounded rates.
Annualized rates are converted with ``MarketConfig.from_annual`` (divided by
``periods_per_year``); volatilities are estimated from the daily returns
themselves, so none is converted.

Log densities are the canonical numeric interface; plain densities underflow
for sample sizes in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import Sequence

import numpy as np

__all__ = [
    "PAYOFF_KINDS",
    "Theta",
    "Drift",
    "MarketConfig",
    "SpotState",
    "PriceSeries",
    "ReturnPanel",
    "log_returns",
    "physical_logpdf",
    "risk_neutral_logpdf",
    "risk_neutral_drifts",
    "log_likelihood",
    "simulate_return_pair",
    "payoff",
    "call_price_band",
    "ndtr",
]

PAYOFF_KINDS = ("F1", "F2", "F3", "F4")

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Theta:
    """Volatility and correlation parameters (per trading day).

    Attributes
    ----------
    sigma_x : float
        Volatility of the foreign asset's log return, sigma_x > 0.
    sigma_h : float
        Volatility of the exchange-rate log return, sigma_h > 0.
    rho : float
        Correlation between the two driving Brownian shocks, -1 < rho < 1.
    """

    sigma_x: float
    sigma_h: float
    rho: float

    def __post_init__(self):
        for name in ("sigma_x", "sigma_h", "rho"):
            _require_finite(name, getattr(self, name))
        if self.sigma_x <= 0.0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x}")
        if self.sigma_h <= 0.0:
            raise ValueError(f"sigma_h must be positive, got {self.sigma_h}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")

    def as_tuple(self):
        return (self.sigma_x, self.sigma_h, self.rho)


@dataclass(frozen=True)
class Drift:
    """Physical-measure drifts (per trading day) of asset and exchange rate."""

    mu_x: float
    mu_h: float

    def __post_init__(self):
        _require_finite("mu_x", self.mu_x)
        _require_finite("mu_h", self.mu_h)


@dataclass(frozen=True)
class MarketConfig:
    """Rates and contract constants.

    ``r_d`` and ``r_f`` are the domestic and foreign risk-free rates per
    trading day; ``h_fix`` is the contractual exchange rate of the
    fixed-rate payoff ``F3``.
    """

    r_d: float
    r_f: float
    h_fix: float = 1.0

    def __post_init__(self):
        _require_finite("r_d", self.r_d)
        _require_finite("r_f", self.r_f)
        _require_finite("h_fix", self.h_fix)
        if not self.h_fix > 0.0:
            raise ValueError(f"h_fix must be positive, got {self.h_fix}")

    @classmethod
    def from_annual(cls, r_d_annual, r_f_annual, h_fix=1.0, periods_per_year=252):
        """Build a config from annualized rates (divided by periods_per_year)."""
        if periods_per_year <= 0:
            raise ValueError(f"periods_per_year must be positive, got {periods_per_year}")
        return cls(
            r_d=r_d_annual / periods_per_year,
            r_f=r_f_annual / periods_per_year,
            h_fix=h_fix,
        )


def ndtr(x):
    """Standard normal CDF of a float: 0.5 * erfc(-x / sqrt(2)).

    Rounding the scaled argument costs about x^2 ulp of relative accuracy in
    the lower tail, in this and in any other float implementation.
    """
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def call_price_band(spot, strike, rate, horizon_s):
    """No-arbitrage band of a European call price, as (lower, upper).

    A price p admits a finite implied volatility exactly when lower <= p <
    upper, with lower = max(S - K*exp(-r*s), 0) and upper = S; ``rate`` is
    the per-period rate of the call's own currency.
    """
    return max(spot - strike * math.exp(-rate * horizon_s), 0.0), spot


@dataclass(frozen=True)
class SpotState:
    """Current levels of the asset and the exchange rate."""

    x0: float
    h0: float

    def __post_init__(self):
        if not (math.isfinite(self.x0) and self.x0 > 0.0):
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        if not (math.isfinite(self.h0) and self.h0 > 0.0):
            raise ValueError(f"h0 must be positive and finite, got {self.h0}")


class PriceSeries:
    """Dated, strictly positive closing levels with strictly increasing dates."""

    __slots__ = ("dates", "prices")

    def __init__(self, dates: Sequence[Date], prices):
        # own copy: the array is frozen, which must not leak to the caller
        prices = np.array(prices, dtype=float)
        dates = tuple(dates)
        if prices.ndim != 1:
            raise ValueError("prices must be one-dimensional")
        if len(dates) != prices.size:
            raise ValueError(
                f"dates and prices differ in length: {len(dates)} vs {prices.size}"
            )
        bad = np.nonzero(~(np.isfinite(prices) & (prices > 0.0)))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"non-positive price {prices[i]!r} on {dates[i]}")
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise ValueError(f"dates not strictly increasing at {cur}")
        prices.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "prices", prices)

    def __setattr__(self, name, value):
        raise AttributeError("PriceSeries is immutable")

    def __len__(self):
        return len(self.dates)

    def __repr__(self):
        if not self.dates:
            return "PriceSeries(empty)"
        return (
            f"PriceSeries({len(self)} points, "
            f"{self.dates[0].isoformat()}..{self.dates[-1].isoformat()})"
        )


def log_returns(prices):
    """Per-period log returns ln(P_t / P_{t-1}).

    Accepts a :class:`PriceSeries` or any sequence of positive prices.
    Output length is one less than the input length.
    """
    if isinstance(prices, PriceSeries):
        levels = prices.prices
        dates = prices.dates
    else:
        levels = np.asarray(prices, dtype=float)
        dates = None
    if levels.size < 2:
        raise ValueError(
            f"at least 2 prices are required to form returns, got {levels.size}"
        )
    bad = np.nonzero(~(np.isfinite(levels) & (levels > 0.0)))[0]
    if bad.size:
        i = int(bad[0])
        where = dates[i].isoformat() if dates is not None else f"index {i}"
        raise ValueError(f"non-positive price {levels[i]!r} at {where}")
    return np.diff(np.log(levels))


class ReturnPanel:
    """Aligned per-period log returns of asset (x) and exchange rate (h).

    Sufficient statistics are computed once at construction and reused by
    every posterior-kernel evaluation: the sample means, the centered sums
    of squares, and the raw cross sum ``sum(x_t * h_t)``.
    """

    __slots__ = ("x", "h", "n_obs", "mean_x", "mean_h", "sxx", "shh", "sum_xh")

    def __init__(self, x, h):
        # own copies: the arrays are frozen, which must not leak to the caller
        x = np.array(x, dtype=float)
        h = np.array(h, dtype=float)
        if x.ndim != 1 or h.ndim != 1:
            raise ValueError("returns must be one-dimensional")
        if x.size != h.size:
            raise ValueError(f"x and h differ in length: {x.size} vs {h.size}")
        if x.size < 2:
            raise ValueError(f"a panel needs at least 2 observations, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
            raise ValueError("returns must be finite")
        x.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n_obs", int(x.size))
        object.__setattr__(self, "mean_x", float(np.mean(x)))
        object.__setattr__(self, "mean_h", float(np.mean(h)))
        object.__setattr__(self, "sxx", float(np.sum((x - self.mean_x) ** 2)))
        object.__setattr__(self, "shh", float(np.sum((h - self.mean_h) ** 2)))
        object.__setattr__(self, "sum_xh", float(np.sum(x * h)))

    def __setattr__(self, name, value):
        raise AttributeError("ReturnPanel is immutable")

    @property
    def cross_moment(self):
        """T * mean_x * mean_h - sum(x_t * h_t), the posterior cross term."""
        return self.n_obs * self.mean_x * self.mean_h - self.sum_xh

    def tail(self, n_obs: int):
        """Panel restricted to the most recent ``n_obs`` return pairs."""
        if not 2 <= n_obs <= self.n_obs:
            raise ValueError(
                f"window must lie in [2, {self.n_obs}], got {n_obs}"
            )
        return ReturnPanel(self.x[-n_obs:], self.h[-n_obs:])

    def extend(self, x_new, h_new):
        """New panel with extra return pairs appended."""
        return ReturnPanel(
            np.concatenate([self.x, np.atleast_1d(x_new)]),
            np.concatenate([self.h, np.atleast_1d(h_new)]),
        )

    def __len__(self):
        return self.n_obs

    def __repr__(self):
        return f"ReturnPanel(T={self.n_obs})"


def _bivariate_normal_logpdf(x, h, mean_x, mean_h, theta: Theta):
    one_minus = 1.0 - theta.rho * theta.rho
    zx = (np.asarray(x, dtype=float) - mean_x) / theta.sigma_x
    zh = (np.asarray(h, dtype=float) - mean_h) / theta.sigma_h
    quad = (zx * zx - 2.0 * theta.rho * zx * zh + zh * zh) / (2.0 * one_minus)
    out = (
        -_LOG_2PI
        - math.log(theta.sigma_x)
        - math.log(theta.sigma_h)
        - 0.5 * math.log(one_minus)
        - quad
    )
    if np.ndim(out) == 0:
        return float(out)
    return out


def physical_logpdf(x_t, h_t, drift: Drift, theta: Theta):
    """Log joint density of one return pair under the physical measure.

    The pair (x_t, h_t) is bivariate normal with means
    ``mu_i - sigma_i**2 / 2`` and correlation ``rho``. Accepts scalars or
    equally-shaped arrays.
    """
    mean_x = drift.mu_x - 0.5 * theta.sigma_x ** 2
    mean_h = drift.mu_h - 0.5 * theta.sigma_h ** 2
    return _bivariate_normal_logpdf(x_t, h_t, mean_x, mean_h, theta)


def risk_neutral_drifts(market: MarketConfig, theta: Theta):
    """Per-period return means under the domestic risk-neutral measure.

    The asset return mean carries the quanto adjustment -rho*sigma_x*sigma_h
    on top of the foreign rate; the exchange-rate return mean is the rate
    differential. Both include the usual -sigma**2/2 convexity term.
    """
    mean_x = market.r_f - theta.rho * theta.sigma_x * theta.sigma_h - 0.5 * theta.sigma_x ** 2
    mean_h = market.r_d - market.r_f - 0.5 * theta.sigma_h ** 2
    return mean_x, mean_h


def risk_neutral_logpdf(x_t, h_t, market: MarketConfig, theta: Theta):
    """Log joint density of one return pair under the domestic risk-neutral measure."""
    mean_x, mean_h = risk_neutral_drifts(market, theta)
    return _bivariate_normal_logpdf(x_t, h_t, mean_x, mean_h, theta)


def log_likelihood(panel: ReturnPanel, drift: Drift, theta: Theta):
    """Physical-measure log likelihood of a full return panel."""
    return float(np.sum(physical_logpdf(panel.x, panel.h, drift, theta)))


def simulate_return_pair(theta: Theta, market: MarketConfig, rng):
    """One (x, h) return draw under the domestic risk-neutral measure.

    Two independent standard normals are consumed from ``rng``; the
    exchange-rate shock is rho*z1 + sqrt(1-rho**2)*z2, mirroring the
    decomposition of the correlated Brownian drivers.
    """
    mean_x, mean_h = risk_neutral_drifts(market, theta)
    z1 = rng.standard_normal()
    z2 = rng.standard_normal()
    x = mean_x + theta.sigma_x * z1
    h = mean_h + theta.sigma_h * (theta.rho * z1 + math.sqrt(1.0 - theta.rho ** 2) * z2)
    return x, h


def payoff(kind, x_terminal, h_terminal, strike, market: MarketConfig):
    """Terminal payoff in domestic currency for one of the four quanto kinds.

    F1: max(H*X - K_d, 0)        asset struck in domestic currency
    F2: H * max(X - K_f, 0)      floating-rate conversion of a foreign call
    F3: H_fix * max(X - K_f, 0)  fixed-rate conversion of a foreign call
    F4: X * max(H - K_H, 0)      asset-linked call on the exchange rate

    Terminal levels may be scalars or arrays; the strike is a scalar.
    """
    if strike < 0.0:
        raise ValueError(f"strike must be non-negative, got {strike}")
    if kind == "F1":
        return np.maximum(np.multiply(h_terminal, x_terminal) - strike, 0.0)
    if kind == "F2":
        return np.multiply(h_terminal, np.maximum(np.subtract(x_terminal, strike), 0.0))
    if kind == "F3":
        return market.h_fix * np.maximum(np.subtract(x_terminal, strike), 0.0)
    if kind == "F4":
        return np.multiply(x_terminal, np.maximum(np.subtract(h_terminal, strike), 0.0))
    raise ValueError(f"unknown payoff kind {kind!r}; expected one of {PAYOFF_KINDS}")
