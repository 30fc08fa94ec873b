"""Two-asset market model: correlated lognormal dynamics for a foreign asset
and an exchange rate, observed through per-period log returns.

All quantities are expressed per trading day: volatilities are daily standard
deviations of log returns and rates are daily continuously-compounded rates.
Annualized rates are converted with ``MarketConfig.from_annual`` (divided by
``periods_per_year``); volatilities are estimated from the daily returns
themselves, so none is converted.

The one expression of the domestic risk-neutral return means, with the
quanto drift adjustment, is :func:`risk_neutral_drifts`; the pricer
simulates under it. Every fixed-rate quanto value of a foreign call price
is :func:`quanto_of_call`.
"""

from __future__ import annotations

import math
from datetime import date as Date

import numpy as np

__all__ = [
    "PAYOFF_KINDS",
    "Theta",
    "MarketConfig",
    "SpotState",
    "PriceSeries",
    "ReturnPanel",
    "log_returns",
    "risk_neutral_drifts",
    "quanto_of_call",
    "payoff",
    "call_price_band",
    "ndtr",
]

PAYOFF_KINDS = ("F1", "F2", "F3", "F4")

_SQRT_HALF = math.sqrt(0.5)


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def price_fault(value):
    """The fault of price v: "non-positive price v" at v <= 0, "non-finite
    price v" at inf or NaN, and None when v is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        return f"{'non-positive' if value <= 0.0 else 'non-finite'} price {float(value)!r}"


class _Record:
    """Base of the checked value types. A subclass names its fields in
    ``__slots__``, and its ``__init__`` checks them and passes them here in
    that order. The record is then read-only, and equality, hash, repr and
    pickling go by its fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Theta(_Record):
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

    __slots__ = ("sigma_x", "sigma_h", "rho")

    def __init__(self, sigma_x: float, sigma_h: float, rho: float):
        for name, value in zip(self.__slots__, (sigma_x, sigma_h, rho)):
            _require_finite(name, value)
        if sigma_x <= 0.0:
            raise ValueError(f"sigma_x must be positive, got {sigma_x}")
        if sigma_h <= 0.0:
            raise ValueError(f"sigma_h must be positive, got {sigma_h}")
        if not -1.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {rho}")
        super().__init__(sigma_x, sigma_h, rho)

    as_tuple = _Record._values


class MarketConfig(_Record):
    """Rates and contract constants.

    ``r_d`` and ``r_f`` are the domestic and foreign risk-free rates per
    trading day; ``h_fix`` is the contractual exchange rate of the
    fixed-rate payoff ``F3``.
    """

    __slots__ = ("r_d", "r_f", "h_fix")

    def __init__(self, r_d: float, r_f: float, h_fix: float = 1.0):
        _require_finite("r_d", r_d)
        _require_finite("r_f", r_f)
        _require_finite("h_fix", h_fix)
        if not h_fix > 0.0:
            raise ValueError(f"h_fix must be positive, got {h_fix}")
        super().__init__(r_d, r_f, h_fix)

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


class SpotState(_Record):
    """Current levels of the asset and the exchange rate."""

    __slots__ = ("x0", "h0")

    def __init__(self, x0: float, h0: float):
        if not (math.isfinite(x0) and x0 > 0.0):
            raise ValueError(f"x0 must be positive and finite, got {x0}")
        if not (math.isfinite(h0) and h0 > 0.0):
            raise ValueError(f"h0 must be positive and finite, got {h0}")
        super().__init__(x0, h0)


class PriceSeries(_Record):
    """Strictly positive closing levels on strictly increasing days, as two
    read-only arrays: the prices, and the dates' int64 ordinals ``days`` (as
    ``date.toordinal`` gives them), on which the order is checked and series
    are aligned. Messages and the repr show a day as YYYY-MM-DD. Two series
    compare by the elements of their arrays, and a series has no hash."""

    __slots__ = ("days", "prices")

    def __init__(self, days, prices):
        # own copies: the arrays are frozen, which must not leak to the caller
        days = np.array(days, dtype=np.int64)
        prices = np.array(prices, dtype=float)
        if prices.ndim != 1:
            raise ValueError("prices must be one-dimensional")
        if days.ndim != 1:
            raise ValueError("days must be one-dimensional")
        if days.size != prices.size:
            raise ValueError(f"dates and prices differ in length: {days.size} vs {prices.size}")
        bad = np.nonzero(~(np.isfinite(prices) & (prices > 0.0)))[0]
        if bad.size:
            day = Date.fromordinal(days[bad[0]])
            raise ValueError(f"{price_fault(prices[bad[0]])} on {day}")
        later = np.nonzero(np.diff(days) <= 0)[0]
        if later.size:
            day = Date.fromordinal(days[later[0] + 1])
            raise ValueError(f"dates not strictly increasing at {day}")
        prices.setflags(write=False)
        days.setflags(write=False)
        super().__init__(days, prices)

    def __len__(self):
        return self.days.size

    def __repr__(self):
        if not self.days.size:
            return "PriceSeries(empty)"
        first, last = map(Date.fromordinal, self.days[[0, -1]])
        return f"PriceSeries({len(self)} points, {first}..{last})"


def log_returns(prices):
    """Per-period log returns ln(P_t / P_{t-1}).

    Accepts a :class:`PriceSeries` or any sequence of positive prices.
    Output length is one less than the input length.
    """
    levels = prices.prices if isinstance(prices, PriceSeries) else np.asarray(prices, float)
    if levels.size < 2:
        raise ValueError(
            f"at least 2 prices are required to form returns, got {levels.size}"
        )
    bad = np.nonzero(~(np.isfinite(levels) & (levels > 0.0)))[0]
    if bad.size:
        raise ValueError(f"{price_fault(levels[bad[0]])} at index {bad[0]}")
    return np.diff(np.log(levels))


class ReturnPanel:
    """Aligned per-period log returns of asset (x) and exchange rate (h).

    Sufficient statistics are computed once at construction and reused by
    every posterior-kernel evaluation: the count T (``n_obs``), the sample
    means, the centered sums of squares ``sxx`` and ``shh``, and the
    centered cross sum ``sxh = sum(x_t * h_t) - T * mean_x * mean_h``.

    It is not a ``_Record``: most of its slots are statistics derived from
    the returns, not its arguments, and it compares and hashes by identity,
    so the ``SequentialSettings`` that holds it can be hashed.
    """

    __slots__ = ("x", "h", "n_obs", "mean_x", "mean_h", "sxx", "shh", "sxh")

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
        object.__setattr__(self, "sxh", float(np.sum(x * h))
                           - self.n_obs * self.mean_x * self.mean_h)

    __setattr__ = __delattr__ = _Record.__setattr__

    def __reduce__(self):  # rebuilds the statistics from the returns, bit for bit
        return ReturnPanel, (self.x, self.h)

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

    def __repr__(self):
        return f"ReturnPanel(T={self.n_obs})"


def risk_neutral_drifts(market: MarketConfig, sigma_x, sigma_h, rho):
    """Per-period return means under the domestic risk-neutral measure.

    The asset return mean carries the quanto adjustment -rho*sigma_x*sigma_h
    on top of the foreign rate; the exchange-rate return mean is the rate
    differential. Both include the usual -sigma**2/2 convexity term. The
    parameters may be floats or equally-shaped arrays, one entry per path.
    """
    mean_x = market.r_f - rho * sigma_x * sigma_h - 0.5 * sigma_x * sigma_x
    mean_h = market.r_d - market.r_f - 0.5 * sigma_h * sigma_h
    return mean_x, mean_h


def quanto_of_call(call_price, horizon_s, market: MarketConfig):
    """Fixed-rate quanto value h_fix * exp((r_f - r_d) * s) * C of a foreign
    call price C, which is discounted at r_f: the F3 price at rho = 0
    (Reiner 1992, "Quanto mechanics")."""
    return market.h_fix * math.exp((market.r_f - market.r_d) * horizon_s) * call_price


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
    if kind == "F3":  # formed in the one array np.subtract makes, unless it makes a scalar
        values = np.subtract(x_terminal, strike)
        values = np.maximum(values, 0.0, out=values if values.ndim else None)
        values *= market.h_fix
        return values
    if kind == "F4":
        return np.multiply(x_terminal, np.maximum(np.subtract(h_terminal, strike), 0.0))
    raise ValueError(f"unknown payoff kind {kind!r}; expected one of {PAYOFF_KINDS}")
