import math
import os
from datetime import date, timedelta

import numpy as np
import pytest

from quanto_bayes import inference
from quanto_bayes.data_io import align_series, load_price_series
from quanto_bayes.model import ReturnPanel, Theta, log_returns
from quanto_bayes.pricing import predictive_batch, price_batch

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

TRUTH = Theta(sigma_x=0.006, sigma_h=0.004, rho=-0.03)
DRIFT = (0.0003, 0.0001)  # physical drifts (mu_x, mu_h) per trading day


@pytest.fixture(scope="session", autouse=True)
def _native_cache(tmp_path_factory):
    """The test run, and every command it starts, builds the native library
    into a fresh cache directory instead of the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        inference._native.cache_clear()
        yield
    inference._native.cache_clear()


def synth_returns(theta, drift, n, rng):
    """Correlated bivariate normal return pairs from the model's own mixing,
    under the physical drifts ``drift = (mu_x, mu_h)``."""
    mu_x, mu_h = drift
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = (mu_x - 0.5 * theta.sigma_x ** 2) + theta.sigma_x * z1
    h = (mu_h - 0.5 * theta.sigma_h ** 2) + theta.sigma_h * (
        theta.rho * z1 + math.sqrt(1.0 - theta.rho ** 2) * z2
    )
    return x, h


def synth_panel(n, seed, theta=TRUTH, drift=DRIFT):
    rng = np.random.default_rng(seed)
    return ReturnPanel(*synth_returns(theta, drift, n, rng))


def fixture_panel(window):
    """The last ``window`` returns of the shipped index and EUR/USD series."""
    asset, fx = align_series(load_price_series(os.path.join(FIXTURES, "sp500_synthetic.csv")),
                             load_price_series(os.path.join(FIXTURES, "eur_usd_synthetic.csv")))
    return ReturnPanel(log_returns(asset), log_returns(fx)).tail(window)


def predictive_samples(request, chain, market, n_paths, seed, sequential=None):
    """One request's per-draw discounted payoffs: its one-request batch."""
    return next(predictive_batch([request], chain, market, n_paths, seed, sequential))


def price_one(request, chain, market, n_paths, seed, sequential=None):
    """One request's :class:`PricingResult`: its one-request batch."""
    return next(price_batch([request], chain, market, n_paths, seed, sequential))[0]


@pytest.fixture(scope="session")
def panel_small():
    return synth_panel(500, seed=501)


@pytest.fixture(scope="session")
def panel_large():
    return synth_panel(2000, seed=2001)


# ---------------------------------------------------------------------------
# Tiny CLI workspaces
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "asset_series": "asset.csv",
    "fx_series": "fx.csv",
    "option_chain": "chain.csv",
    "out_dir": "out",
    "r_d_annual": 0.015,
    "r_f_annual": 0.025,
    "h_fix": 1.0,
    "periods_per_year": 252,
    "draws": 1500,
    "burn_in": 300,
    "seed": 7,
    "families": "tnn, mle",
    "n_paths": 3000,
    "mode": "static",
    "refresh_interval": 10,
    "windows": "250",
}


def _business_days(start, count):
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _write_series(path, days, levels, fmt="%.6f"):
    with open(path, "w", encoding="utf-8") as f:
        f.write("date,price\n")
        for d, p in zip(days, levels):
            f.write(f"{d.isoformat()},{fmt % p}\n")


def make_workspace(root, n_days=320, chain_prices=None, **overrides):
    """Small self-consistent data directory plus a config file.

    ``chain_prices`` optionally replaces the generated option prices with
    explicit (strike, maturity_days, price) triples. Returns the config path.
    """
    from quanto_bayes.pricing import bs_call

    root = str(root)
    rng = np.random.default_rng(8888)
    days = _business_days(date(2017, 1, 2), n_days)
    x, h = synth_returns(TRUTH, DRIFT, n_days - 1, rng)
    asset = 2500.0 * np.exp(np.concatenate([[0.0], np.cumsum(x)]))
    fx = 0.85 * np.exp(np.concatenate([[0.0], np.cumsum(h)]))
    _write_series(os.path.join(root, "asset.csv"), days, asset, "%.4f")
    _write_series(os.path.join(root, "fx.csv"), days, fx)

    spot = float(asset[-1])
    quote_day = days[-1]
    if chain_prices is None:
        chain_prices = []
        r_f = 0.025 / 252
        for m in (0.95, 0.99, 1.0, 1.01, 1.05):
            strike = round(spot * m, 1)
            price = bs_call(spot, strike, 0.0062, r_f, 51)
            chain_prices.append((strike, 51, round(price, 4)))
        chain_prices.append((round(spot * 0.7, 1), 51, 1.0))  # below intrinsic
    with open(os.path.join(root, "chain.csv"), "w", encoding="utf-8") as f:
        f.write("quote_date,strike,maturity_days,price,spot\n")
        for strike, maturity, price in chain_prices:
            f.write(f"{quote_day.isoformat()},{strike},{maturity},{price},{spot:.4f}\n")

    settings = dict(DEFAULT_CONFIG)
    settings.update({k: v for k, v in overrides.items()})
    config_path = os.path.join(root, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as f:
        for key, value in settings.items():
            f.write(f"{key} = {value}\n")
    return config_path
