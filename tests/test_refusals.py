"""Refusals that no other test reaches: each bad argument raises its
message, and a reader's refusal is a ``data_io.InputError``."""

import re
from datetime import date

import numpy as np
import pytest

from quanto_bayes import cli
from quanto_bayes.data_io import InputError, load_price_series
from quanto_bayes.diagnostics import summarize
from quanto_bayes.inference import Chain, NiwHyperparams, ProposalSpec, conjugate_sample
from quanto_bayes.model import MarketConfig, PriceSeries, ReturnPanel, SpotState, Theta
from quanto_bayes.pricing import PricingRequest, bs_call, closed_form_v3, implied_vol

PANEL = ReturnPanel([0.01, -0.02, 0.015, -0.005], [0.004, 0.002, -0.006, 0.001])
THETA = Theta(0.006, 0.004, -0.1)
SPOT = SpotState(2711.74, 0.88)
MARKET = MarketConfig(0.015 / 252, 0.025 / 252, 1.0)
DAYS = [date(2018, 1, 2).toordinal(), date(2018, 1, 3).toordinal()]


def _chain(n_draws, counts=(1, 1, 1)):
    return Chain(draws=np.full((n_draws, 3), [0.006, 0.004, 0.1]), burn_in=0,
                 acceptance_counts=counts)


def _series_with_a_long_header_cell(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("date,price," + "x" * 200_000 + "\n2018-01-02,100.5\n")
    return load_price_series(str(path))


REFUSALS = {
    "proposal-nan-loc": (lambda _: ProposalSpec("truncated_normal", loc=float("nan")),
                         "loc must be finite, got nan"),
    "chain-counts": (lambda _: _chain(4, counts=(1, 2)),
                     "acceptance_counts must be three tallies in [0, K]"),
    "conjugate-no-draws": (lambda _: conjugate_sample(PANEL, NiwHyperparams(), 0, seed=1),
                           "need n_draws >= 1, got 0"),
    "request-negative-horizon": (lambda _: PricingRequest("F3", 2655.0, -1, SPOT),
                                 "horizon_s must be non-negative, got -1"),
    "v3-negative-strike": (lambda _: closed_form_v3(THETA, SPOT, -1.0, 51, MARKET),
                           "strike must be non-negative, got -1.0"),
    "v3-zero-horizon": (lambda _: closed_form_v3(THETA, SPOT, 2655.0, 0, MARKET),
                        "horizon_s must be positive, got 0"),
    "bs-zero-spot": (lambda _: bs_call(0.0, 100.0, 0.01, 0.0, 30),
                     "spot and strike must be positive"),
    "bs-negative-strike": (lambda _: bs_call(100.0, -1.0, 0.01, 0.0, 30),
                           "spot and strike must be positive"),
    "bs-zero-horizon": (lambda _: bs_call(100.0, 100.0, 0.01, 0.0, 0),
                        "horizon_s must be positive, got 0"),
    "iv-zero-spot": (lambda _: implied_vol(1.0, 0.0, 100.0, 0.0, 30),
                     "spot and strike must be positive"),
    "iv-zero-strike": (lambda _: implied_vol(1.0, 100.0, 0.0, 0.0, 30),
                       "spot and strike must be positive"),
    # the band holds the price, and the first bisection price refuses the horizon
    "iv-zero-horizon": (lambda _: implied_vol(1.0, 100.0, 100.0, 0.0, 0),
                        "horizon_s must be positive, got 0"),
    "summarize-nine-draws": (lambda _: summarize(_chain(9)),
                             "too few post-burn-in draws to summarize: 9"),
    "series-2d-prices": (lambda _: PriceSeries(DAYS, [[100.0], [101.0]]),
                         "prices must be one-dimensional"),
    "series-lengths": (lambda _: PriceSeries(DAYS, [100.0]),
                       "dates and prices differ in length: 2 vs 1"),
    "panel-2d-returns": (lambda _: ReturnPanel([[0.01, 0.02]], [[0.0, 0.01]]),
                         "returns must be one-dimensional"),
    "panel-tail": (lambda _: PANEL.tail(5), "window must lie in [2, 4], got 5"),
    "series-header-field-size": (_series_with_a_long_header_cell,
                                 "series.csv: row 1: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_raises_its_message(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$") as refused:
        call(tmp_path)
    assert isinstance(refused.value, InputError) == message.startswith("series.csv")


def test_the_cli_refuses_input_with_the_readers_error_type(tmp_path):
    assert issubclass(InputError, ValueError)
    with pytest.raises(InputError, match="config file not found"):
        cli.load_config(str(tmp_path / "none.cfg"))
