import math
import os
from datetime import date

import numpy as np
import pytest

from quanto_bayes.cli import main
from quanto_bayes.data_io import (
    InputError,
    OptionQuote,
    align_series,
    filter_options,
    load_option_chain,
    load_price_series,
    moneyness_bucket,
)
from quanto_bayes.model import MarketConfig, PriceSeries, ReturnPanel, log_returns, quanto_of_call
from quanto_bayes.pricing import implied_vol

from conftest import FIXTURES, make_workspace

MARKET = MarketConfig.from_annual(0.015, 0.025, h_fix=1.0, periods_per_year=252)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# load_price_series
# ---------------------------------------------------------------------------

def test_load_well_formed_series(tmp_path):
    path = _write(tmp_path, "p.csv",
                  "date,price\n2018-01-02,100.0\n2018-01-03,101.5\n2018-01-04,99.75\n")
    ps = load_price_series(path)
    assert len(ps) == 3
    assert ps.days[0] == date(2018, 1, 2).toordinal()
    np.testing.assert_allclose(ps.prices, [100.0, 101.5, 99.75])


def test_load_rejects_zero_price(tmp_path):
    path = _write(tmp_path, "p.csv", "date,price\n2018-01-02,100.0\n2018-01-03,0.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_price_series(path)


def test_load_rejects_duplicate_date(tmp_path):
    path = _write(tmp_path, "p.csv",
                  "date,price\n2018-01-02,100.0\n2018-01-02,101.0\n")
    with pytest.raises(ValueError, match="2018-01-02"):
        load_price_series(path)


def test_load_rejects_non_numeric_price(tmp_path):
    path = _write(tmp_path, "p.csv", "date,price\n2018-01-02,100.0\n2018-01-03,abc\n")
    with pytest.raises(ValueError, match="row 3"):
        load_price_series(path)


def test_load_sorts_unordered_rows(tmp_path):
    path = _write(tmp_path, "p.csv",
                  "date,price\n2018-01-04,99.0\n2018-01-02,100.0\n2018-01-03,101.0\n")
    ps = load_price_series(path)
    assert [date.fromordinal(d).isoformat() for d in ps.days.tolist()] == [
        "2018-01-02", "2018-01-03", "2018-01-04"]
    assert ps.prices.tolist() == [100.0, 101.0, 99.0]


def test_load_custom_columns(tmp_path):
    # the header is fixed as date,price
    path = _write(tmp_path, "p.csv", "day,close\n2018-01-02,100.0\n2018-01-03,101.0\n")
    with pytest.raises(ValueError, match="expected columns"):
        load_price_series(path)


def test_loaders_name_the_file_row_past_blank_lines(tmp_path):
    # csv skips the blank line, so the bad record is the file's fourth row
    path = _write(tmp_path, "p.csv", "date,price\n2018-01-02,100.0\n\n2018-01-03,abc\n")
    with pytest.raises(ValueError, match="row 4: non-numeric price"):
        load_price_series(path)
    path = _write(tmp_path, "c.csv", "quote_date,strike,maturity_days,price,spot\n\n"
                                     "2018-10-31,2655,51,nan,2711.74\n")
    with pytest.raises(ValueError, match="row 3: market price"):
        load_option_chain(path)


@pytest.fixture
def pipe():
    """``pipe(text)``: the /dev/fd path of a pipe that holds ``text`` and
    whose write end is closed, so a reader meets its end instead of waiting."""
    ends = []

    def make(text):
        read_end, write_end = os.pipe()
        ends.append(read_end)
        with os.fdopen(write_end, "wb") as f:
            f.write(text.encode("utf-8"))  # well under a pipe's buffer
        return f"/dev/fd/{read_end}"

    yield make
    for end in ends:
        os.close(end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_series_read_from_a_pipe(tmp_path, capsys, pipe):
    # a pipe can be read once: a bad row is named from the one reading
    bad = "date,price\n2018-01-02,100.5\n2018-01-03,-1\n"
    path = pipe(bad)
    with pytest.raises(InputError) as refused:
        load_price_series(path)
    assert str(refused.value) == f"{path}: row 3: non-positive price -1.0"
    series = load_price_series(pipe('date,price\n"2018-01-03",101.25\n"2018-01-02",100.5\n'))
    assert series.days.tolist() == [date(2018, 1, 2).toordinal(), date(2018, 1, 3).toordinal()]
    assert series.prices.tolist() == [100.5, 101.25]
    path = pipe(bad)
    assert main(["estimate", "--config",
                 make_workspace(tmp_path, families="mle", asset_series=path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: row 3: non-positive price -1.0\n"


def test_fixture_series_supports_all_windows():
    asset = load_price_series(os.path.join(FIXTURES, "sp500_synthetic.csv"))
    fx = load_price_series(os.path.join(FIXTURES, "eur_usd_synthetic.csv"))
    assert len(fx) == 1841
    a, f = align_series(asset, fx)
    panel = ReturnPanel(log_returns(a), log_returns(f))
    for window in (140, 740, 1340, 1840):
        assert panel.tail(window).n_obs == window


# ---------------------------------------------------------------------------
# align_series
# ---------------------------------------------------------------------------

def test_align_identical_calendars_unchanged():
    days = [date(2018, 1, d).toordinal() for d in (2, 3, 4)]
    a = PriceSeries(days, [1.0, 2.0, 3.0])
    b = PriceSeries(days, [4.0, 5.0, 6.0])
    a2, b2 = align_series(a, b)
    assert a2.days.tolist() == a.days.tolist() and b2.days.tolist() == b.days.tolist()
    np.testing.assert_array_equal(a2.prices, a.prices)


def test_align_drops_missing_holiday():
    days = [date(2018, 1, d).toordinal() for d in (2, 3, 4)]
    a = PriceSeries(days, [1.0, 2.0, 3.0])
    b = PriceSeries([days[0], days[2]], [4.0, 6.0])
    a2, b2 = align_series(a, b)
    assert a2.days.tolist() == b2.days.tolist() == [days[0], days[2]]
    np.testing.assert_array_equal(a2.prices, [1.0, 3.0])


def test_align_randomized_calendars_matches_set_oracle():
    rng = np.random.default_rng(13)
    all_days = [date(2018, 1, 1).toordinal() + i for i in range(120)]
    for _ in range(20):
        pick_a = sorted(rng.choice(120, size=60, replace=False))
        pick_b = sorted(rng.choice(120, size=70, replace=False))
        a = PriceSeries([all_days[i] for i in pick_a], 1.0 + rng.random(60))
        b = PriceSeries([all_days[i] for i in pick_b], 1.0 + rng.random(70))
        common = sorted(set(a.days.tolist()) & set(b.days.tolist()))
        if not common:
            with pytest.raises(ValueError):
                align_series(a, b)
            continue
        a2, b2 = align_series(a, b)
        assert a2.days.tolist() == common
        assert b2.days.tolist() == common
        assert len(a2) == len(b2) <= min(len(a), len(b))


def test_align_empty_intersection_raises():
    a = PriceSeries([date(2018, 1, 2).toordinal()], [1.0])
    b = PriceSeries([date(2018, 1, 3).toordinal()], [1.0])
    with pytest.raises(ValueError, match="no dates"):
        align_series(a, b)


# ---------------------------------------------------------------------------
# filter_options
# ---------------------------------------------------------------------------

def _quote(strike, maturity, price, spot=2700.0):
    return OptionQuote(quote_date=date(2018, 10, 31), strike=strike,
                       maturity_days=maturity, market_price=price,
                       underlying_spot=spot)


def test_filter_drops_quote_below_intrinsic_bound():
    bad = _quote(2000.0, 30, 100.0)  # bound ~ 700
    good = _quote(2700.0, 30, 40.0)
    retained, rejected = filter_options([bad, good], MARKET)
    assert retained == [good]
    assert rejected == [(bad, "below_lower_bound")]


def test_filter_keeps_deep_itm_at_parity_plus_epsilon():
    spot = 2700.0
    strike = 2000.0
    # the call is on the foreign asset, so parity discounts at r_f
    bound = spot - strike * math.exp(-MARKET.r_f * 30)
    quote = _quote(strike, 30, bound + 0.01)
    retained, rejected = filter_options([quote], MARKET)
    assert retained == [quote] and rejected == []


def test_filter_drops_price_above_spot():
    quote = _quote(2800.0, 30, 2750.0)
    at_spot = _quote(2800.0, 30, 2700.0)
    retained, rejected = filter_options([quote, at_spot], MARKET)
    assert retained == []
    assert [reason for _, reason in rejected] == ["above_spot", "above_spot"]


def test_filter_fixture_chain_matches_hand_check():
    quotes = load_option_chain(os.path.join(FIXTURES, "option_chain_synthetic.csv"))
    assert len(quotes) == 50
    retained, rejected = filter_options(quotes, MARKET)
    # independent application of the European band at r_f and each quote's spot
    expected_kept = [
        q for q in quotes
        if max(q.underlying_spot - q.strike * math.exp(-MARKET.r_f * q.maturity_days), 0.0)
        <= q.market_price < q.underlying_spot
    ]
    assert retained == expected_kept
    assert len(retained) == 47
    assert len(rejected) == 3


def test_filter_band_is_the_implied_vol_band():
    quotes = load_option_chain(os.path.join(FIXTURES, "option_chain_synthetic.csv"))
    strike = 2000.0
    # above the old r_d parity bound, below the r_f one: no implied vol exists
    old_bound = 2700.0 - strike * math.exp(-MARKET.r_d * 30)
    stale = _quote(strike, 30, old_bound + 0.01)
    # inside the band of its own spot, below the band of a 2700 spot
    own_spot = _quote(strike, 30, 2600.0 - strike * math.exp(-MARKET.r_f * 30) + 0.01,
                      spot=2600.0)
    retained, rejected = filter_options([_quote(2700.0, 30, 40.0), stale, own_spot]
                                        + quotes, MARKET)
    assert rejected[0] == (stale, "below_lower_bound")
    assert own_spot in retained
    with pytest.raises(ValueError, match="no implied volatility"):
        implied_vol(stale.market_price, stale.underlying_spot, stale.strike,
                    MARKET.r_f, stale.maturity_days)
    for q in retained:
        vol = implied_vol(q.market_price, q.underlying_spot, q.strike, MARKET.r_f,
                          q.maturity_days)
        assert math.isfinite(vol) and vol > 0.0


def test_filter_subset_and_idempotent():
    quotes = load_option_chain(os.path.join(FIXTURES, "option_chain_synthetic.csv"))
    once, _ = filter_options(quotes, MARKET)
    twice, dropped_again = filter_options(once, MARKET)
    assert twice == once
    assert dropped_again == []
    assert all(q in quotes for q in once)


# ---------------------------------------------------------------------------
# The quanto quote of a call quote: model.quanto_of_call of its price
# ---------------------------------------------------------------------------

def test_construct_quanto_identity_at_zero_rate():
    market = MarketConfig(r_d=0.0, r_f=0.0, h_fix=1.0)
    quote = _quote(2655.0, 51, 105.85)
    assert quanto_of_call(quote.market_price, 51, market) == quote.market_price


def test_construct_quanto_discounts_and_scales():
    # paid at h_fix and discounted at r_d instead of r_f
    market = MarketConfig(MARKET.r_d, MARKET.r_f, h_fix=1.5)
    assert quanto_of_call(105.85, 51, market) == pytest.approx(
        1.5 * math.exp(51 * (MARKET.r_f - MARKET.r_d)) * 105.85, rel=1e-14
    )


def test_construct_quanto_multiplicative_in_h_fix():
    single = quanto_of_call(105.85, 51, MARKET)
    double = quanto_of_call(105.85, 51, MarketConfig(MARKET.r_d, MARKET.r_f, h_fix=2.0))
    assert double == 2.0 * single
    scaled = quanto_of_call(105.85, 51, MarketConfig(MARKET.r_d, MARKET.r_f, h_fix=1.5))
    assert scaled == pytest.approx(1.5 * single, rel=1e-15)


def test_construct_quanto_overflow_raises(tmp_path):
    # the chain loader refuses a quote whose spot's quanto value overflows,
    # which bounds the quanto quote and both baselines
    from quanto_bayes.cli import ExperimentConfig, _load_quotes

    chain = _write(tmp_path, "chain.csv", "quote_date,strike,maturity_days,price,spot\n"
                                          "2018-03-23,2655.0,51,105.85,2711.74\n")
    cfg = ExperimentConfig(option_chain=chain, out_dir=str(tmp_path), h_fix=1e307)
    with pytest.raises(ValueError, match=r"h_fix = 1e\+307 overflow the quanto value .* "
                                         r"quote at strike 2655\.0, maturity_days 51$"):
        _load_quotes(cfg, cfg.market())


# ---------------------------------------------------------------------------
# moneyness buckets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio,bucket", [
    (0.90, "ITM"),
    (0.9799, "ITM"),
    (0.98, "ATM"),
    (1.00, "ATM"),
    (1.02, "ATM"),
    (1.0201, "OTM"),
    (1.10, "OTM"),
])
def test_moneyness_buckets(ratio, bucket):
    assert moneyness_bucket(ratio * 2700.0, 2700.0) == bucket


def test_moneyness_requires_positive_inputs():
    with pytest.raises(ValueError):
        moneyness_bucket(0.0, 2700.0)


# ---------------------------------------------------------------------------
# Quote validation
# ---------------------------------------------------------------------------

def test_option_quote_invariants():
    with pytest.raises(ValueError):
        _quote(-1.0, 30, 10.0)
    with pytest.raises(ValueError):
        _quote(2700.0, 0, 10.0)
    with pytest.raises(ValueError):
        _quote(2700.0, 30, -0.5)
    with pytest.raises(ValueError):
        _quote(2700.0, 30, 10.0, spot=0.0)
    # NaN passes every sign test, so finiteness is checked on its own
    for bad in (float("nan"), float("inf")):
        for args, spot in (((bad, 30, 10.0), 2700.0), ((2700.0, 30, bad), 2700.0),
                           ((2700.0, 30, 10.0), bad)):
            with pytest.raises(ValueError, match="finite"):
                _quote(*args, spot=spot)


@pytest.mark.parametrize("maturity, ok", [("30", True), ("30.0", True), ("30.7", False),
                                          ("nan", False)])
def test_load_option_chain_needs_whole_maturities(tmp_path, maturity, ok):
    path = _write(tmp_path, "chain.csv",
                  "quote_date,strike,maturity_days,price,spot\n"
                  "2018-10-31,2700,51,40,2700\n"
                  f"2018-10-31,2700,{maturity},40,2700\n")
    if ok:
        assert [q.maturity_days for q in load_option_chain(path)] == [51, 30]
    else:
        with pytest.raises(ValueError, match=f"row 3: non-integer maturity_days '{maturity}'"):
            load_option_chain(path)


def test_load_option_chain_fixture():
    quotes = load_option_chain(os.path.join(FIXTURES, "option_chain_synthetic.csv"))
    assert all(q.maturity_days in (30, 51, 90) for q in quotes)
    assert len({q.quote_date for q in quotes}) == 1
