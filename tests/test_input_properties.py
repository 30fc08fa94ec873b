"""Property tests of the input boundary: a malformed config, price series,
option chain or draws file raises, naming the file and the key or file row.

Each example starts from a well-formed file and changes one thing: a cell or
a config value becomes arbitrary text, a cell is dropped, an arbitrary line
is inserted, or a line becomes arbitrary bytes. The loader either accepts the
result or raises its error type; the message names the file and either a
file row at or after the first changed one (a quoted cell may run on to a
later row, and a duplicate date is reported at its second row) or the key or
column at fault.

The loaders are also checked against reference loaders built on
``csv.DictReader``, which they replaced: on files edited in the ways above,
and with quoted cells, short and long rows, repeated header names and blank
lines, both return the same series or quotes or raise the same message.
"""

import csv
import io
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quanto_bayes import data_io
from quanto_bayes.cli import ExperimentConfig, _load_draws, load_config
from quanto_bayes.data_io import (
    OptionQuote,
    _parse_date,
    _parse_float,
    _parse_int,
    load_option_chain,
    load_price_series,
    read_text,
)
from quanto_bayes.inference import FAMILY_CODES, default_proposals, mle_estimate
from quanto_bayes.model import PriceSeries, ReturnPanel

from conftest import DEFAULT_CONFIG, FIXTURES

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12)
LINE_BYTES = st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))

SERIES = ["date,price", "2018-01-02,100.5", "2018-01-03,101.25", "2018-01-04,99.75",
          "2018-01-05,100.0", "2018-01-08,102.5"]
CHAIN = ["quote_date,strike,maturity_days,price,spot",
         "2018-10-31,2600,51,160.2,2711.74", "2018-10-31,2655,51,105.85,2711.74",
         "2018-10-31,2700,51,79.5,2711.74", "2018-10-31,2750,30,40.1,2711.74"]
DRAWS = ["sigma_x,sigma_h,rho", "0.006,0.004,-0.03", "0.0061,0.0041,-0.02",
         "0.0059,0.0039,0.01", "0.006,0.004,0.0"]
CONFIG = [f"{key} = {value}" for key, value in DEFAULT_CONFIG.items()]
CONFIG_KEYS = set(ExperimentConfig._fields)


@st.composite
def edits(draw, lines):
    """(file bytes, first changed file row)."""
    lines = list(lines)
    kind = draw(st.sampled_from(["cell", "drop", "line", "bytes"]))
    if kind == "line":
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(TEXT))
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "bytes":
            data = [line.encode("utf-8", "surrogateescape") for line in lines]
            data[i] = draw(LINE_BYTES)
            return b"\n".join(data) + b"\n", i + 1
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "cell":
            cells[j] = draw(TEXT)
        else:
            del cells[j]
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"), i + 1


def _config_key(line):
    return line.split("#", 1)[0].partition("=")[0].strip()


@st.composite
def config_edits(draw):
    """(file bytes, changed line, its key) of an edit to a config file; a
    "value" edit replaces the text after a line's '=', and a "bytes" edit
    reports the key of the line it replaces."""
    lines = list(CONFIG)
    kind = draw(st.sampled_from(["value", "line", "bytes"]))
    if kind == "bytes":
        i = draw(st.integers(0, len(lines) - 1))
        data = [line.encode() for line in lines]
        data[i] = draw(LINE_BYTES)
        return b"\n".join(data) + b"\n", i + 1, _config_key(lines[i])
    if kind == "line":
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(TEXT))
    else:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].split("=")[0] + "= " + draw(TEXT)
    return ("\n".join(lines) + "\n").encode(), i + 1, _config_key(lines[i])


def _check_loader(tmp_path, edit, load, error, columns):
    """Load an edited file; an error names it and a row at or after the
    first changed one, or, for an edited header, a missing column."""
    data, first_row = edit
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    try:
        load(str(path))
    except error as exc:
        message = str(exc)
        assert str(path) in message, message
        rows = [int(r) for r in re.findall(r"\brow (\d+)", message)]
        if rows:
            assert max(rows) >= first_row, (message, first_row)
        else:
            assert first_row == 1 and any(c in message for c in columns), message


@PROPERTY
@given(edit=edits(SERIES))
def test_malformed_price_series_names_file_and_row(tmp_path, edit):
    _check_loader(tmp_path, edit, load_price_series, ValueError, ["date", "price"])


@PROPERTY
@given(edit=edits(CHAIN))
def test_malformed_option_chain_names_file_and_row(tmp_path, edit):
    _check_loader(tmp_path, edit, load_option_chain, ValueError, CHAIN[0].split(","))


@PROPERTY
@given(edit=edits(DRAWS))
def test_malformed_draws_file_names_file_and_row(tmp_path, edit):
    # a draws file's header row is not read, so only a data row can be at fault
    _check_loader(tmp_path, edit, _load_draws, data_io.InputError, [])


_BURN_IN = list(DEFAULT_CONFIG).index("burn_in")


@PROPERTY
@given(edit=config_edits())
# a blank burn_in line leaves burn_in at its default, above draws; the error
# names the file and the key but no line
@example(edit=(b"\n".join(b"" if i == _BURN_IN else line.encode()
                          for i, line in enumerate(CONFIG)) + b"\n", _BURN_IN + 1, "burn_in"))
def test_malformed_config_names_file_and_key_or_row(tmp_path, edit):
    data, line, key = edit
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    try:
        load_config(str(path))
    except data_io.InputError as exc:
        message = str(exc)
        assert str(path) in message, message
        assert (f"{path}:{line}:" in message or f"row {line}:" in message
                or (key in CONFIG_KEYS and key in message)), (message, line, key)


POSITIVE = st.floats(0.1, 10.0) | st.floats(min_value=0.0, exclude_min=True,
                                            allow_infinity=False)


@st.composite
def return_pairs(draw):
    """(x, h): arbitrary finite floats, or normals of any length and scale."""
    if draw(st.booleans()):
        value = st.floats(-1.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False)
        return zip(*draw(st.lists(st.tuples(value, value), min_size=3, max_size=30)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = [[draw(st.floats(1e-4, 1.0) | st.floats(1e-150, 1e150))] for _ in "xh"]
    return rng.standard_normal((2, draw(st.integers(3, 2000)))) * scales


@PROPERTY
@given(pairs=return_pairs(), multiplier=POSITIVE,
       tt_df=st.floats(min_value=2.0, exclude_min=True, allow_infinity=False))
def test_default_proposals_never_build_a_truncated_spec_more_than_a_scale_below_zero(
        pairs, multiplier, tt_df):
    # every truncated proposal is centred on a positive MLE, so -loc/scale < 0
    # and ProposalSpec's -loc/scale <= 1 refuses none that a config can build
    x, h = pairs
    with np.errstate(all="ignore"):  # sums of huge returns overflow to a refused panel
        panel = ReturnPanel(x, h)
        try:
            mle_estimate(panel)
        except (ValueError, ArithmeticError):  # as the config check catches them
            return
        for code in FAMILY_CODES:
            try:
                specs = default_proposals(code, panel, tt_df=tt_df, scale_multiplier=multiplier)
            except (ValueError, ArithmeticError) as exc:
                # a multiplier whose scale or square over- or underflows was
                # refused before, as the config check refuses it, and still is
                assert "-loc/scale" not in str(exc), str(exc)
                continue
            for spec in specs[:2]:
                assert spec.family == "inverse_gamma" or -spec.loc / spec.scale < 0.0


# ---------------------------------------------------------------------------
# Reference loaders: the csv.DictReader implementation the loaders replaced
# ---------------------------------------------------------------------------

def _reference_records(path):
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""), restval="")

    def failed(exc):
        return data_io.InputError(f"{path}: row {reader.reader.line_num}: {exc}")

    def records():
        try:
            for record in reader:
                yield reader.line_num, record
        except csv.Error as exc:
            raise failed(exc) from None

    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise failed(exc) from None
    return header, records()


def reference_load_price_series(path):
    rows = []
    seen = {}
    header, records = _reference_records(path)
    if not {"date", "price"} <= set(header or ()):
        raise data_io.InputError(f"{path}: expected columns 'date' and 'price', got {header}")
    for i, record in records:
        try:
            day = _parse_date(record["date"], i)
            price = _parse_float(record["price"], i, "price")
            if day in seen:
                raise ValueError(f"duplicate date {day.isoformat()} at row {i}")
            if price <= 0.0:
                raise ValueError(f"row {i}: non-positive price {price!r}")
            if not math.isfinite(price):
                raise ValueError(f"row {i}: non-finite price {price!r}")
        except ValueError as exc:
            raise data_io.InputError(f"{path}: {exc}") from None
        seen[day] = price
        rows.append(day)
    if not rows:
        raise data_io.InputError(f"{path}: no data rows")
    rows.sort()
    return PriceSeries([d.toordinal() for d in rows], [seen[d] for d in rows])


def _reference_quote(record, row):
    quote_date = _parse_date(record["quote_date"], row)
    strike = _parse_float(record["strike"], row, "strike")
    maturity_days = _parse_int(record["maturity_days"], row, "maturity_days")
    market_price = _parse_float(record["price"], row, "price")
    underlying_spot = _parse_float(record["spot"], row, "spot")
    try:
        return OptionQuote(quote_date, strike, maturity_days, market_price, underlying_spot)
    except ValueError as exc:
        raise ValueError(f"row {row}: {exc}") from None


def reference_load_option_chain(path):
    quotes = []
    columns = ("quote_date", "strike", "maturity_days", "price", "spot")
    header, records = _reference_records(path)
    missing = [c for c in columns if header is None or c not in header]
    if missing:
        raise data_io.InputError(f"{path}: missing columns {missing}")
    for row, record in records:
        try:
            quotes.append(_reference_quote(record, row))
        except ValueError as exc:
            raise data_io.InputError(f"{path}: {exc}") from None
    if not quotes:
        raise data_io.InputError(f"{path}: no data rows")
    return quotes


# a cell text that CSV quoting matters for: separators, quotes and line breaks
QUOTABLE = st.text(st.sampled_from(list(',"\r\n x0123456789.-')), max_size=8)


# a cell one character over the csv module's field size limit, which it refuses
OVER_FIELD_LIMIT = "1" * (csv.field_size_limit() + 1)


@st.composite
def csv_edits(draw, lines):
    """File bytes after one to four edits of ``lines``: any edit of
    ``edits`` or a quoted cell, a short or long row, a repeated or renamed
    header column, blank lines, or a cell over the field size limit."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["edit", "quote", "drop", "extra", "header", "blank",
                                     "oversize"]))
        if kind == "edit":
            data, _ = draw(edits(lines))
            lines = data.decode("utf-8", "surrogateescape").split("\n")[:-1]
            continue
        if kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "")
            continue
        i = 0 if kind == "header" else draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "quote":
            text = draw(st.one_of(st.just(cells[j]), QUOTABLE))
            cells[j] = '"' + text.replace('"', '""') + '"'
        elif kind == "oversize":
            cells[j] = OVER_FIELD_LIMIT
        elif kind == "drop":
            del cells[j:]
        elif kind == "extra":
            cells += draw(st.lists(TEXT.filter(lambda t: "," not in t), min_size=1, max_size=3))
        else:
            names = lines[0].split(",")
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(names)))
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def _outcome(load, path):
    """What ``load`` returns, as plain values, or the type and text of its error."""
    try:
        result = load(path)
    except Exception as exc:  # noqa: BLE001 - any difference is a finding
        return type(exc), str(exc)
    if isinstance(result, PriceSeries):
        return result.days.tolist(), result.prices.tolist()
    return result


def _oversize_cell(lines, i):
    """The file bytes of ``lines`` whose line ``i`` ends in a cell over the
    field size limit."""
    lines = list(lines)
    lines[i] = lines[i].rsplit(",", 1)[0] + "," + OVER_FIELD_LIMIT
    return ("\n".join(lines) + "\n").encode("utf-8")


# as many commas as lines, but row 2 has none and row 3 two
BALANCED_COMMAS = "date,price\n2018-01-02\n100,2018-01-03,101\n"


@PROPERTY
@given(data=csv_edits(SERIES))
@example(data=_oversize_cell(SERIES, 3))
@example(data=BALANCED_COMMAS.encode("utf-8"))
@example(data=b"date,price\n2018\x0001-02,100.5\n")  # numpy reads 2018-01-01
def test_price_series_loader_matches_dictreader_reference(tmp_path, data):
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    assert (_outcome(load_price_series, str(path))
            == _outcome(reference_load_price_series, str(path))), data


@pytest.mark.parametrize("text, error", [
    ("date,price\r\n2018-01-02,100.5\r\n2018-01-03,101.25\r\n", None),
    ("\ufeffdate,price\n2018-01-02,100.5\n", None),
    ('date,price\n"2018-01-02",100.5\n2018-01-03,101.25\n', None),
    ("date,price,volume\n2018-01-02,100.5\n2018-01-03,101.25,7\n", None),
    ("date,price,date\nx,100.5,2018-01-02\ny,101.25,2018-01-03\n", None),
    ("date,price\n\n2018-01-02,100.5\n\n\n2018-01-03,101.25\n", None),
    ("date,price\n 2018-01-02 ,100.5\n", None),
    ("date,price\n2018-01-02,100.5\n20180103,101.25\n", "row 3: invalid ISO date '20180103'"),
    ("date,price\n2018-01-02,100.5\n2018-W01-3,101.25\n",
     "row 3: invalid ISO date '2018-W01-3'"),
    ("date,price\n2018-01-02,100.5\n2018-01-02,101.25\n", "duplicate date 2018-01-02 at row 3"),
    ("date,price\n2018-01-02,2_000.5\n", "row 2: non-numeric price '2_000.5'"),
    # the csv module refuses row 3's cell, but the loader stops at row 2
    ("date,price\n2018-01-02,abc\n2018-01-03," + "1" * 200_000 + "\n",
     "row 2: non-numeric price 'abc'"),
    (BALANCED_COMMAS, "row 2: non-numeric price ''"),
    # the csv module ignores cells past the header's; split at every comma,
    # row 2's would shift row 3's price
    ("date,price\n2018-01-02,100.5,,7\n2018-01-03,101.25\n", None),
    ("date,price\n0000-01-02,100.5\n", "row 2: invalid ISO date '0000-01-02'"),
    ("date,price\n2018-01-02,100.5\n2019-02-29,101.25\n",
     "row 3: invalid ISO date '2019-02-29'"),
    ("date,price\n2O18-01-02,100.5\n", "row 2: invalid ISO date '2O18-01-02'"),
    ("date,price\n+018-01-02,100.5\n", "row 2: invalid ISO date '+018-01-02'"),
    ("date,price\n2018001-02,100.5\n", "row 2: invalid ISO date '2018001-02'"),
    ("price,date\n100.5,2018-01-02\n101.25,2018-01-03\n", None),
    ("date,price\r2018-01-02,100.5\r2018-01-03,101.25\r", None),
    # float reads "100.5\r " as 100.5, but the csv module ends the row at \r
    ("date,price\n2018-01-02,100.5\r \n", "row 3: invalid ISO date ' '"),
    # float reads the cell as 1.0, but the csv module refuses its length
    ("date,price\n2018-01-02,1." + "0" * csv.field_size_limit() + "\n",
     f"row 2: field larger than field limit ({csv.field_size_limit()})"),
], ids=["crlf", "bom", "quoted-date", "short-row", "repeated-date-column", "blank-lines",
        "spaces-around-date", "basic-format-date", "week-date", "duplicate-date",
        "underscore", "field-size-after-bad-row", "balanced-commas", "extra-cells", "year-zero",
        "february-29-2019", "letter-o-in-year", "sign-in-year", "seven-digit-year",
        "price-date-header",
        "lone-cr", "lone-cr-before-space", "finite-price-over-field-size"])
def test_price_series_loader_matches_reference_on_bulk_pass_edges(tmp_path, monkeypatch,
                                                                   text, error):
    path = str(tmp_path / "series.csv")
    with open(path, "wb") as f:
        f.write(text.encode("utf-8"))
    plain = data_io._plain_series(read_text(path)) is not None
    calls = []
    for name in ("read_text", "_parsed_rows"):
        monkeypatch.setattr(data_io, name, lambda *args, real=getattr(data_io, name), name=name:
                            calls.append(name) or real(*args))
    outcome = _outcome(load_price_series, path)
    # the file is decoded once; the row reader reads what the columnar pass refuses
    assert calls == ["read_text"] + ([] if plain else ["_parsed_rows"])
    assert outcome == _outcome(reference_load_price_series, path)
    if error is None:
        assert len(outcome[0]) >= 1
    else:
        assert outcome == (data_io.InputError, f"{path}: {error}")


# each file on either route: the columnar pass, which keeps the name-form
# ids, and the row reader, forced for a check that both build the same series
@pytest.mark.parametrize("name, form, route", [
    pytest.param(name, form, route,
                 id=f"{name}-{form}" + ("-row-reader" if route == "row-reader" else ""))
    for route in ("columnar", "row-reader") for form in ("as-shipped", "newest-first", "crlf")
    for name in ("sp500", "eur_usd", "gbp_usd", "cad_usd")])
def test_shipped_price_series_are_read_without_the_csv_module(tmp_path, monkeypatch, name,
                                                              form, route):
    path = os.path.join(FIXTURES, f"{name}_synthetic.csv")
    if form != "as-shipped":
        with open(path, encoding="utf-8") as f:
            header, *rows = f.read().splitlines()
        if form == "newest-first":
            rows.reverse()
        path = str(tmp_path / "series.csv")
        with open(path, "w", encoding="utf-8", newline="\r\n" if form == "crlf" else "\n") as f:
            f.write("\n".join([header, *rows]) + "\n")
    expected = reference_load_price_series(path)

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    if route == "row-reader":  # the columnar pass turns every file down
        monkeypatch.setattr(data_io, "_plain_series", lambda text: None)
    else:
        monkeypatch.setattr(data_io.csv, "reader", refuse)
    series = load_price_series(path)
    assert len(series) > 1800 and series == expected


@PROPERTY
@given(data=csv_edits(CHAIN))
@example(data=_oversize_cell(CHAIN, 2))
def test_option_chain_loader_matches_dictreader_reference(tmp_path, data):
    path = tmp_path / "chain.csv"
    path.write_bytes(data)
    assert (_outcome(load_option_chain, str(path))
            == _outcome(reference_load_option_chain, str(path))), data
