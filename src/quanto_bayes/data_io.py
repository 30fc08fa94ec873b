"""Loading and preparation of price series and option chains.

File formats are comma-separated with a header row, UTF-8 (a leading byte
order mark is dropped), decimal point:

* price series: ``date,price``;
* option chains: ``quote_date,strike,maturity_days,price,spot``.

Dates are ISO-8601 calendar dates written ``YYYY-MM-DD``, the one form that
``date.fromisoformat`` reads alike on every supported Python. Numbers are
ASCII decimals as ``float`` reads them, without ``_`` digit separators.

A price series in the plain form (the header exactly ``date,price``, LF or
CRLF line ends, no ``"``, every non-blank line ``YYYY-MM-DD,<price>`` with
its one comma at offset 10) is read in one columnar pass: its lines are
split into a date and a price column, and all dates parse in one NumPy
conversion. Every other file, and every plain file that fails a check of
that pass, is read once by the csv module, row by row, which names the
first row at fault or else builds the series from the rows. The columnar
pass accepts no file that the row reader refuses and builds the same
arrays, so files accepted, arrays and messages do not depend on the route.

Each input file is opened and decoded once, so it may be a pipe.

A refused file raises :class:`InputError`, a ``ValueError`` that names the
file and its row or column.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date as Date

import numpy as np

from .model import MarketConfig, PriceSeries, _Record, call_price_band, price_fault

__all__ = [
    "InputError",
    "OptionQuote",
    "load_price_series",
    "load_option_chain",
    "align_series",
    "filter_options",
    "moneyness_bucket",
]


class InputError(ValueError):
    """A refused input file or config; the CLI exits 1 on it."""


class OptionQuote(_Record):
    """One European call quote on the foreign asset."""

    __slots__ = ("quote_date", "strike", "maturity_days", "market_price", "underlying_spot")

    def __init__(self, quote_date: Date, strike: float, maturity_days: int,
                 market_price: float, underlying_spot: float):
        if not (math.isfinite(strike) and strike > 0.0):
            raise ValueError(f"strike must be positive and finite, got {strike}")
        if maturity_days < 1:
            raise ValueError(f"maturity_days must be >= 1, got {maturity_days}")
        if not (math.isfinite(market_price) and market_price >= 0.0):
            raise ValueError(f"market price must be non-negative and finite, got {market_price}")
        if not (math.isfinite(underlying_spot) and underlying_spot > 0.0):
            raise ValueError(f"spot must be positive and finite, got {underlying_spot}")
        super().__init__(quote_date, strike, maturity_days, market_price, underlying_spot)


def read_text(path):
    """The text of a UTF-8 file less one leading byte order mark, which
    spreadsheet exports write; a byte that is not UTF-8 raises, naming the
    file and its row."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        row = len((data[:exc.start] + b"x").splitlines())  # the bad byte's own line counts
        raise InputError(f"{path}: row {row}: not UTF-8 text") from None


def _parse_date(text, row):
    day = text.strip()
    # YYYY-MM-DD alone: from Python 3.11 on, fromisoformat also reads
    # 20110103 and 2011-W01-1, which 3.10 refuses. Of the forms it reads, only
    # YYYY-MM-DD has 10 characters with a '-' at index 7.
    if len(day) == 10 and day[7] == "-":
        try:
            return Date.fromisoformat(day)
        except ValueError:
            pass
    raise ValueError(f"row {row}: invalid ISO date {text!r}")


def _ascii_decimal(text):
    # float also reads PEP 515 underscores and non-ASCII digits
    return text.isascii() and "_" not in text


def _parse_float(text, row, column):
    try:
        if _ascii_decimal(text):
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"row {row}: non-numeric {column} {text!r}")


def _parse_int(text, row, column):
    value = _parse_float(text, row, column)
    if not value.is_integer():
        raise ValueError(f"row {row}: non-integer {column} {text!r}")
    return int(value)


def _parse_quote(cells, at, row):
    quote_date = _parse_date(cells[at[0]], row)
    strike = _parse_float(cells[at[1]], row, "strike")
    maturity_days = _parse_int(cells[at[2]], row, "maturity_days")
    market_price = _parse_float(cells[at[3]], row, "price")
    underlying_spot = _parse_float(cells[at[4]], row, "spot")
    try:
        return OptionQuote(quote_date, strike, maturity_days, market_price, underlying_spot)
    except ValueError as exc:
        raise ValueError(f"row {row}: {exc}") from None


def _parsed_rows(path, text, columns, absent, parse):
    """``parse(cells, at, row)`` of each non-blank data row of ``text``, the
    decoded CSV file at ``path``, in order; ``at`` holds the cell index of
    each of ``columns`` and ``row`` is the line on which the row ends. A
    repeated name reads its last column and a short row reads empty cells.
    Rows are read as they are parsed, so the first row at fault is the one
    named.

    A header that lacks one of ``columns`` raises InputError with the text
    ``absent(header)``, ``header`` being None for an empty file. A parse's
    ValueError, a file without data rows, or a line the csv module cannot
    split, such as one holding a cell over its field size limit, raises
    InputError naming the file.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    parsed = []
    try:
        header = next(reader, None)
        index = {name: i for i, name in enumerate(header or ())}
        if not index.keys() >= set(columns):
            raise ValueError(absent(header))
        at = tuple(index[c] for c in columns)
        width = len(header)
        for cells in reader:
            if cells:
                if len(cells) < width:
                    cells += [""] * (width - len(cells))
                parsed.append(parse(cells, at, reader.line_num))
    except csv.Error as exc:
        raise InputError(f"{path}: row {reader.line_num}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not parsed:
        raise InputError(f"{path}: no data rows")
    return parsed


def _plain_series(text):
    """The series of a file's ``text`` in the plain form, read column by
    column; None, which leaves the file to the row reader, for a file in
    another form or one that fails a check. No cell is quoted, since
    ``float`` refuses a price cell that holds a ``"``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    header, _, body = text.partition("\n")
    if header != "date,price" or "\r" in body:
        return None
    rows = list(filter(None, body.split("\n")))  # csv skips a blank line
    cells = ",".join(rows).split(",")
    n = len(rows)
    limit = csv.field_size_limit()
    try:
        # a comma at offset 10 of each row, and n commas in all: no other
        if "".join([row[10] for row in rows]) != "," * n or len(cells) != 2 * n:
            return None
        days, prices = np.frombuffer("".join(cells[::2]).encode(), "S10"), cells[1::2]
        chars = days.view(np.uint8).reshape(n, 10)  # refuses a non-ASCII date's extra bytes
        # YYYY-MM-DD in ASCII: a uint8 below "0" wraps to above "9"
        if (not (chars[:, [0, 1, 2, 3, 5, 6, 8, 9]] - ord("0") < 10).all()
                or not (chars[:, [4, 7]] == ord("-")).all()
                or not _ascii_decimal("".join(prices))
                # the csv module refuses a cell over its size limit
                or (len(body) > limit and max(map(len, prices)) > limit)):
            return None
        # days since 1970-01-01 to date.toordinal; date refuses year 0000
        days = days.astype("datetime64[D]").astype(np.int64) + 719163
        if days.min() < 1:
            return None
        order = np.argsort(days, kind="stable")
        return PriceSeries(days[order], np.fromiter(map(float, prices), float, n)[order])
    except (IndexError, ValueError):
        return None


def load_price_series(path):
    """Read a ``date,price`` series, sort by date, and validate it.

    Duplicate dates and non-numeric, non-positive or non-finite prices are
    rejected with the file and the offending date or row named.
    """
    text = read_text(path)
    series = _plain_series(text)
    if series is not None:
        return series
    seen = set()

    def parse(cells, at, row):
        day = _parse_date(cells[at[0]], row)
        price = _parse_float(cells[at[1]], row, "price")
        if day in seen:
            raise ValueError(f"duplicate date {day.isoformat()} at row {row}")
        if fault := price_fault(price):
            raise ValueError(f"row {row}: {fault}")
        seen.add(day)
        return day.toordinal(), price

    rows = _parsed_rows(path, text, ("date", "price"),
                        "expected columns 'date' and 'price', got {}".format, parse)
    return PriceSeries(*zip(*sorted(rows)))  # no two rows share a date: date order


def load_option_chain(path):
    """Read an option chain file into a list of quotes.

    Strike, price and spot must be finite numbers and ``maturity_days`` a
    whole number; a bad row raises with the file and the row named.
    """
    columns = ("quote_date", "strike", "maturity_days", "price", "spot")
    return _parsed_rows(path, read_text(path), columns, lambda header: "missing columns "
                        f"{[c for c in columns if c not in (header or ())]}", _parse_quote)


def align_series(a: PriceSeries, b: PriceSeries):
    """Restrict two series to their common dates, order preserved."""
    _, at_a, at_b = np.intersect1d(a.days, b.days, assume_unique=True, return_indices=True)
    if not at_a.size:
        raise ValueError("series share no dates")
    days = a.days[at_a]
    return PriceSeries(days, a.prices[at_a]), PriceSeries(days, b.prices[at_b])


def filter_options(quotes, market: MarketConfig):
    """Drop quotes outside the no-arbitrage band of a call on the foreign asset.

    Each quote is checked against :func:`model.call_price_band` at the
    foreign rate ``r_f`` and its own spot, the band that
    :func:`pricing.implied_vol` solves in. Rejects are returned with a
    reason code (``below_lower_bound`` or ``above_spot``).
    """
    retained = []
    rejected = []
    for quote in quotes:
        lower, upper = call_price_band(quote.underlying_spot, quote.strike,
                                       market.r_f, quote.maturity_days)
        if quote.market_price < lower:
            rejected.append((quote, "below_lower_bound"))
        elif quote.market_price >= upper:
            rejected.append((quote, "above_spot"))
        else:
            retained.append(quote)
    return retained, rejected


def moneyness_bucket(strike, spot):
    """Classify strike/spot into ITM (< 0.98), ATM ([0.98, 1.02]) or OTM (> 1.02)."""
    if strike <= 0.0 or spot <= 0.0:
        raise ValueError("strike and spot must be positive")
    ratio = strike / spot
    if ratio < 0.98:
        return "ITM"
    if ratio > 1.02:
        return "OTM"
    return "ATM"
