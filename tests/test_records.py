"""The value types' contract: read-only slotted records whose equality, hash,
repr and pickling go by their fields, built by keyword as the README does;
records that hold arrays, a chain and a price series, compare them element by
element and have no hash; price series and return panels copy and pickle by
the arguments they were built from; and importing the CLI generates no
dataclass code."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from datetime import date

import numpy as np
import pytest

from quanto_bayes.data_io import OptionQuote
from quanto_bayes.inference import Chain, NiwHyperparams, ProposalSpec
from quanto_bayes.model import MarketConfig, PriceSeries, ReturnPanel, SpotState, Theta
from quanto_bayes.pricing import PricingRequest, SequentialSettings

SPOT = SpotState(x0=2711.74, h0=0.88)
PANEL = ReturnPanel([0.01, -0.02, 0.015, -0.005], [0.004, 0.002, -0.006, 0.001])

# each type with the fields of one valid record, in signature order
RECORDS = {
    Theta: {"sigma_x": 0.006, "sigma_h": 0.004, "rho": -0.1},
    MarketConfig: {"r_d": 0.015 / 252, "r_f": 0.025 / 252, "h_fix": 1.5},
    SpotState: {"x0": 2711.74, "h0": 0.88},
    ProposalSpec: {"family": "truncated_t", "loc": 0.006, "scale": 0.001, "df": 5.0,
                   "shape": None},
    Chain: {"draws": [[0.006, 0.004, 0.1], [0.0061, 0.0041, 0.0]], "burn_in": 1,
            "acceptance_counts": [2, 1, 0], "warnings": ("no accepted moves for rho",)},
    NiwHyperparams: {"kappa": 2.0, "df": 5.0, "scale": 1e-3},
    PricingRequest: {"kind": "F3", "strike": 2655.0, "horizon_s": 51, "spot": SPOT},
    SequentialSettings: {"panel": PANEL, "refresh_interval": 10},
    OptionQuote: {"quote_date": date(2018, 10, 31), "strike": 2655.0, "maturity_days": 51,
                  "market_price": 105.85, "underlying_spot": 2711.74},
}
# a valid change of one field, which makes the record differ
CHANGED = {Theta: ("rho", 0.2), MarketConfig: ("h_fix", 2.0), SpotState: ("h0", 0.9),
           ProposalSpec: ("df", 6.0), NiwHyperparams: ("kappa", 3.0),
           PricingRequest: ("horizon_s", 30), SequentialSettings: ("refresh_interval", 5),
           OptionQuote: ("strike", 2700.0)}
TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def fields_equal(a, b):
    return all(same_value(x, y) for x, y in zip(a, b))


def same_value(x, y):
    """Equality, of arrays by their elements and of panels (which have no
    ``==`` of their own) by their fields."""
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, ReturnPanel):
        return type(y) is ReturnPanel and fields_equal(
            [getattr(x, name) for name in x.__slots__], [getattr(y, name) for name in y.__slots__])
    return x == y


@TYPES
def test_keyword_construction_sets_every_field(cls):
    record = cls(**RECORDS[cls])
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__) == list(RECORDS[cls])
    assert not hasattr(record, "__dict__")
    assert fields_equal([getattr(record, name) for name in cls.__slots__],
                        RECORDS[cls].values())
    assert fields_equal([getattr(cls(*RECORDS[cls].values()), name) for name in cls.__slots__],
                        RECORDS[cls].values())


@TYPES
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = cls(**RECORDS[cls])
    before = [getattr(record, name) for name in cls.__slots__]
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1.0
    assert [getattr(record, name) for name in cls.__slots__] == before


@pytest.mark.parametrize("cls", list(CHANGED), ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    record, twin = cls(**RECORDS[cls]), cls(**RECORDS[cls])
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    name, value = CHANGED[cls]
    other = cls(**{**RECORDS[cls], name: value})
    assert record != other and not record == other
    assert record != tuple(RECORDS[cls].values())


SERIES = {"days": [date(2018, 10, 30).toordinal(), date(2018, 10, 31).toordinal()],
          "prices": [2711.74, 2720.1]}
DRAWS = RECORDS[Chain]["draws"]
# the records that hold arrays, a chain and a price series, each with its
# fields and valid changes of one field that make it differ
ARRAY_RECORDS = [
    (Chain, RECORDS[Chain], [("draws", [DRAWS[0], [0.0061, 0.0041, 0.01]]),
                             ("draws", [DRAWS[0], DRAWS[1], DRAWS[1]]),
                             ("acceptance_counts", [2, 1, 1]), ("burn_in", 0)]),
    (PriceSeries, SERIES, [("prices", [2711.74, 2720.2]),
                           ("days", [SERIES["days"][0], date(2018, 11, 1).toordinal()])]),
]


def test_chain_equals_itself_and_its_arrays_make_it_unhashable():
    for cls, fields, _ in ARRAY_RECORDS:
        record = cls(**fields)
        assert record == record
        with pytest.raises(TypeError):
            hash(record)


def test_chains_compare_by_the_elements_of_their_arrays():
    for cls, fields, changes in ARRAY_RECORDS:
        record, twin = cls(**fields), cls(**fields)
        first = cls.__slots__[0]
        assert getattr(record, first) is not getattr(twin, first)
        assert record == twin and not record != twin
        for name, value in changes:
            other = cls(**{**fields, name: value})
            assert record != other and not record == other, (cls.__name__, name)


@TYPES
def test_repr_names_the_class_and_its_fields(cls):
    record = cls(**RECORDS[cls])
    if cls is Chain:
        shown = {**RECORDS[cls], "draws": record.draws,
                 "acceptance_counts": record.acceptance_counts}
    else:
        shown = RECORDS[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in shown.items())
    assert repr(record) == f"{cls.__name__}({fields})"


@TYPES
def test_copies_and_pickles_keep_the_fields(cls):
    record = cls(**RECORDS[cls])
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert fields_equal([getattr(twin, name) for name in cls.__slots__],
                            [getattr(record, name) for name in cls.__slots__])


PANELS_AND_SERIES = pytest.mark.parametrize("value", [
    PANEL, PriceSeries([date(2018, 10, 30).toordinal(), date(2018, 10, 31).toordinal()],
                       [2711.74, 2720.1]),
], ids=["ReturnPanel", "PriceSeries"])


@PANELS_AND_SERIES
def test_panels_and_series_can_be_neither_assigned_nor_deleted(value):
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            delattr(value, name)
        assert getattr(value, name) is before


@PANELS_AND_SERIES
def test_panels_and_series_copy_and_pickle_with_the_same_statistics(value):
    # a twin is rebuilt from the returns or the dated prices, and so computes
    # every statistic and the day ordinals again, bit for bit
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        for name in type(value).__slots__:
            got, expected = getattr(twin, name), getattr(value, name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and not got.flags.writeable
                assert got.tobytes() == expected.tobytes(), name
            else:
                assert type(got) is type(expected) and got == expected, name
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(twin, type(value).__slots__[0], None)


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter, as the benchmark's child process imports the CLI
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, quanto_bayes.cli; print(sorted({'dataclasses'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
