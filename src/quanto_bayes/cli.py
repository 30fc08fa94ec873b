"""Batch front-end: parameter estimation, option pricing and full
experiment grids, driven by a flat ``key = value`` config file.

Subcommands
-----------
estimate    run every requested candidate family and emit a summary table
            plus raw post-burn-in draws files
price       price an option chain from a draws file; emits the pricing
            table, predictive-density histograms and the filter report
experiment  estimate + price over the (fx series x window x family) grid;
            emits per-cell pricing tables and aggregated pricing-performance
            and plot-data files, but no predictive-density histograms
diagnose    summarize an existing draws file

A pricing row's market-side columns (quanto quote, moneyness bucket, BS-I and
BS-H baselines and their errors) do not depend on the chain: each run builds
them once per quote (solving one implied vol per maturity for BS-I), BS-H once
per estimation window, and each chain adds only its model columns. All three
reference prices are ``model.quanto_of_call`` of a call price.

``main`` checks the config file, each flag as the key it sets, and that the
command's input files are set, exist and are no directories, and that no
file stands where an output directory goes; a run it refuses writes nothing.
Every other run writes a manifest (config echo, seed, versions); outputs
contain no timestamps, so a fixed config and seed reproduce them byte for
byte. Unavailable cells are written as ``NA``. Each file is written
atomically through one binary handle: a table as UTF-8 text, a draws file as
the bytes that ``inference._native()``'s ``draws_text`` leaves in its buffer,
which the C writer and its Python twin write alike under any LC_NUMERIC. A
draws file in that form is read back in place, from the bytes read, by its
inverse, ``draws_values``, in one C pass under any LC_NUMERIC; a file in any
other form, or any file when the Python twin runs, is decoded and read by
np.loadtxt, to the same draws.
"""

from __future__ import annotations

import argparse
import codecs
import io
import locale  # noqa: F401 - argparse's gettext loads it when main builds the parser
import math
import os
import sys
import warnings
import zlib
from typing import NamedTuple

import numpy as np
# numpy loads these on first use; loading them with the CLI keeps that cost
# out of the command it runs
import numpy.fft  # noqa: F401 - diagnostics' spectral NSE
import numpy.random  # noqa: F401

from . import inference
from .data_io import (
    InputError,
    align_series,
    filter_options,
    load_option_chain,
    load_price_series,
    moneyness_bucket,
    read_text,
)
from .diagnostics import MIN_SUMMARY_DRAWS, summarize
from .inference import (
    Chain,
    FAMILY_CODES,
    NiwHyperparams,
    PARAMETERS,
    conjugate_sample,
    default_proposals,
    mle_estimate,
    mwg_sample,
)
from .model import MarketConfig, ReturnPanel, SpotState, Theta, log_returns, quanto_of_call
from .pricing import (
    PricingRequest,
    SequentialSettings,
    bs_call,
    implied_vol,
    price_batch,
)

__all__ = ["ExperimentConfig", "load_config", "main"]

ALL_FAMILIES = FAMILY_CODES + ("mnc", "mle")


class ExperimentConfig(NamedTuple):
    """Run settings; field names double as config-file keys, each of which
    changes some output, and a key's value has the type of its default."""

    asset_series: str = ""
    fx_series: tuple = ()
    option_chain: str = ""
    out_dir: str = "out"
    r_d_annual: float = 0.015
    r_f_annual: float = 0.025
    h_fix: float = 1.0
    periods_per_year: int = 252
    draws: int = 300_000
    burn_in: int = 100_000
    seed: int = 0
    families: tuple = ALL_FAMILIES
    n_paths: int = 100_000
    mode: str = "static"
    refresh_interval: int = 10
    windows: tuple = (140,)
    rho_step: float = 0.1
    tt_df: float = 5.0
    ig_shape: float = 0.0  # 0 = size the shape from the sample length
    vol_scale_multiplier: float = 2.0
    mnc_kappa: float = 1.0
    mnc_df: float = 4.0
    mnc_scale: float = 1e-4

    def validate(self):
        if self.burn_in < 0 or self.draws - self.burn_in < MIN_SUMMARY_DRAWS:
            raise InputError(
                f"need burn_in >= 0 and draws - burn_in >= {MIN_SUMMARY_DRAWS}, "
                f"got draws={self.draws} burn_in={self.burn_in}"
            )
        if not 0 <= self.seed <= 0xFFFFFFFF:  # one 32-bit word of every derived seed
            raise InputError(f"seed must lie in [0, 2**32 - 1], got {self.seed}")
        if self.n_paths < 1:
            raise InputError(f"n_paths must be positive, got {self.n_paths}")
        if self.mode not in ("static", "sequential-update"):
            raise InputError(f"mode must be static or sequential-update, got {self.mode!r}")
        if not self.families:
            raise InputError(f"families must list at least one of {ALL_FAMILIES}")
        for family in self.families:
            if family not in ALL_FAMILIES:
                raise InputError(
                    f"unknown family {family!r} in families; expected a subset of {ALL_FAMILIES}"
                )
        # two returns have a sample correlation of +-1, outside the support
        if not self.windows or any(w < 3 for w in self.windows):
            raise InputError(f"windows must be integers >= 3, got {self.windows}")
        # each entry names its output cells and rows, and would be run again
        for key in ("families", "windows"):
            entries = getattr(self, key)
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise InputError(f"{key} lists {entry!r} more than once")
        # an fx series' file stem names its output cells and its rows
        stems = {}
        for path in self.fx_series:
            stem = _stem(path)
            if stem in stems:
                raise InputError(f"fx_series entries {stems[stem]} and {path} share the "
                                 f"file stem {stem!r}, which names their outputs")
            stems[stem] = path
        # The model keys are checked by the constructors a run builds from
        # them, for every family and either mode, on a small stand-in panel:
        # one key at a time, the others at their valid defaults, so that an
        # error names its key.
        for key in _MODEL_KEYS:
            value = getattr(self, key)
            if value == ExperimentConfig._field_defaults[key]:
                continue
            probe = ExperimentConfig(**{key: value})
            try:
                probe.market()
                panel = ReturnPanel([0.01, -0.02, 0.015, -0.005], [0.004, 0.002, -0.006, 0.001])
                mle = mle_estimate(panel)
                # a scale that over- or underflows the posterior is refused, by the
                # sampler or by Chain; the warnings would only repeat that
                with np.errstate(all="ignore"):
                    conjugate_sample(panel, probe.niw(), 2, seed=0)
                probe.sequential(panel)
                for family in FAMILY_CODES:
                    probe.proposals(family, panel, mle)
            except (ValueError, ArithmeticError) as exc:
                raise InputError(f"invalid {key} = {value!r}: {exc}") from None

    def market(self):
        return MarketConfig.from_annual(
            self.r_d_annual, self.r_f_annual, self.h_fix, self.periods_per_year
        )

    def niw(self):
        return NiwHyperparams(kappa=self.mnc_kappa, df=self.mnc_df, scale=self.mnc_scale)

    def proposals(self, family, panel, mle):
        """The MwG proposal triple of ``family`` on ``panel``, whose MLE is ``mle``."""
        return default_proposals(family, panel, rho_step=self.rho_step, tt_df=self.tt_df,
                                 ig_shape=self.ig_shape or None,
                                 scale_multiplier=self.vol_scale_multiplier, mle=mle)

    def sequential(self, panel):
        """Sequential-update settings on ``panel``."""
        return SequentialSettings(panel=panel, refresh_interval=self.refresh_interval)


_PATH_KEYS = {"asset_series", "fx_series", "option_chain", "out_dir"}
# sized the refresh chains that one exact posterior draw replaced; no output reads them
_RETIRED_KEYS = ("refresh_draws", "refresh_burn_in")
_MODEL_KEYS = ("r_d_annual", "r_f_annual", "h_fix", "periods_per_year", "refresh_interval",
               "rho_step", "tt_df", "ig_shape", "vol_scale_multiplier",
               "mnc_kappa", "mnc_df", "mnc_scale")


def load_config(path) -> ExperimentConfig:
    """Parse and check the flat ``key = value`` config file at ``path``;
    '#' starts a comment. Relative input paths resolve against the file's
    directory, a key may be set once, and every error names the file; a
    retired key is ignored. ``main`` applies the flags and checks the input
    files a command reads.
    """
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    if os.path.isdir(path):
        raise InputError(f"config file is a directory: {path}")
    base = os.path.dirname(os.path.abspath(path))
    values = {}
    set_on = {}  # key -> the line that set it
    lines = io.StringIO(read_text(path), newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in ExperimentConfig._fields and key not in _RETIRED_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise InputError(f"{path}:{lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        if key in _RETIRED_KEYS:
            continue
        try:
            values[key] = _convert(key, text, base)
        except ValueError:
            raise InputError(f"{path}:{lineno}: invalid value for {key!r}: {text!r}") from None
    cfg = ExperimentConfig(**values)
    try:
        cfg.validate()
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return cfg


def _convert(key, text, base):
    """Parse ``text`` to the type of ``key``'s default; a tuple key's
    comma-separated elements are paths, window lengths or family codes."""
    default = ExperimentConfig._field_defaults[key]
    if not isinstance(default, tuple):
        return _resolve(text, base) if key in _PATH_KEYS else type(default)(text)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if key in _PATH_KEYS:
        return tuple(_resolve(p, base) for p in parts)
    return tuple(map(int if key == "windows" else str.lower, parts))


def _resolve(path, base):
    if not path:  # it would name the config file's own directory
        raise ValueError("empty path")
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base, path))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if type(value) is float:  # the most common cell, so it is tested first
        return "%.12g" % value if math.isfinite(value) else "NA"
    if value is None:
        return "NA"
    if isinstance(value, str):
        # quoted as csv.QUOTE_MINIMAL does, so an error text stays one cell
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(float(value))  # numpy's floats, as a float


def _write_lines(path, header, lines):
    """Write a header row and newline-terminated lines, each bytes-like (text
    encoded as UTF-8), through one binary handle, atomically; a failed write
    or rename removes its temporary file and re-raises."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    handle = open(tmp, "wb")
    try:
        with handle:
            handle.write((",".join(header) + "\n").encode())
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    """Write a table atomically; cells are formatted with ``_fmt``."""
    _write_lines(path, header, ((",".join(map(_fmt, row)) + "\n").encode() for row in rows))


def _write_manifest(cfg: ExperimentConfig, command, extra=()):
    from . import __version__

    lines = []
    for key, value in sorted(cfg._asdict().items()):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += [*extra, f"quanto_bayes = {__version__}", f"numpy = {np.__version__}",
              "python = %d.%d.%d" % sys.version_info[:3]]
    _write_lines(os.path.join(cfg.out_dir, "manifest.txt"), [f"command = {command}"],
                 ((line + "\n").encode() for line in lines))


def _derive_seed(base_seed, *parts):
    ints = [base_seed] + [zlib.crc32(str(p).encode()) for p in parts]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _cell_dir(cfg: ExperimentConfig, fx_name, window):
    return os.path.join(cfg.out_dir, "cells", fx_name, f"w{window}")


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _load_panel(cfg: ExperimentConfig, fx_path, asset=None):
    """Aligned return panel of the whole history plus the latest aligned fx
    level; ``asset`` is the asset series if it has been read already."""
    if asset is None:
        asset = load_price_series(cfg.asset_series)
    fx = load_price_series(fx_path)
    try:
        asset, fx = align_series(asset, fx)
        panel = ReturnPanel(log_returns(asset), log_returns(fx))
    except ValueError as exc:
        raise InputError(f"{cfg.asset_series} and {fx_path}: {exc}") from None
    return panel, float(fx.prices[-1])


def _window(cfg: ExperimentConfig, fx_path, history, window):
    """The most recent ``window`` returns of ``history``, the aligned returns
    of the asset series and ``fx_path``, and their MLE. A window on which the
    MLE is undefined, such as one over which a series is constant, is refused
    as input: the MwG chains start from the MLE, and BS-H prices with it."""
    if window > history.n_obs:
        raise InputError(f"window {window} exceeds the {history.n_obs} available returns")
    panel = history.tail(window)
    try:
        return panel, mle_estimate(panel)
    except ValueError as exc:
        raise InputError(f"{cfg.asset_series} and {fx_path}: window {window}: {exc}") from None


def _sample_family(family, panel, mle, cfg: ExperimentConfig, seed) -> Chain:
    if family == "mnc":
        return conjugate_sample(panel, cfg.niw(), cfg.draws - cfg.burn_in, seed)
    return mwg_sample(panel, cfg.proposals(family, panel, mle), cfg.draws, cfg.burn_in,
                      init=mle, seed=seed)


_SUMMARY_HEADER = (
    "family", "parameter", "mean", "std_dev", "hpdi95_lo", "hpdi95_hi",
    "nse", "cd", "acceptance_rate",
)


def _summary_rows(family, chain):
    return [(family, name, s.mean, s.std_dev, *s.hpdi_95, s.nse, s.cd, s.acceptance_rate)
            for name, s in summarize(chain).items()]


def _write_draws(path, chain: Chain):
    """Write the post-burn-in draws, one ``%.17g`` row per draw.

    ``Chain`` holds only finite draws, so no cell needs ``_fmt``'s NA case.
    ``inference._native()``'s ``draws_text``, the C writer or its Python
    twin, formats the rows in blocks into one buffer and returns the length
    it wrote, which goes to the file as the writer left it; so no text of the
    whole chain is held in memory, and a block's working set stays in cache.
    """
    draws = chain.post_burn_in()
    block = 1024
    draws_text = inference._native().draws_text
    out = bytearray(25 * 3 * block)
    _write_lines(path, PARAMETERS,
                 (memoryview(out)[:draws_text(draws[start:start + block], out)]
                  for start in range(0, draws.shape[0], block)))


_DRAWS_HEADER = (",".join(PARAMETERS) + "\n").encode()


def _load_draws(path) -> Chain:
    """The draws of a file that ``estimate`` wrote, one row each below the
    header; a malformed file raises, naming the file and its first bad row.

    Line 1 must be the header ``sigma_x,sigma_h,rho``, which names the
    column order; a byte order mark, spaces around a name and a CRLF line
    end are allowed. The file is opened once, and its bytes read once.

    A file in :func:`_write_draws`'s own form (exactly that header, then
    rows of three ``%.17g`` cells, each row ended by ``\n``) is ASCII, and
    its bytes are read in place, from the header's end, in one C pass by
    ``inference._native()``'s ``draws_values``. Any other file, and every
    file on the Python twin, is decoded by ``read_text`` and goes to
    np.loadtxt; both read each cell correctly rounded, so they give the same
    bits. Of a file whose draws ``Chain`` refuses, np.loadtxt, line by line,
    names the first bad row.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    draws = rows = None
    if data.startswith(_DRAWS_HEADER, start):
        draws = inference._native().draws_values(data, start + len(_DRAWS_HEADER))
    if draws is None:
        header, *rows = io.StringIO(read_text(path, data), newline=None).readlines() or [""]
        header = header.rstrip("\n")
        if [name.strip() for name in header.split(",")] != list(PARAMETERS):
            raise InputError(f"{path}: malformed draws file: row 1: expected the header "
                             f"{','.join(PARAMETERS)!r}, got {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy skips empty and comment lines
        try:
            if rows is not None:
                draws = np.loadtxt(rows, delimiter=",", ndmin=2)
            return Chain(draws=draws, burn_in=0,
                         acceptance_counts=np.full(3, draws.shape[0], dtype=int))
        except ValueError:
            pass  # the same parser, line by line, finds the first row at fault
        if rows is None:  # the C reader took them: ASCII lines, each ended by '\n'
            rows = data[start + len(_DRAWS_HEADER):].decode().splitlines()
        for row, line in enumerate(rows, start=2):
            try:
                values = np.loadtxt([line], delimiter=",", ndmin=2)
                if values.size:  # an empty or comment line holds none
                    Theta(*values.reshape(3).tolist())
            except ValueError:
                raise InputError(f"{path}: malformed draws file: row {row}: not three numbers "
                                 f"inside the parameter support: {line.strip()!r}") from None
    raise InputError(f"{path}: draws file has no draws")


def _estimate(cfg: ExperimentConfig, panel, mle, out_dir, fx_name, window, seed_parts=(),
              failures=None):
    """Estimate every configured family on ``panel``, whose MLE is ``mle``,
    yielding (family, chain) for each sampled one; ``out_dir``'s summary table
    is written when the iteration ends.

    Before a chain is yielded, its draws file is written and its health
    warnings are printed to stderr. A family's error propagates, or, given a
    ``failures`` list, becomes a row of it while the other families go on.
    Yielding rather than returning the chains lets a caller that keeps none
    free each one.
    """
    rows = []
    for family in cfg.families:
        try:
            if family == "mle":
                rows.extend((family, name, getattr(mle, name)) + (None,) * 6
                            for name in PARAMETERS)
                continue
            chain = _sample_family(family, panel, mle, cfg,
                                   _derive_seed(cfg.seed, family, *seed_parts))
            for text in chain.warnings:
                print(f"warning: {family} [{fx_name} w{window}]: {text}", file=sys.stderr)
            rows.extend(_summary_rows(family, chain))
            _write_draws(os.path.join(out_dir, f"draws_{family}.csv"), chain)
        except ValueError as exc:
            if failures is None:
                raise
            failures.append((fx_name, window, family, "estimate", str(exc)))
            continue
        yield family, chain
    _write_csv(os.path.join(out_dir, "estimate_summary.csv"), _SUMMARY_HEADER, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_estimate(cfg: ExperimentConfig):
    """Estimate every requested family on the first window of the first fx
    series; returns {family: draws-file path}."""
    history, _ = _load_panel(cfg, cfg.fx_series[0])
    panel, mle = _window(cfg, cfg.fx_series[0], history, cfg.windows[0])
    return {family: os.path.join(cfg.out_dir, f"draws_{family}.csv") for family, _ in
            _estimate(cfg, panel, mle, cfg.out_dir, _stem(cfg.fx_series[0]), cfg.windows[0])}


class PricingRow(NamedTuple):
    """One row of a pricing table; the field names are its CSV header.

    The model columns are None until a chain has priced the quote.
    """

    strike: float
    maturity_days: int
    spot: float
    bucket: str
    market_price: float
    quanto_market_price: float
    model_price: float | None = None
    mc_std_error: float | None = None
    hpdi99_lo: float | None = None
    hpdi99_hi: float | None = None
    n_effective_draws: int | None = None
    bs_i_price: float | None = None
    bs_h_price: float | None = None
    rpe_model: float | None = None
    rpe_bs_i: float | None = None
    rpe_bs_h: float | None = None


def _rpe(price, quanto_market_price):
    """Relative pricing error |price - quote| / quote, or None without a
    price or a positive quote."""
    if price is None or not quanto_market_price > 0.0:
        return None
    return abs(price - quanto_market_price) / quanto_market_price


def _quote_table(quotes, market):
    """Pricing rows holding each quote's chain- and panel-free columns: the
    quanto quote, the moneyness bucket and the implied-vol (BS-I) baseline
    with its error. BS-I prices the quotes of a maturity at the implied vol
    of the one nearest the money (smallest |K/S - 1|, the lower strike on a
    tie); if that solve or a call fails, the maturity's BS-I cells stay empty.
    """
    bs_i_prices = {}
    for s in {quote.maturity_days for quote in quotes}:
        group = [quote for quote in quotes if quote.maturity_days == s]
        atm = min(group, key=lambda q: (abs(q.strike / q.underlying_spot - 1.0), q.strike))
        try:
            vol = implied_vol(atm.market_price, atm.underlying_spot, atm.strike, market.r_f, s)
            bs_i_prices.update({q: quanto_of_call(bs_call(q.underlying_spot, q.strike, vol,
                                                          market.r_f, s), s, market)
                                for q in group})
        except ValueError:
            pass
    table = []
    for quote in quotes:
        quanto_price = quanto_of_call(quote.market_price, quote.maturity_days, market)
        bs_i = bs_i_prices.get(quote)
        table.append(PricingRow(
            quote.strike, quote.maturity_days, quote.underlying_spot,
            moneyness_bucket(quote.strike, quote.underlying_spot),
            quote.market_price, quanto_price,
            bs_i_price=bs_i, rpe_bs_i=_rpe(bs_i, quanto_price),
        ))
    return table


def _with_bs_h(table, market, hist_vol):
    """``table`` with the historical-vol (BS-H) baseline at the asset
    volatility ``hist_vol`` filled in."""
    rows = []
    for row in table:
        s = row.maturity_days
        bs_h = quanto_of_call(bs_call(row.spot, row.strike, hist_vol, market.r_f, s), s, market)
        rows.append(row._replace(bs_h_price=bs_h,
                                 rpe_bs_h=_rpe(bs_h, row.quanto_market_price)))
    return rows


def _price_chain(cfg, chain, table, market, panel, h_level, seed):
    """Yield each of ``table``'s rows with the model columns of one draws
    source filled in, together with the quote's discounted payoffs in
    sorted order."""
    sequential = cfg.sequential(panel) if cfg.mode == "sequential-update" else None
    requests = [PricingRequest(kind="F3", strike=row.strike, horizon_s=row.maturity_days,
                               spot=SpotState(row.spot, h_level)) for row in table]
    priced = price_batch(requests, chain, market, cfg.n_paths, seed, sequential)
    for row, (result, samples) in zip(table, priced):
        yield row._replace(
            model_price=result.price, mc_std_error=result.mc_std_error,
            hpdi99_lo=result.hpdi_99[0], hpdi99_hi=result.hpdi_99[1],
            n_effective_draws=result.n_effective_draws,
            rpe_model=_rpe(result.price, row.quanto_market_price),
        ), samples


def _load_quotes(cfg: ExperimentConfig, market):
    """The quotes of the configured option chain that pass the no-arbitrage
    filter; the rejected ones go to ``filter_report.csv``."""
    quotes = load_option_chain(cfg.option_chain)
    # every quote's band discounts at exp(-r_f*s), and its model price at exp(-r_d*s)
    longest = max(quote.maturity_days for quote in quotes)
    for key, rate in (("r_d_annual", market.r_d), ("r_f_annual", market.r_f)):
        try:
            math.exp(-rate * longest)
        except OverflowError:
            raise InputError(
                f"invalid {key} = {getattr(cfg, key)!r}: its discount factor overflows at "
                f"the longest maturity, {longest} days, of {cfg.option_chain}") from None
    retained, rejected = filter_options(quotes, market)
    if not retained:
        raise InputError(f"{cfg.option_chain}: no quote lies inside the no-arbitrage band")
    # the quote and both baselines are calls below the spot, whose quanto
    # value therefore bounds theirs
    for quote in retained:
        try:
            bound = quanto_of_call(quote.underlying_spot, quote.maturity_days, market)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise InputError(
                f"r_d_annual = {cfg.r_d_annual!r}, r_f_annual = {cfg.r_f_annual!r} and "
                f"h_fix = {cfg.h_fix!r} overflow the quanto value h_fix * exp((r_f - r_d) * s)"
                f" * spot of {cfg.option_chain}'s quote at strike {quote.strike!r}, "
                f"maturity_days {quote.maturity_days}")
    _write_csv(os.path.join(cfg.out_dir, "filter_report.csv"),
               ("strike", "maturity_days", "reason"),
               [(q.strike, q.maturity_days, reason) for q, reason in rejected])
    return retained


def _density_bins(ordered):
    """``np.histogram(ordered, bins=50)`` of ascending samples: 50 equal
    bins over [min, max] (min - 0.5 to max + 0.5 when the two are equal),
    each holding the samples in [lo, hi), the last one closed.

    One searchsorted of the edges counts them. Where np.histogram's own
    arithmetic strays from those bins or raises it decides: non-finite
    samples, edges within a few ulps of each other, or a bin scale
    50 / (max - min) that overflows.
    """
    first, last = float(ordered[0]), float(ordered[-1])
    if first == last:
        first, last = first - 0.5, last + 0.5
    width = last - first
    if not (100 * math.ulp(max(-first, last)) < width < math.inf and 50 / width < math.inf):
        return np.histogram(ordered, bins=50)
    edges = np.linspace(first, last, 51)
    bounds = np.searchsorted(ordered, edges)
    bounds[-1] = ordered.size  # the last bin is closed
    return bounds[1:] - bounds[:-1], edges


def _density_lines(row, counts, edges):
    """``_fmt``'s text of a quote's density rows (strike, maturity_days,
    bin_lo, bin_hi, count). Every cell is an int or finite (the strike by
    OptionQuote's check, the edges because np.histogram refuses non-finite
    samples), so each edge is ``%.12g`` text, formatted once for both rows.
    """
    prefix = "%.12g,%d," % (row.strike, row.maturity_days)
    edges = ["%.12g" % edge for edge in edges.tolist()]
    return [f"{prefix}{lo},{hi},{count}\n"
            for lo, hi, count in zip(edges, edges[1:], counts.tolist())]


def cmd_price(cfg: ExperimentConfig, draws_path):
    """Price the configured option chain with an existing draws file, on the
    first window of the first fx series."""
    chain = _load_draws(draws_path)
    market = cfg.market()
    history, h_level = _load_panel(cfg, cfg.fx_series[0])
    panel, mle = _window(cfg, cfg.fx_series[0], history, cfg.windows[0])
    retained = _load_quotes(cfg, market)

    seed = _derive_seed(cfg.seed, "price", _stem(draws_path))
    table = _with_bs_h(_quote_table(retained, market), market, mle.sigma_x)
    rows = []
    density = []
    for row, samples in _price_chain(cfg, chain, table, market, panel, h_level, seed):
        rows.append(row)
        density += _density_lines(row, *_density_bins(samples))
    _write_csv(os.path.join(cfg.out_dir, "pricing.csv"), PricingRow._fields, rows)
    _write_lines(os.path.join(cfg.out_dir, "price_density.csv"),
                 ("strike", "maturity_days", "bin_lo", "bin_hi", "count"),
                 ["".join(density).encode()])
    return rows


def cmd_diagnose(cfg: ExperimentConfig, draws_path):
    """Summary table for an existing draws file: estimate's columns less
    the family and the acceptance rate."""
    chain = _load_draws(draws_path)
    if chain.draws.shape[0] < MIN_SUMMARY_DRAWS:
        raise InputError(f"{draws_path}: draws file has {chain.draws.shape[0]} draws; "
                         f"diagnose needs at least {MIN_SUMMARY_DRAWS}")
    rows = [row[1:-1] for row in _summary_rows(None, chain)]
    _write_csv(os.path.join(cfg.out_dir, "diagnose_summary.csv"), _SUMMARY_HEADER[1:-1], rows)
    return rows


def cmd_experiment(cfg: ExperimentConfig):
    """Full grid: (fx series x window x family) estimation and pricing.

    Failures are recorded per cell and the grid keeps going; per-bucket
    pricing performance lands in pricing_performance.csv and per-option
    curves in pricing_curves.csv.
    """
    market = cfg.market()
    quote_table = _quote_table(_load_quotes(cfg, market), market)
    performance = []
    curves = []
    failures = []
    try:
        asset = load_price_series(cfg.asset_series)
    except (ValueError, OSError) as exc:
        asset = str(exc)  # the panel of every fx series fails with it
    for fx_path in cfg.fx_series:
        fx_name = _stem(fx_path)
        try:
            if isinstance(asset, str):
                raise InputError(asset)
            history, h_level = _load_panel(cfg, fx_path, asset)
        except (ValueError, OSError) as exc:
            failures.extend((fx_name, window, "*", "panel", str(exc))
                            for window in cfg.windows)
            continue
        for window in cfg.windows:
            cell_dir = _cell_dir(cfg, fx_name, window)
            try:
                panel, mle = _window(cfg, fx_path, history, window)
            except InputError as exc:
                failures.append((fx_name, window, "*", "panel", str(exc)))
                continue
            chains = dict(_estimate(cfg, panel, mle, cell_dir, fx_name, window,
                                    seed_parts=(fx_name, window), failures=failures))

            window_table = None  # the quote table with this window's BS-H
            priced = False
            # one seed per cell: its families price on common random numbers
            seed = _derive_seed(cfg.seed, "price", fx_name, window)
            for family, chain in chains.items():
                try:
                    if window_table is None:
                        window_table = _with_bs_h(quote_table, market, mle.sigma_x)
                    rows = [row for row, _ in _price_chain(
                        cfg, chain, window_table, market, panel, h_level, seed)]
                except ValueError as exc:
                    failures.append((fx_name, window, family, "price", str(exc)))
                    continue
                _write_csv(os.path.join(cell_dir, f"pricing_{family}.csv"),
                           PricingRow._fields, rows)
                priced = True
                _report_model(performance, curves, (fx_name, window), family, rows,
                              "model_price", "rpe_model", "mc_std_error")
            if priced:
                for model in ("bs_i", "bs_h"):
                    _report_model(performance, curves, (fx_name, window), model,
                                  window_table, f"{model}_price", f"rpe_{model}")

    _write_csv(os.path.join(cfg.out_dir, "pricing_performance.csv"),
               ("fx", "window", "model", "bucket", "mean_rpe", "mean_mc_std_error", "n_quotes"),
               performance)
    _write_csv(os.path.join(cfg.out_dir, "pricing_curves.csv"),
               ("fx", "window", "model", "strike", "maturity_days", "quanto_market_price",
                "model_price"), curves)
    _write_csv(os.path.join(cfg.out_dir, "failures.csv"),
               ("fx", "window", "family", "stage", "error"), failures)
    return failures


def _report_model(performance, curves, cell, model, rows, price_field, rpe_field,
                  se_field=None):
    """Append one model's rows of a cell to the performance and curve tables.

    Performance holds the per-bucket means of the ``rpe_field`` and
    ``se_field`` columns, None where a column has no value or no
    ``se_field`` is given; the curve holds each quote's ``price_field``.
    """

    def mean(sel, field):
        values = [getattr(r, field) for r in sel if field and getattr(r, field) is not None]
        return sum(values) / len(values) if values else None

    for bucket in ("ITM", "ATM", "OTM"):
        sel = [r for r in rows if r.bucket == bucket]
        performance.append((*cell, model, bucket, mean(sel, rpe_field), mean(sel, se_field),
                            len(sel)))
    curves.extend((*cell, model, r.strike, r.maturity_days, r.quanto_market_price,
                   getattr(r, price_field)) for r in rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each subcommand: its help, the flags it takes besides --config and --out,
# the config keys naming the files it reads, and its function.
_INPUTS = ("asset_series", "fx_series", "option_chain")
_COMMANDS = {
    "estimate": ("run the samplers and emit the parameter summary table",
                 ("--seed", "--families"), ("asset_series", "fx_series"), cmd_estimate),
    "price": ("price the option chain from an existing draws file",
              ("--seed", "--paths", "--mode", "--draws"), _INPUTS, cmd_price),
    "experiment": ("run the full fx x window x family grid",
                   ("--seed", "--families", "--paths", "--mode"), _INPUTS, cmd_experiment),
    "diagnose": ("summarize an existing draws file", ("--draws",), (), cmd_diagnose),
}

_FLAGS = {
    "--seed": {"type": int, "help": "override the config seed"},
    "--families": {"type": lambda text: _convert("families", text, None),
                   "help": "comma list from ttn,tnn,ign,mnc,mle"},
    "--paths": {"type": int, "help": "override n_paths"},
    "--mode": {"choices": ["static", "sequential"], "help": "pricing mode"},
    "--draws": {"required": True, "help": "draws file from 'estimate'"},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quanto-bayes",
        description="Bayesian estimation and Monte Carlo pricing of quanto options",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, flags, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        # each subcommand takes only the flags that it reads
        p.add_argument("--config", required=True, help="path to the key = value config file")
        p.add_argument("--out", help="override the output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(**{flag[2:]: None for flag in _FLAGS})
    return parser


def main(argv=None):
    """Run one subcommand, checking its config, flags and input paths first."""
    args = _build_parser().parse_args(argv)
    try:
        if args.out == "":  # else the config's out_dir would silently take over
            raise InputError("--out must name an output directory, got ''")
        cfg = load_config(args.config)
        # a flag's value is checked as the key it sets, and its error names the flag
        for flag, key, value in (
            ("--seed", "seed", args.seed),
            ("--out", "out_dir", os.path.abspath(args.out) if args.out else None),
            ("--families", "families", args.families),
            ("--paths", "n_paths", args.paths),
            ("--mode", "mode", {"sequential": "sequential-update"}.get(args.mode, args.mode)),
        ):
            if value is not None:
                cfg = cfg._replace(**{key: value})
                try:
                    cfg.validate()
                except InputError as exc:
                    raise InputError(f"{flag}: {exc}") from None
        _, _, keys, run = _COMMANDS[args.command]
        inputs = []
        for key in keys:
            paths = getattr(cfg, key)
            if not paths:
                raise InputError("config needs " + (
                    "at least one fx_series entry" if key == "fx_series" else key))
            inputs += paths if isinstance(paths, tuple) else [paths]
        draws = () if args.draws is None else (args.draws,)
        paths = (*inputs, *draws)
        # a directory is refused, but not a pipe such as --draws <(...)
        for what, bad in (("not found", [p for p in paths if not os.path.exists(p)]),
                          ("are directories", [p for p in paths if os.path.isdir(p)])):
            if bad:
                raise InputError(f"input files {what}: {bad}")
        # each output directory, or its nearest existing ancestor, must be a directory
        outs = [cfg.out_dir]
        if args.command == "experiment":  # its cell directories lie below out_dir
            outs = [_cell_dir(cfg, _stem(fx), w) for fx in cfg.fx_series for w in cfg.windows]
        for existing in map(os.path.abspath, outs):
            while not os.path.lexists(existing):
                existing = os.path.dirname(existing)
            if not os.path.isdir(existing):
                source = "--out" if args.out else f"{args.config}: out_dir"
                raise InputError(f"{source}: {existing} exists and is not a directory")
        _write_manifest(cfg, args.command, [f"draws = {path}" for path in draws])
        run(cfg, *draws)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
