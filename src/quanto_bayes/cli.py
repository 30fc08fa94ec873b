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
them once per quote, BS-H once per estimation window, and each chain adds only
its model columns.

Every run writes a manifest (config echo, seed, versions); outputs contain
no timestamps, so a fixed config and seed reproduce them byte for byte.
Unavailable cells are written as ``NA``.
"""

from __future__ import annotations

import argparse
import functools
import io
import locale  # noqa: F401 - argparse's gettext loads it when main builds the parser
import math
import os
import sys
import warnings
import zlib
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np
# numpy loads these on first use; loading them with the CLI keeps that cost
# out of the command it runs
import numpy.fft  # noqa: F401 - diagnostics' spectral NSE
import numpy.random  # noqa: F401

from .data_io import (
    align_series,
    construct_quanto,
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
from .model import MarketConfig, ReturnPanel, SpotState, Theta, log_returns
from .pricing import (
    PricingRequest,
    SequentialSettings,
    bs_call,
    implied_vol,
    predictive_batch,
    relative_pricing_error,
    summarize_payoffs,
    thinned_draw_count,
)

__all__ = ["ExperimentConfig", "load_config", "main"]

ALL_FAMILIES = FAMILY_CODES + ("mnc", "mle")


class ConfigError(ValueError):
    """Invalid configuration or missing inputs; exit code 1."""


@dataclass
class ExperimentConfig:
    """Run settings; field names double as config-file keys, and a key's
    value has the type of its default."""

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
    # no output reads these two since sequential refreshes draw exactly;
    # they still parse and are checked, so configs that set them keep working
    refresh_draws: int = 2000
    refresh_burn_in: int = 500
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
            raise ConfigError(
                f"need burn_in >= 0 and draws - burn_in >= {MIN_SUMMARY_DRAWS}, "
                f"got draws={self.draws} burn_in={self.burn_in}"
            )
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be positive, got {self.n_paths}")
        if self.mode not in ("static", "sequential-update"):
            raise ConfigError(f"mode must be static or sequential-update, got {self.mode!r}")
        if self.refresh_draws <= self.refresh_burn_in or self.refresh_burn_in < 0:
            raise ConfigError("need refresh_draws > refresh_burn_in >= 0")
        for family in self.families:
            if family not in ALL_FAMILIES:
                raise ConfigError(
                    f"unknown family {family!r} in families; expected a subset of {ALL_FAMILIES}"
                )
        # two returns have a sample correlation of +-1, outside the support
        if not self.windows or any(w < 3 for w in self.windows):
            raise ConfigError(f"windows must be integers >= 3, got {self.windows}")
        # an fx series' file stem names its output cells and its rows
        stems = {}
        for path in self.fx_series:
            stem = _stem(path)
            if stem in stems:
                raise ConfigError(f"fx_series entries {stems[stem]} and {path} share the "
                                  f"file stem {stem!r}, which names their outputs")
            stems[stem] = path
        # The model keys are checked by the constructors a run builds from
        # them, for every family and either mode, on a small stand-in panel:
        # one key at a time, the others at their valid defaults, so that an
        # error names its key.
        defaults = ExperimentConfig()
        for key in _MODEL_KEYS:
            value = getattr(self, key)
            if value == getattr(defaults, key):
                continue
            probe = replace(defaults, **{key: value})
            try:
                probe.market()
                panel = ReturnPanel([0.01, -0.02, 0.015, -0.005], [0.004, 0.002, -0.006, 0.001])
                # a scale that over- or underflows the posterior gives non-finite
                # draws, which Chain refuses; the warnings would only repeat that
                with np.errstate(all="ignore"):
                    conjugate_sample(panel, probe.niw(), 2, 0, seed=0)
                probe.sequential(panel)
                for family in FAMILY_CODES:
                    probe.proposals(family, panel)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"invalid {key} = {value!r}: {exc}") from None

    def market(self):
        return MarketConfig.from_annual(
            self.r_d_annual, self.r_f_annual, self.h_fix, self.periods_per_year
        )

    def niw(self):
        # checked before it scales the identity, whose zeros inf would make nan
        if not math.isfinite(self.mnc_scale):
            raise ValueError(f"scale must be finite, got {self.mnc_scale}")
        return NiwHyperparams(
            kappa=self.mnc_kappa, df=self.mnc_df, scale=self.mnc_scale * np.eye(2)
        )

    def proposals(self, family, panel):
        """The MwG proposal triple of ``family`` on ``panel``."""
        return default_proposals(family, panel, rho_step=self.rho_step, tt_df=self.tt_df,
                                 ig_shape=self.ig_shape or None,
                                 scale_multiplier=self.vol_scale_multiplier)

    def sequential(self, panel):
        """Sequential-update settings on ``panel``."""
        return SequentialSettings(panel=panel, refresh_interval=self.refresh_interval)


_PATH_KEYS = {"asset_series", "fx_series", "option_chain", "out_dir"}
_MODEL_KEYS = ("r_d_annual", "r_f_annual", "h_fix", "periods_per_year", "refresh_interval",
               "rho_step", "tt_df", "ig_shape", "vol_scale_multiplier",
               "mnc_kappa", "mnc_df", "mnc_scale")


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file; '#' starts a comment.

    Relative input paths are resolved against the config file's directory.
    Keyword overrides win over file values.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    try:
        lines = io.StringIO(read_text(path), newline=None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _convert(key, text, base)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {text!r}") from None
    values.update({key: value for key, value in overrides.items() if value is not None})
    cfg = ExperimentConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _convert(key, text, base):
    """Parse ``text`` to the type of ``key``'s default; a tuple key's
    comma-separated elements are paths, window lengths or family codes."""
    default = getattr(ExperimentConfig, key)
    if not isinstance(default, tuple):
        return _resolve(text, base) if key in _PATH_KEYS else type(default)(text)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if key in _PATH_KEYS:
        return tuple(_resolve(p, base) for p in parts)
    return tuple(map(int if key == "windows" else str.lower, parts))


def _resolve(path, base):
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base, path))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "NA"
    if isinstance(value, str):
        # quoted as csv.QUOTE_MINIMAL does, so an error text stays one cell
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        return "NA"
    return "%.12g" % v


def _write_lines(path, header, lines):
    """Write a header row and newline-terminated lines atomically."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    """Write a table atomically; cells are formatted with ``_fmt``."""
    _write_lines(path, header, (",".join(_fmt(cell) for cell in row) + "\n" for row in rows))


def _write_manifest(cfg: ExperimentConfig, command, extra=()):
    from . import __version__

    lines = []
    for key, value in sorted(vars(cfg).items()):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += [*extra, f"quanto_bayes = {__version__}", f"numpy = {np.__version__}",
              "python = %d.%d.%d" % sys.version_info[:3]]
    _write_lines(os.path.join(cfg.out_dir, "manifest.txt"), [f"command = {command}"],
                 (line + "\n" for line in lines))


def _derive_seed(base_seed, *parts):
    ints = [int(base_seed) & 0xFFFFFFFF] + [zlib.crc32(str(p).encode()) for p in parts]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _load_panel(cfg: ExperimentConfig, fx_path):
    """Aligned return panel of the whole history plus the latest aligned fx level."""
    if not cfg.asset_series:
        raise ConfigError("config needs asset_series")
    try:
        asset, fx = load_price_series(cfg.asset_series), load_price_series(fx_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        asset, fx = align_series(asset, fx)
        panel = ReturnPanel(log_returns(asset), log_returns(fx))
    except ValueError as exc:
        raise ConfigError(f"{cfg.asset_series} and {fx_path}: {exc}") from None
    return panel, float(fx.prices[-1])


def _window(panel, window):
    """The most recent ``window`` returns of ``panel``."""
    if window > panel.n_obs:
        raise ConfigError(f"window {window} exceeds the {panel.n_obs} available returns")
    return panel.tail(window)


def _first_panel(cfg: ExperimentConfig):
    """The first window of the first fx series, which ``estimate`` and
    ``price`` read, with the latest aligned fx level."""
    if not cfg.fx_series:
        raise ConfigError("config needs at least one fx_series entry")
    history, h_level = _load_panel(cfg, cfg.fx_series[0])
    return _window(history, cfg.windows[0]), h_level


def _sample_family(family, panel, cfg: ExperimentConfig, seed) -> Chain:
    if family == "mnc":
        return conjugate_sample(panel, cfg.niw(), cfg.draws, cfg.burn_in, seed)
    init = mle_estimate(panel)
    return mwg_sample(panel, cfg.proposals(family, panel), cfg.draws, cfg.burn_in,
                      init=init, seed=seed)


_SUMMARY_HEADER = (
    "family", "parameter", "mean", "std_dev", "hpdi95_lo", "hpdi95_hi",
    "nse", "cd", "acceptance_rate",
)


def _summary_rows(family, chain):
    rows = []
    for name in PARAMETERS:
        s = summarize(chain, name)
        rows.append((family, name, s.mean, s.std_dev, *s.hpdi_95, s.nse, s.cd,
                     s.acceptance_rate))
    return rows


@functools.cache
def _text_tables():
    """The ASCII tables of ``_draws_text``, built at its first call so that
    importing the CLI does not pay for them.

    ``groups[g]`` holds the four digits of ``g < 10_000`` as one uint32 and
    ``groups[10_000 + g]`` the same digits with their trailing zeros made 0
    bytes. ``prefixes[40 * negative + 10 * zeros + lead]`` holds the first
    8 bytes of a value's text as one uint64: its sign, ``0.``, ``zeros``
    zeros and its leading digit, then a 0 byte.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: g's digits
    kept = digits != 0
    for col in (2, 1, 0):  # a digit before a kept one is kept
        kept[:, col] |= kept[:, col + 1]
    groups = np.zeros((2, 10_000, 4), dtype=np.uint8)
    groups[:] = digits + np.uint8(ord("0"))
    groups[1] *= kept
    negative, zeros, lead = np.meshgrid([0, 1], np.arange(4), np.arange(10), indexing="ij")
    prefixes = np.zeros((*lead.shape, 8), dtype=np.uint8)
    prefixes[..., 0] = ord("-") * negative
    prefixes[..., 1] = ord("0")
    prefixes[..., 2] = ord(".")
    prefixes[..., 3:6] = np.where(zeros[..., None] > np.arange(3), ord("0"), 0)
    prefixes[..., 6] = ord("0") + lead
    tables = groups.view(np.uint32).ravel(), prefixes.reshape(-1, 8).view(np.uint64).ravel()
    for table in tables:
        table.setflags(write=False)
    return tables


_DECADES = np.array([1e-3, 1e-2, 1e-1])
_POW10 = np.array([float(10 ** k) for k in range(17, 21)])  # exact: 10**k is a double to k = 22


def _veltkamp_split(a):
    """(hi, lo) with hi + lo == a exactly and each part short enough that
    the product of two parts is exact."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp_split(_POW10)


def _draws_text(rows):
    """``"%.17g,%.17g,%.17g\\n"`` of every row of ``rows``, byte for byte,
    as ASCII bytes, with the number of cells that the ``%`` fallback formatted.

    The bulk path covers 1e-4 <= |v| < 1, where ``%.17g`` prints the sign,
    ``0.``, -d-1 zeros for d = floor(log10|v|) in [-4, -1], then 17
    significant digits without trailing zeros. d is read off by comparing
    |v| with the doubles nearest 1e-3, 1e-2 and 1e-1, and k = 16 - d <= 20,
    so 10**k is exact. Dekker's two-product gives p + e = |v| * 10**k
    exactly; each operation is its own ufunc, so none is fused into a
    multiply-add. Only values with 1e16 + 64 < p < 1e17 - 64 take the bulk
    path. There p is an even integer above 2**53 and |e| <= 8, so |v| * 10**k
    lies in the decade that d assumed and N = p + rint(e) is its correctly
    rounded 17-digit integer, ties to even, with no carry into an 18th
    digit: a misread decade can only fail this guard, never give wrong
    digits. Each value fills a fixed 32-byte slot: an 8-byte prefix (sign,
    ``0.``, zeros, leading digit) and four 4-digit groups, both from tables,
    then its separator. Trailing ``0`` digits and unused bytes are 0 bytes,
    which are dropped at the end.

    Every other value is written into its slot as ``"%.17g" % v``: +-0.0,
    |v| >= 1, |v| < 1e-4, subnormals, non-finite values and the values the
    guard rejects. ``%.17g`` text is at most 24 bytes long.
    """
    digit_groups, prefixes = _text_tables()
    flat = np.ascontiguousarray(rows, dtype=float).ravel()
    mag = np.abs(flat)
    inside = (mag >= 1e-4) & (mag < 1.0)
    m = np.where(inside, mag, 0.5)
    zeros = 3 - np.searchsorted(_DECADES, m, side="right")
    p = m * _POW10[zeros]
    mh, ml = _veltkamp_split(m)
    sh, sl = _POW10_HI[zeros], _POW10_LO[zeros]
    e = ((mh * sh - p) + mh * sl + ml * sh) + ml * sl
    bulk = inside & (p > 1e16 + 64) & (p < 1e17 - 64)
    p = np.where(bulk, p, 5e16)  # keeps the lead digit of a skipped cell in 1..9
    lead, rest = np.divmod(p.astype(np.int64) + np.rint(e).astype(np.int64), 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    groups = np.empty((flat.size, 4), dtype=np.intp)
    np.divmod(hi, 10_000, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lo, 10_000, out=(groups[:, 2], groups[:, 3]))
    # a group followed by zero groups only is spelled without trailing zeros
    groups[:, 3] += 10_000
    tail = groups[:, 3] == 10_000
    for col in (2, 1, 0):
        groups[:, col] += 10_000 * tail
        tail &= groups[:, col] == 10_000

    slots = np.zeros((flat.size, 4), dtype=np.uint64)
    slots[:, 0] = prefixes[40 * (flat < 0.0) + 10 * zeros + lead]
    slots[:, 1:3] = digit_groups[groups].view(np.uint64)
    text = slots.view(np.uint8)
    text[:, 24] = ord(",")
    text[rows.shape[1] - 1::rows.shape[1], 24] = ord("\n")
    fallback = np.flatnonzero(~bulk)
    if fallback.size:
        texts = np.array(["%.17g" % v for v in flat[fallback].tolist()], dtype="S24")
        text[fallback, :24] = texts.view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0"), fallback.size


def _write_draws(path, chain: Chain):
    """Write the post-burn-in draws, one ``%.17g`` row per draw.

    ``Chain`` holds only finite draws, so no cell needs ``_fmt``'s NA case.
    ``_draws_text`` formats the rows in blocks, so no text of the whole
    chain is held in memory; a block's working set stays in cache.
    """
    draws = chain.post_burn_in()
    block = 1024
    _write_lines(path, PARAMETERS, (_draws_text(draws[start:start + block])[0].decode("ascii")
                                    for start in range(0, draws.shape[0], block)))


def _load_draws(path) -> Chain:
    """The draws of a file that ``estimate`` wrote, one row each below the
    header; a malformed file raises, naming the file and its first bad row.

    Line 1 must be the header ``sigma_x,sigma_h,rho``, which names the
    column order; a byte order mark, spaces around a name and a CRLF line
    end are allowed. Only that line is read to check it.
    """
    if not os.path.exists(path):
        raise ConfigError(f"draws file not found: {path}")
    with open(path, "rb") as handle:
        first = handle.readline()
    try:
        header = first.decode("utf-8").removeprefix("\ufeff").rstrip("\r\n")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: row 1: not UTF-8 text") from None
    if [name.strip() for name in header.split(",")] != list(PARAMETERS):
        raise ConfigError(f"{path}: malformed draws file: row 1: expected the header "
                          f"{','.join(PARAMETERS)!r}, got {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy skips empty and comment lines
        try:
            draws = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
            return Chain(draws=draws, burn_in=0,
                         acceptance_counts=np.full(3, draws.shape[0], dtype=int), seed=0)
        except ValueError:
            pass  # the same parser, line by line, finds the first row at fault
        try:
            lines = io.StringIO(read_text(path), newline=None).readlines()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for row, line in enumerate(lines[1:], start=2):
            try:
                values = np.loadtxt([line], delimiter=",", ndmin=2)
                if values.size:  # an empty or comment line holds none
                    Theta(*values.reshape(3).tolist())
            except ValueError:
                raise ConfigError(f"{path}: malformed draws file: row {row}: not three numbers "
                                  f"inside the parameter support: {line.strip()!r}") from None
    raise ConfigError(f"{path}: draws file has no draws")


def _estimate(cfg: ExperimentConfig, panel, out_dir, fx_name, window, seed_parts=(),
              failures=None):
    """Estimate every configured family on ``panel``, yielding (family, chain)
    for each sampled one; ``out_dir``'s summary table is written when the
    iteration ends.

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
                est = mle_estimate(panel)
                rows.extend((family, name, getattr(est, name)) + (None,) * 6
                            for name in PARAMETERS)
                continue
            chain = _sample_family(family, panel, cfg,
                                   _derive_seed(cfg.seed, family, *seed_parts))
            for text in chain.warnings:
                print(f"warning: {family} [{fx_name} w{window}]: {text}", file=sys.stderr)
            rows.extend(_summary_rows(family, chain))
            _write_draws(os.path.join(out_dir, f"draws_{family}.csv"), chain)
        except (ConfigError, ValueError) as exc:
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
    """Estimate every requested family; returns {family: draws-file path}."""
    panel, _ = _first_panel(cfg)
    return {family: os.path.join(cfg.out_dir, f"draws_{family}.csv") for family, _ in
            _estimate(cfg, panel, cfg.out_dir, _stem(cfg.fx_series[0]), cfg.windows[0])}


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
    """Relative pricing error, or None without a price or a positive quote."""
    if price is None or not quanto_market_price > 0.0:
        return None
    return relative_pricing_error(price, quanto_market_price)


def _bs_baseline(market, spot, strike, vol, horizon_s):
    """Black-Scholes call on the foreign asset, paid at ``h_fix`` and
    discounted at the domestic rate."""
    return (math.exp(-market.r_d * horizon_s) * market.h_fix
            * bs_call(spot, strike, vol, market.r_f, horizon_s))


def _quote_table(quotes, market):
    """Pricing rows holding each quote's chain- and panel-free columns.

    These are the quanto quote, the moneyness bucket and the implied-vol
    (BS-I) baseline with its error.
    """
    table = []
    for quote in quotes:
        quanto_price = construct_quanto(quote, market)
        bucket = moneyness_bucket(quote.strike, quote.underlying_spot)
        try:
            vol_i = implied_vol(quote.market_price, quote.underlying_spot,
                                quote.strike, market.r_f, quote.maturity_days)
            bs_i = _bs_baseline(market, quote.underlying_spot, quote.strike, vol_i,
                                quote.maturity_days)
        except ValueError:
            bs_i = None
        table.append(PricingRow(
            quote.strike, quote.maturity_days, quote.underlying_spot, bucket,
            quote.market_price, quanto_price,
            bs_i_price=bs_i, rpe_bs_i=_rpe(bs_i, quanto_price),
        ))
    return table


def _with_bs_h(table, market, panel):
    """``table`` with the historical-vol (BS-H) baseline of ``panel`` filled in."""
    hist_vol = mle_estimate(panel).sigma_x
    rows = []
    for row in table:
        bs_h = _bs_baseline(market, row.spot, row.strike, hist_vol, row.maturity_days)
        rows.append(row._replace(bs_h_price=bs_h,
                                 rpe_bs_h=_rpe(bs_h, row.quanto_market_price)))
    return rows


def _price_chain(cfg, chain, table, market, panel, h_level, seed):
    """Yield each of ``table``'s rows with the model columns of one draws
    source filled in, together with the quote's discounted payoffs."""
    sequential = cfg.sequential(panel) if cfg.mode == "sequential-update" else None
    requests = [PricingRequest(kind="F3", strike=row.strike, horizon_s=row.maturity_days,
                               spot=SpotState(row.spot, h_level), market=market,
                               n_paths=cfg.n_paths, seed=seed)
                for row in table]
    n_effective = thinned_draw_count(chain, cfg.n_paths)
    for row, samples in zip(table, predictive_batch(requests, chain, sequential)):
        result = summarize_payoffs(samples, n_effective)
        yield row._replace(
            model_price=result.price, mc_std_error=result.mc_std_error,
            hpdi99_lo=result.hpdi_99[0], hpdi99_hi=result.hpdi_99[1],
            n_effective_draws=result.n_effective_draws,
            rpe_model=_rpe(result.price, row.quanto_market_price),
        ), samples


def _load_quotes(cfg: ExperimentConfig, market):
    """The quotes of the configured option chain that pass the no-arbitrage
    filter; the rejected ones go to ``filter_report.csv``."""
    if not cfg.option_chain:
        raise ConfigError("config needs option_chain")
    try:
        quotes = load_option_chain(cfg.option_chain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every quote's band, quanto quote and baseline discounts at exp(-r*s)
    longest = max(quote.maturity_days for quote in quotes)
    for key, rate in (("r_d_annual", market.r_d), ("r_f_annual", market.r_f)):
        try:
            math.exp(-rate * longest)
        except OverflowError:
            raise ConfigError(
                f"invalid {key} = {getattr(cfg, key)!r}: its discount factor overflows at "
                f"the longest maturity, {longest} days, of {cfg.option_chain}") from None
    retained, rejected = filter_options(quotes, market)
    if not retained:
        raise ConfigError("no quotes survive the early-exercise filter")
    _write_csv(os.path.join(cfg.out_dir, "filter_report.csv"),
               ("strike", "maturity_days", "reason"),
               [(q.strike, q.maturity_days, reason) for q, reason in rejected])
    return retained


# ``_fmt``'s text for a density row, whose cells are all finite: the strike
# by OptionQuote's check, the bin edges because np.histogram refuses
# non-finite samples, and the maturity and count are ints
_DENSITY_ROW = "%.12g,%d,%.12g,%.12g,%d\n"


def cmd_price(cfg: ExperimentConfig, draws_path):
    """Price the configured option chain with an existing draws file."""
    chain = _load_draws(draws_path)
    market = cfg.market()
    panel, h_level = _first_panel(cfg)
    retained = _load_quotes(cfg, market)

    seed = _derive_seed(cfg.seed, "price", _stem(draws_path))
    table = _with_bs_h(_quote_table(retained, market), market, panel)
    rows = []
    density = []
    for row, samples in _price_chain(cfg, chain, table, market, panel, h_level, seed):
        rows.append(row)
        counts, edges = np.histogram(samples, bins=50)
        edges = edges.tolist()
        density.extend(_DENSITY_ROW % (row.strike, row.maturity_days, lo, hi, count)
                       for lo, hi, count in zip(edges[:-1], edges[1:], counts.tolist()))
    _write_csv(os.path.join(cfg.out_dir, "pricing.csv"), PricingRow._fields, rows)
    _write_lines(os.path.join(cfg.out_dir, "price_density.csv"),
                 ("strike", "maturity_days", "bin_lo", "bin_hi", "count"), density)
    return rows


def cmd_diagnose(cfg: ExperimentConfig, draws_path):
    """Summary table for an existing draws file: estimate's columns less
    the family and the acceptance rate."""
    chain = _load_draws(draws_path)
    if chain.draws.shape[0] < MIN_SUMMARY_DRAWS:
        raise ConfigError(f"{draws_path}: draws file has {chain.draws.shape[0]} draws; "
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
    if not cfg.fx_series:
        raise ConfigError("config needs at least one fx_series entry")
    market = cfg.market()
    retained = _load_quotes(cfg, market)

    # Built once, at the first chain priced; while it fails, every chain's
    # pricing fails with its error.
    quote_table = None
    performance = []
    curves = []
    failures = []
    for fx_path in cfg.fx_series:
        fx_name = _stem(fx_path)
        try:
            history, h_level = _load_panel(cfg, fx_path)
        except (ConfigError, ValueError, OSError) as exc:
            failures.extend((fx_name, window, "*", "panel", str(exc))
                            for window in cfg.windows)
            continue
        for window in cfg.windows:
            cell_dir = os.path.join(cfg.out_dir, "cells", fx_name, f"w{window}")
            try:
                panel = _window(history, window)
            except ConfigError as exc:
                failures.append((fx_name, window, "*", "panel", str(exc)))
                continue
            chains = dict(_estimate(cfg, panel, cell_dir, fx_name, window,
                                    seed_parts=(fx_name, window), failures=failures))

            window_table = None  # the quote table with this window's BS-H
            priced = False
            for family, chain in chains.items():
                try:
                    if window_table is None:
                        if quote_table is None:
                            quote_table = _quote_table(retained, market)
                        window_table = _with_bs_h(quote_table, market, panel)
                    seed = _derive_seed(cfg.seed, "price", family, fx_name, window)
                    rows = [row for row, _ in _price_chain(
                        cfg, chain, window_table, market, panel, h_level, seed)]
                except (ConfigError, ValueError) as exc:
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

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quanto-bayes",
        description="Bayesian estimation and Monte Carlo pricing of quanto options",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("estimate", "run the samplers and emit the parameter summary table"),
        ("price", "price the option chain from an existing draws file"),
        ("experiment", "run the full fx x window x family grid"),
        ("diagnose", "summarize an existing draws file"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--families", default=None,
                       help="comma list from ttn,tnn,ign,mnc,mle")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--mode", default=None, choices=["static", "sequential"],
                       help="pricing mode")
        if name in ("price", "diagnose"):
            p.add_argument("--draws", required=True, help="draws file from 'estimate'")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": os.path.abspath(args.out) if args.out else None,
        "n_paths": args.paths,
        "families": _convert("families", args.families, None) if args.families else None,
        "mode": {"sequential": "sequential-update"}.get(args.mode, args.mode),
    }

    try:
        cfg = load_config(args.config, **overrides)
        if args.command != "diagnose":
            inputs = [cfg.asset_series, *cfg.fx_series]
            if args.command != "estimate":
                inputs.append(cfg.option_chain)
            # an unset key is named by the command itself
            missing = [p for p in inputs if p and not os.path.exists(p)]
            if missing:
                raise ConfigError(f"input files not found: {missing}")
        _write_manifest(cfg, args.command,
                        [f"draws = {args.draws}"] if hasattr(args, "draws") else ())
        if args.command == "estimate":
            cmd_estimate(cfg)
        elif args.command == "price":
            cmd_price(cfg, args.draws)
        elif args.command == "diagnose":
            cmd_diagnose(cfg, args.draws)
        else:
            cmd_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
