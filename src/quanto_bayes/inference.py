"""Samplers and estimators for (sigma_x, sigma_h, rho).

The posterior arises from the bivariate lognormal return model under a
noninformative reference prior, with both drifts integrated out. It reads a
:class:`~quanto_bayes.model.ReturnPanel` only through T, sxx = sum((x-xbar)^2),
shh = sum((h-hbar)^2) and the centred cross sum sxh = sum(x_t*h_t) -
T*xbar*hbar. With C = -sxh and D = 1 - rho^2, its log kernel on sigma_x > 0,
sigma_h > 0, -1 < rho < 1 (and -inf off it) is, up to a constant,

    joint:   -T/2 log D - T log sigma_x - (T-1) log sigma_h
             - sxx / (2 sigma_x^2 D) - shh / (2 sigma_h^2 D) - rho C / (sigma_x sigma_h D)

and each full conditional equals it up to a term free of its parameter:

    sigma_x: -T log sigma_x - sxx / (2 sigma_x^2 D) - rho C / (sigma_x sigma_h D)
    sigma_h: -(T-1) log sigma_h - shh / (2 sigma_h^2 D) - rho C / (sigma_x sigma_h D)
    rho:     -T/2 log D - (sxx / (2 sigma_x^2) + rho^2 shh / (2 sigma_h^2)) / D
             - rho C / (sigma_x sigma_h D)

rho's shh term differs from the joint's by shh / (2 sigma_h^2), constant in
rho. The tests hold these kernels as code (``tests/oracles.py``), the oracle
that both samplers are checked against.

Samplers:

* :func:`mwg_sample` runs a Metropolis-within-Gibbs sweep (sigma_x, sigma_h,
  rho, in that order) with independence proposal densities (truncated
  normal, truncated t or inverse gamma) for the volatilities and a random-walk
  normal step for rho. It works on the panel's sufficient statistics directly:
  each log acceptance ratio is a closed-form difference of the conditional
  kernels, whose candidate-side terms are computed once over each whole
  proposal stream. A proposal density q enters only up to a constant that
  depends on its spec alone, since q(current) / q(candidate) cancels it.
  The tests keep the generic kernel-calling loop as a reference sampler and
  check that both give the same chain bit for bit. Its sweep loop runs in C
  (``_native.c``, compiled on first use) when a compiler is at hand, and in
  Python otherwise, with the same chain either way: :func:`_native` picks
  the route once, for the sweep and for the draws text and its reader alike.
* :func:`exact_posterior_draws` draws exactly from the same posterior, given
  only its sufficient statistics, which may differ from draw to draw: an
  inverse-Wishart partition plus an accept step. The sequential-update
  pricer refreshes every path's parameters with it.
* :func:`conjugate_sample` draws exactly from the Normal-Inverse-Wishart
  conjugate posterior of an unconstrained bivariate normal (MNC baseline),
  under a prior with zero mean and a scale * I scale matrix, by the same
  partition with no accept step. Its draws are independent, so it draws no
  burn-in.
* :func:`mle_estimate` is the closed-form maximum likelihood baseline.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import math
import os
import sys

import numpy as np

from .model import ReturnPanel, Theta, _Record

__all__ = [
    "ProposalSpec",
    "Chain",
    "NiwHyperparams",
    "PARAMETERS",
    "FAMILY_CODES",
    "mwg_sample",
    "exact_posterior_draws",
    "mle_estimate",
    "niw_posterior",
    "conjugate_sample",
    "default_proposals",
]

PARAMETERS = ("sigma_x", "sigma_h", "rho")

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Proposal families
# ---------------------------------------------------------------------------

_FAMILIES = ("truncated_normal", "truncated_t", "inverse_gamma")


class ProposalSpec(_Record):
    """Independence proposal density for one volatility; rho takes a step size.

    Families
    --------
    truncated_normal : N(loc, scale) truncated to (0, inf).
    truncated_t      : Student-t(df, loc, scale) truncated to (0, inf); df > 2.
                       Both truncated families need -loc/scale <= 1.
    inverse_gamma    : sigma^2 ~ InvGamma(shape, scale) with shape > 2,
                       proposing sigma = sqrt(sigma^2); the change of
                       variables is folded into the log density.
    """

    __slots__ = ("family", "loc", "scale", "df", "shape")

    def __init__(self, family: str, loc: float = 0.0, scale: float = 1.0,
                 df: float | None = None, shape: float | None = None):
        if family not in _FAMILIES:
            raise ValueError(f"unknown proposal family {family!r}; expected one of {_FAMILIES}")
        # df and shape first: an inverse-gamma scale is derived from its shape
        if family == "truncated_t":
            if df is None or not (math.isfinite(df) and df > 2.0):
                raise ValueError(f"truncated_t needs a finite df > 2, got {df}")
        if family == "inverse_gamma":
            if shape is None or not shape > 2.0:
                raise ValueError("inverse_gamma needs shape > 2")
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be positive, got {scale}")
        if family in ("truncated_normal", "truncated_t"):
            if not math.isfinite(loc):
                raise ValueError(f"loc must be finite, got {loc}")
            # beyond, fewer than 0.16 of the candidates loc + scale z lie in (0, inf)
            if -loc / scale > 1.0:
                raise ValueError(f"{family} needs -loc/scale <= 1, got loc={loc}, scale={scale}")
        super().__init__(family, loc, scale, df, shape)


def _rho_step(step):
    """rho's random-walk step size, checked: a positive finite float."""
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0.0):
        raise ValueError(f"rho needs a positive finite random-walk step, got {step!r}")
    return float(step)


def _proposal_stream(spec, rng, n_draws):
    """``n_draws`` proposal variates for one parameter, in the sampler's RNG order.

    A step size gives the random-walk normal steps added to the current
    value, and an inverse gamma sqrt(scale / Gamma(shape)). A truncated
    family draws loc + scale z for standard normal or t variates z, by
    rejection: a candidate counts when it is positive and finite in floating
    point, so every draw lies in the open support. :class:`ProposalSpec`
    keeps -loc/scale <= 1, where at least 0.16 of the candidates count.
    Batches are drawn until ``n_draws`` are kept, each sized from the
    acceptance of the one before. Each stream is formed in the array the
    generator returns, and a first batch whose candidates all count is the
    stream itself.
    """
    if not isinstance(spec, ProposalSpec):
        steps = rng.standard_normal(n_draws)
        steps *= spec
        return steps
    loc, scale = spec.loc, spec.scale
    if spec.family == "inverse_gamma":
        v = rng.standard_gamma(spec.shape, size=n_draws)
        np.divide(scale, v, out=v)
        return np.sqrt(v, out=v)
    out = None
    filled = 0
    m = n_draws
    while filled < n_draws:
        if spec.family == "truncated_normal":
            v = rng.standard_normal(m)
        else:
            v = rng.standard_t(spec.df, m)
        with np.errstate(over="ignore"):  # an infinite candidate is rejected below
            v *= scale
            v += loc
        if out is None:  # the first batch, of n_draws candidates
            if v.min() > 0.0 and v.max() < math.inf:
                return v
            out = np.empty(n_draws)
        v = v[(v > 0.0) & (v < math.inf)]
        kept = min(v.size, n_draws - filled)
        out[filled:filled + kept] = v[:kept]
        filled += kept
        if v.size:
            m = math.ceil((n_draws - filled) * m / v.size)
        elif m < 1 << 20:
            m *= 2
        else:
            raise ArithmeticError(f"no {spec.family} draw with loc={loc}, scale={scale} "
                                  "is a positive float")
    return np.empty(0) if out is None else out


def _proposal_log_kernel(spec: ProposalSpec, values):
    """Log density of an independence proposal over an array of values, up
    to an additive constant that depends on ``spec`` alone.

    The constant (the normaliser of the truncation or of the inverse gamma)
    cancels from the independence acceptance ratio q(current) / q(candidate),
    so it is never computed. Every value outside (0, inf) gets ``-inf``, as
    does one whose square underflows in the inverse-gamma kernel. The
    result is formed in place in one new array (the inverse gamma's scale /
    v^2 in a second); a sign moved from one factor to another rounds the same.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    with np.errstate(all="ignore"):
        if spec.family == "truncated_normal":  # -d * d * (0.5 / scale^2), d = v - loc
            np.subtract(v, spec.loc, out=out)
            out *= out
            out *= -(0.5 / (spec.scale * spec.scale))
        elif spec.family == "truncated_t":  # -(df + 1) / 2 * log1p(z * z / df)
            np.subtract(v, spec.loc, out=out)
            out /= spec.scale
            out *= out
            out /= spec.df
            np.log1p(out, out=out)
            out *= -0.5 * (spec.df + 1.0)
        else:  # -(2 shape + 1) log v - scale / v^2
            np.log(v, out=out)
            out *= -(2.0 * spec.shape + 1.0)
            square = np.multiply(v, v, out=np.empty_like(v))
            out -= np.divide(spec.scale, square, out=square)
        out[~(v > 0.0)] = NEG_INF
    return out


# ---------------------------------------------------------------------------
# Chain container
# ---------------------------------------------------------------------------

class Chain(_Record):
    """Ordered MCMC draws of (sigma_x, sigma_h, rho) including burn-in.

    ``draws`` has shape (K, 3) in parameter order ``PARAMETERS``;
    ``acceptance_counts`` tallies accepted moves per parameter over the whole
    run. ``warnings`` flags pathologies such as a parameter with no accepted
    move after burn-in.
    """

    __slots__ = ("draws", "burn_in", "acceptance_counts", "warnings")

    def __init__(self, draws: np.ndarray, burn_in: int, acceptance_counts: np.ndarray,
                 warnings: tuple = ()):
        # own copies: the arrays are frozen, which must not leak to the caller
        draws = np.array(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != 3:
            raise ValueError(f"draws must have shape (K, 3), got {draws.shape}")
        if not 0 <= burn_in < draws.shape[0]:
            raise ValueError(f"burn_in must lie in [0, {draws.shape[0] - 1}], got {burn_in}")
        if not np.all(np.isfinite(draws)):
            raise ValueError("chain draws must be finite")
        # one column at a time: a strided 2-D comparison costs several times more
        if (np.any(draws[:, 0] <= 0.0) or np.any(draws[:, 1] <= 0.0)
                or np.any(np.abs(draws[:, 2]) >= 1.0)):
            raise ValueError("chain draws violate the parameter support")
        counts = np.array(acceptance_counts, dtype=int)
        if counts.shape != (3,) or np.any(counts < 0) or np.any(counts > draws.shape[0]):
            raise ValueError("acceptance_counts must be three tallies in [0, K]")
        draws.setflags(write=False)
        counts.setflags(write=False)
        super().__init__(draws, burn_in, counts, tuple(warnings))

    def __len__(self):
        return self.draws.shape[0]

    def post_burn_in(self):
        """Draws with the first ``burn_in`` sweeps removed."""
        return self.draws[self.burn_in:]

    def parameter(self, name):
        """Post-burn-in draws of one parameter."""
        return self.draws[self.burn_in:, PARAMETERS.index(name)]

    def acceptance_rate(self, name):
        return float(self.acceptance_counts[PARAMETERS.index(name)]) / len(self)


# ---------------------------------------------------------------------------
# Metropolis-within-Gibbs sampler
# ---------------------------------------------------------------------------

def _volatility_terms(spec: ProposalSpec, values, power):
    """Candidate-side terms of a volatility update, over a whole stream.

    Returns g(v) = -power * log(v) - log q(v), 1/v and 1/v^2; the sweep reads
    the conditional kernel only through them. log q enters only up to a
    constant that depends on ``spec`` alone, which g(c) - g(s) cancels.
    Non-finite entries (a square
    that underflows, a candidate on the boundary) make the acceptance ratio
    -inf or NaN, which rejects the candidate. Each term is formed in its own
    array, in place; 1/v^2's array holds log q until g has read it.
    """
    with np.errstate(all="ignore"):
        inv2 = _proposal_log_kernel(spec, values)
        g = np.log(values)
        g *= -power
        g -= inv2
        np.multiply(values, values, out=inv2)
        np.divide(1.0, inv2, out=inv2)
        return g, np.divide(1.0, values), inv2


def mwg_sample(panel, specs, n_draws, burn_in, init: Theta, seed):
    """Sample the posterior of a panel with a Metropolis-within-Gibbs sweep.

    Each sweep updates sigma_x, sigma_h and rho in that fixed order; each
    update draws a candidate from its proposal and accepts it with the
    standard Metropolis-Hastings rule (accept when log u < log alpha).
    ``specs`` is (sigma_x density, sigma_h density, rho step): the densities'
    ratios enter alpha; rho's random-walk normal step is symmetric and does
    not. A misplaced proposal raises ``ValueError`` naming its parameter.

    The sweep works on the panel's sufficient statistics (T, sxx, shh, sxh)
    alone, with C = -sxh. Each log alpha is a closed-form difference of the
    conditional kernels in the module docstring:

    * sigma_x: g(c) - g(s) - a (1/c^2 - 1/s^2) - b (1/c - 1/s), with
      g(v) = -T log v - log q(v), a = sxx / (2 (1 - rho^2)) and
      b = rho C / (sigma_h (1 - rho^2)); q enters only up to a constant
      that depends on the proposal spec alone, so no normaliser is computed;
    * sigma_h: the same with T - 1 in g, shh in a and sigma_x in b;
    * rho: the difference of -T/2 log(1 - rho^2) - (P + Q rho^2 + R rho) /
      (1 - rho^2), with P = sxx / (2 sigma_x^2), Q = shh / (2 sigma_h^2) and
      R = C / (sigma_x sigma_h); a step out of (-1, 1) is rejected.

    g, 1/c and 1/c^2 are computed once per chain over each candidate
    stream. The sweep carries s, g, 1/s and 1/s^2 of each volatility, rho,
    log(1 - rho^2), 1/(1 - rho^2) and the two a's and b; P, Q, R and rho's
    current term are formed at a rho step whose candidate lies in (-1, 1).
    Each sweep writes the current (sigma_x, sigma_h, rho) into its row and
    tallies each parameter's accepted moves and its last accepting sweep.
    The tests keep the kernel-calling loop this replaced as a reference
    sampler and check that both give the same chain bit for bit. The loop
    is :func:`_native`'s sweep: C when the library builds, else
    :func:`_python_sweep`, its specification; the chain is the same.

    Randomness is consumed in a fixed order (candidate streams for the three
    parameters, then a (K, 3) block of acceptance uniforms), so an identical
    seed reproduces the chain bit for bit.
    """
    if panel is None:
        raise ValueError("mwg_sample needs a return panel")
    spec_x, spec_h, step = specs
    for name, spec in zip(PARAMETERS, (spec_x, spec_h)):
        if not isinstance(spec, ProposalSpec):
            raise ValueError(f"{name} needs an independence proposal density, got {spec!r}")
    step = _rho_step(step)
    n_draws = int(n_draws)
    burn_in = int(burn_in)
    if not 0 <= burn_in < n_draws:
        raise ValueError(f"need n_draws > burn_in >= 0, got {n_draws}, {burn_in}")

    streams, state, constants = _sweep_inputs(panel, spec_x, spec_h, step, n_draws, init, seed)
    draws = np.empty((n_draws, 3))
    tally = np.empty(6, dtype=np.int64)
    _native().sweep(n_draws, streams, draws, state, tally, *constants)

    warnings = tuple(
        f"no accepted moves for {name} after burn-in"
        for name, last in zip(PARAMETERS, tally[3:])
        if last < burn_in
    )
    return Chain(draws=draws, burn_in=burn_in, acceptance_counts=tally[:3], warnings=warnings)


def _sweep_inputs(panel, spec_x, spec_h, step, n_draws, init, seed):
    """A chain's sweep inputs: twelve streams, the fourteen-term state at
    ``init`` and the constants (T/2, sxx/2, shh/2, C).

    The streams are, as C-contiguous float64 arrays: each volatility's
    candidates with their g, 1/c and 1/c^2; rho's steps; and the log
    acceptance uniforms of sigma_x, sigma_h and rho. The state is s, g, 1/s
    and 1/s^2 of each volatility, then rho, log(1 - rho^2), 1/(1 - rho^2),
    a_x, a_h and b.
    """
    t = float(panel.n_obs)
    half_t = 0.5 * t
    half_sxx = 0.5 * panel.sxx
    half_shh = 0.5 * panel.shh
    cross = -panel.sxh

    rng = np.random.default_rng(seed)
    cand_x, cand_h, steps = (_proposal_stream(spec, rng, n_draws)
                             for spec in (spec_x, spec_h, step))
    u = rng.random((n_draws, 3))
    log_u = np.ascontiguousarray(np.log(u, out=u).T)
    terms_x = _volatility_terms(spec_x, cand_x, t)
    terms_h = _volatility_terms(spec_h, cand_h, t - 1.0)

    # current-state terms
    g_x, i_x, i2_x = (float(v[0]) for v in _volatility_terms(
        spec_x, np.array([init.sigma_x]), t))
    g_h, i_h, i2_h = (float(v[0]) for v in _volatility_terms(
        spec_h, np.array([init.sigma_h]), t - 1.0))
    r = init.rho
    om = 1.0 - r * r
    log_om = math.log(om)
    inv_om = 1.0 / om
    a_x = half_sxx * inv_om
    a_h = half_shh * inv_om
    b = r * cross * inv_om
    return ((cand_x, *terms_x, cand_h, *terms_h, steps, *log_u),
            np.array([init.sigma_x, g_x, i_x, i2_x, init.sigma_h, g_h, i_h, i2_h,
                      r, log_om, inv_om, a_x, a_h, b]),
            (half_t, half_sxx, half_shh, cross))


def _python_sweep(n_draws, streams, draws, state, tally, half_t, half_sxx, half_shh, cross):
    """Run ``n_draws`` sweeps from :func:`_sweep_inputs`' streams and state.

    Row k of the (K, 3) ``draws`` is set to the current (sigma_x, sigma_h,
    rho) after sweep k, and ``state`` is left at the last sweep's. The six
    ``tally`` entries are set to the accepted moves of sigma_x, sigma_h and
    rho, then the last sweep that accepted each, -1 where none did. This
    loop is the specification of ``mwg_sweep`` in ``_native.c``, which
    copies its expressions in their order.
    """
    # The sweep is scalar code. Iterating a memoryview of a float64 array
    # gives Python floats, whose arithmetic is several times faster than
    # numpy scalars', without a list's per-element objects.
    out_x, out_h, out_r = (memoryview(column) for column in draws.T)
    s_x, g_x, i_x, i2_x, s_h, g_h, i_h, i2_h, r, log_om, inv_om, a_x, a_h, b = state.tolist()
    n_x = n_h = n_r = 0
    last_x = last_h = last_r = -1
    log = math.log

    for k, cxk, gxk, ixk, i2xk, chk, ghk, ihk, i2hk, drk, luxk, luhk, lurk in zip(
            range(n_draws), *(memoryview(a) for a in streams)):
        la = gxk - g_x - a_x * (i2xk - i2_x) - b * i_h * (ixk - i_x)
        if luxk < la:
            s_x, g_x, i_x, i2_x = cxk, gxk, ixk, i2xk
            n_x += 1
            last_x = k

        la = ghk - g_h - a_h * (i2hk - i2_h) - b * i_x * (ihk - i_h)
        if luhk < la:
            s_h, g_h, i_h, i2_h = chk, ghk, ihk, i2hk
            n_h += 1
            last_h = k

        c = r + drk
        if -1.0 < c < 1.0:
            p = half_sxx * i2_x
            q = half_shh * i2_h
            s = cross * i_x * i_h
            om_c = 1.0 - c * c
            log_om_c = log(om_c)
            term_c = p + (q * c + s) * c
            la = half_t * (log_om - log_om_c) - (term_c / om_c - (p + (q * r + s) * r) * inv_om)
            if lurk < la:
                r = c
                log_om = log_om_c
                inv_om = 1.0 / om_c
                a_x = half_sxx * inv_om
                a_h = half_shh * inv_om
                b = r * cross * inv_om
                n_r += 1
                last_r = k

        out_x[k] = s_x
        out_h[k] = s_h
        out_r[k] = r

    state[:] = (s_x, g_x, i_x, i2_x, s_h, g_h, i_h, i2_h, r, log_om, inv_om, a_x, a_h, b)
    tally[:] = (n_x, n_h, n_r, last_x, last_h, last_r)


# ---------------------------------------------------------------------------
# The native library, built on first use
# ---------------------------------------------------------------------------

_NATIVE_SOURCE = os.path.join(os.path.dirname(__file__), "_native.c")
# never -ffast-math, and no fused multiply-adds: the C loop must round as Python does
_NATIVE_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _python_draws_text(rows, out):
    """``draws_text`` of ``_native.c`` in Python's ``"%.17g" %``, its
    specification: the same text."""
    text = (("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist())).encode()
    out[:len(text)] = text
    return len(text)


def _python_draws_values(data, start=0):
    """``draws_values`` of ``_native.c`` not taken: the caller reads the
    draws as it reads a file in any other form."""
    return None


# sweep runs as _python_sweep does; draws_text(rows, out) writes the %.17g text of
# an (n, 3) block into the bytearray out, giving its length; draws_values(data,
# start) reads that text, the bytes data from start on, back into an (n, 3) block,
# or gives None for any other text. _PYTHON, the triple that runs when the library
# cannot be built, writes the same text and leaves every text to the caller.
_Native = collections.namedtuple("_Native", ("sweep", "draws_text", "draws_values"))
_PYTHON = _Native(_python_sweep, _python_draws_text, _python_draws_values)


@functools.cache
def _native():
    """The library built from ``_native.c`` as a ``_Native``, else its
    Python twin ``_PYTHON``.

    Loaded from the user cache directory ($XDG_CACHE_HOME/quanto-bayes,
    else ~/.cache/quanto-bayes; a relative $XDG_CACHE_HOME is invalid under
    the XDG Base Directory spec and is ignored) by :func:`_load_native`,
    which builds it there first if it is missing. Any failure (no compiler,
    an unwritable cache or one that is not absolute, as a relative $HOME
    gives, a failed compile or self-check) gives ``_PYTHON``: the same
    chains, the same draws text, and the draws read by the caller instead.
    """
    cache = os.environ.get("XDG_CACHE_HOME", "")
    cache = cache if os.path.isabs(cache) else os.path.expanduser("~/.cache")
    if not os.path.isabs(cache):  # never build into the working directory
        return _PYTHON
    try:
        with open(_NATIVE_SOURCE, "rb") as f:
            return _load_native(os.path.join(cache, "quanto-bayes"), f.read())
    except (OSError, RuntimeError):  # the Python routes give the same results
        return _PYTHON


def _load_native(directory, source):
    """The library compiled from ``source`` (bytes), as ``native-<key>.so``
    in ``directory``, where the key is the sha256 of the source, the compile
    flags and the platform. Raises OSError when it cannot be built or
    loaded, and RuntimeError when it fails the self-check.

    A missing library is compiled with sysconfig's CC into a temporary file
    in ``directory``, and moved into place only once it passes the
    self-check of ``_native_check``, so concurrent first runs never load a
    partial or unchecked file.
    """
    import hashlib
    import platform
    key = hashlib.sha256(repr((source, _NATIVE_FLAGS, sys.platform, platform.machine()))
                         .encode()).hexdigest()
    path = os.path.join(directory, f"native-{key}.so")
    try:
        return _ctypes_native(path)
    except OSError:  # not built yet
        pass
    import tempfile
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        import subprocess
        import sysconfig
        cc = sysconfig.get_config_var("CC")
        if not cc:
            raise OSError("sysconfig names no C compiler")
        done = subprocess.run([*cc.split(), *_NATIVE_FLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                              input=source, capture_output=True)
        if done.returncode:
            raise OSError(f"{cc} failed: {done.stderr.decode(errors='replace')}")
        native = _ctypes_native(tmp)
        from . import _native_check
        if not _native_check.reproduces_python_loop(native.sweep):
            raise RuntimeError(f"the sweep compiled by {cc} differs from the Python loop")
        if not _native_check.formats_as_python(native.draws_text):
            raise RuntimeError(f"the draws text compiled by {cc} differs from Python's %.17g")
        if not _native_check.reads_as_python(native.draws_values):
            raise RuntimeError(f"the draws reader compiled by {cc} differs from Python's float")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return native


def _ctypes_native(path):
    """The functions of the library at ``path``, as a ``_Native``."""
    lib = ctypes.CDLL(path)
    lib.mwg_sweep.restype = None
    lib.mwg_sweep.argtypes = (ctypes.c_long, *[ctypes.c_void_p] * 15, *[ctypes.c_double] * 4)
    lib.draws_text.restype = ctypes.c_long
    lib.draws_text.argtypes = (ctypes.c_long, ctypes.c_void_p, ctypes.c_char_p)
    lib.draws_values.restype = ctypes.c_long
    lib.draws_values.argtypes = (ctypes.c_char_p, *[ctypes.c_long] * 3, ctypes.c_void_p)

    # the C code trusts these shapes: a wrong one would read or write out of bounds
    def sweep(n_draws, streams, draws, state, tally, *constants):
        arrays = (*streams, draws, state)
        if ([a.shape for a in arrays] != [(n_draws,)] * 12 + [(n_draws, 3), (14,)]
                or not all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
                or tally.shape != (6,) or tally.dtype != np.int64
                or not tally.flags.c_contiguous
                or not all(a.flags.writeable for a in (draws, state, tally))):
            raise ValueError("the sweep needs twelve streams of n_draws, an (n_draws, 3) "
                             "block and 14 state terms, all C-contiguous float64, and a "
                             "C-contiguous int64 tally of 6, all but the streams writable")
        lib.mwg_sweep(n_draws, *(a.ctypes.data for a in (*streams, draws, state, tally)),
                      *constants)

    def draws_text(rows, out):
        if not (rows.shape[1:] == (3,) and rows.dtype == np.float64 and rows.flags.c_contiguous
                and isinstance(out, bytearray) and len(out) >= 25 * rows.size):
            raise ValueError("draws_text needs a C-contiguous float64 (n, 3) block and "
                             "a bytearray of 25 bytes per cell")
        length = lib.draws_text(len(rows), rows.ctypes.data,
                                (ctypes.c_char * len(out)).from_buffer(out))
        if length < 0:
            raise RuntimeError("the C draws writer has no C numeric locale")
        return length

    def draws_values(data, start=0):
        if not (isinstance(data, bytes) and 0 <= start <= len(data)):
            raise ValueError("draws_values needs bytes and an offset into them")
        # a text of n newlines holds at most n + 1 rows, the last one unended
        block = np.empty((data.count(b"\n", start) + 1, 3))
        rows = lib.draws_values(data, start, len(data), len(block), block.ctypes.data)
        return None if rows < 0 else block[:rows]

    return _Native(sweep, draws_text, draws_values)


# ---------------------------------------------------------------------------
# Exact posterior draws
# ---------------------------------------------------------------------------

def _partition_draws(s11, s12, s22, df11, df22, rng, size):
    """``size`` draws of a 2x2 covariance Sigma by the inverse-Wishart
    partition with scale S = [[S11, S12], [S12, S22]] (Anderson 2003, ch. 7),
    mapped to (sigma_x, sigma_h, rho); Sigma ~ IW(df, S) is df11 = df - 1 and
    df22 = df. With slope = S12/S11 and S22.1 = S22 - S12^2/S11 it draws
    Sigma11 = S11 / chi2(df11), then Sigma22.1 = S22.1 / chi2(df22), then
    B ~ N(slope, Sigma22.1/S11), one batch of ``size`` each from ``rng``;
    Sigma12 = B Sigma11 and Sigma22 = Sigma22.1 + B^2 Sigma11. Also returns
    Sigma22.1 and Sigma22, whose ratio is 1 - rho^2. Before any draw it
    refuses S unless S11 > 0, S22.1 > 0, and det S = S11 S22.1, the slope
    and S22.1/S11, which scales B's spread, are finite.
    """
    s11, s12, s22 = (np.asarray(v, dtype=float) for v in (s11, s12, s22))
    with np.errstate(all="ignore"):  # a zero S11 or an overflow fails the check
        slope = s12 / s11
        s22_1 = s22 - s12 * s12 / s11
        if not np.all((s11 > 0.0) & (s22_1 > 0.0) & np.isfinite(s11 * s22_1)
                      & np.isfinite(slope) & np.isfinite(s22_1 / s11)):
            raise ValueError("the scale matrix must be finite and positive definite")
    v11 = s11 / rng.chisquare(df11, size)
    v22_1 = s22_1 / rng.chisquare(df22, size)
    b = slope + np.sqrt(v22_1 / s11) * rng.standard_normal(size)
    v22 = v22_1 + b * b * v11
    sigma_x = np.sqrt(v11)
    sigma_h = np.sqrt(v22)
    return np.column_stack([sigma_x, sigma_h, b * sigma_x / sigma_h]), v22_1, v22


def exact_posterior_draws(n_obs, sxx, shh, sxh, rng):
    """Exact draws of (sigma_x, sigma_h, rho) from the joint posterior in the
    module docstring, one row per entry of the broadcast inputs.

    The inputs are sufficient statistics: the number of return pairs T, the
    centred sums of squares sxx and shh and the centred cross sum sxh = -C.
    In Sigma coordinates (Jacobian 4 sigma_x^2 sigma_h^2) the kernel is an
    inverse Wishart IW(T-3, S), S = [[sxx, sxh], [sxh, shh]], tilted by
    Sigma11^-1 Sigma22^-1/2 (Berger & Sun 2008, "Objective priors for the
    bivariate normal model"). Each candidate is a :func:`_partition_draws`
    draw at df11 = df22 = T-2, accepted with probability
    sqrt(Sigma22.1/Sigma22) = sqrt(1 - rho^2), the part of the tilt that the
    partition leaves over. A round draws, for the entries still pending, the
    partition's batches and then one of acceptance uniforms; the rejected
    entries are drawn again in the next round. The rounds depend only on the
    inputs and ``rng``'s state, so a fixed state reproduces the draws bit
    for bit. Needs T >= 3 and an S that the partition accepts, and refuses,
    before any draw, a sample correlation rho_hat with 1 - rho_hat^2 < 1e-6.
    """
    n_obs, sxx, shh, sxh = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (n_obs, sxx, shh, sxh))))
    if not np.all(n_obs >= 3.0):
        raise ValueError("an exact posterior draw needs at least 3 observations")
    with np.errstate(all="ignore"):  # a scale the partition refuses passes on to it
        rho_hat = sxh / np.sqrt(sxx * shh)
        near = rho_hat[(np.abs(rho_hat) < 1.0) & (1.0 - rho_hat * rho_hat < 1e-6)]
    if near.size:  # accepted with probability about sqrt(1 - rho^2), it would spin
        raise ValueError(f"sample correlation {float(near[0])!r} lies too close to +-1 for "
                         f"exact draws: 1 - rho^2 = {1.0 - near[0] ** 2:.3g} < 1e-06")
    df = n_obs - 2.0
    draws = np.empty((sxx.size, 3))
    pending = np.arange(sxx.size)
    while pending.size:
        theta, v22_1, v22 = _partition_draws(sxx[pending], sxh[pending], shh[pending],
                                             df[pending], df[pending], rng, pending.size)
        u = rng.random(pending.size)
        accept = u * u * v22 < v22_1
        draws[pending[accept]] = theta[accept]
        pending = pending[~accept]
    return draws


# ---------------------------------------------------------------------------
# Baselines: MLE and conjugate Normal-Inverse-Wishart
# ---------------------------------------------------------------------------

def mle_estimate(panel: ReturnPanel) -> Theta:
    """Closed-form maximum likelihood estimate of (sigma_x, sigma_h, rho).

    sigma_hat^2 uses the 1/T divisor. Perfectly correlated or constant
    panels have no estimate in the open parameter space.
    """
    t = panel.n_obs
    if panel.sxx <= 0.0 or panel.shh <= 0.0:
        raise ValueError("degenerate data: a return series has zero sample variance")
    product = panel.sxx * panel.shh
    if not product > 0.0:
        raise ValueError("degenerate data: the product of the sample variances, "
                         f"sxx*shh = {product!r}, is not positive")
    sigma_x = math.sqrt(panel.sxx / t)
    sigma_h = math.sqrt(panel.shh / t)
    rho = panel.sxh / math.sqrt(product)
    if abs(rho) >= 1.0 - 1e-12:
        raise ValueError(
            f"degenerate data: sample correlation {rho:.17g} lies outside the open support"
        )
    return Theta(sigma_x, sigma_h, rho)


class NiwHyperparams(_Record):
    """Normal-Inverse-Wishart prior for the conjugate (MNC) baseline: zero
    prior mean with weight ``kappa``, ``df`` degrees of freedom and the
    scale matrix ``scale`` * I.

    Defaults are weakly informative: unit weight, 4 degrees of freedom and
    scale 1e-4.
    """

    __slots__ = ("kappa", "df", "scale")

    def __init__(self, kappa: float = 1.0, df: float = 4.0, scale: float = 1e-4):
        if not (math.isfinite(kappa) and kappa > 0.0):
            raise ValueError(f"kappa must be positive and finite, got {kappa}")
        if not (math.isfinite(df) and df >= 2.0):
            raise ValueError(f"df must be finite and >= 2 for a 2x2 scale, got {df}")
        if not math.isfinite(scale):
            raise ValueError(f"scale must be finite, got {scale}")
        if not scale > 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        super().__init__(kappa, df, scale)


def niw_posterior(panel, hyper: NiwHyperparams):
    """Posterior degrees of freedom and scale entries (df_n, S11, S12, S22)
    of the NIW model given a panel. The prior mean is zero, so the sample
    mean ybar enters the scale as kappa*T/(kappa + T) * ybar ybar'.

    ``panel=None`` returns the prior's, so ``conjugate_sample`` then draws
    from the prior alone.
    """
    scale = hyper.scale
    if panel is None:
        return hyper.df, scale, 0.0, scale
    t = panel.n_obs
    mean_x, mean_h = panel.mean_x, panel.mean_h
    shrink = hyper.kappa * t / (hyper.kappa + t)
    return (hyper.df + t, (scale + panel.sxx) + shrink * (mean_x * mean_x),
            (0.0 + panel.sxh) + shrink * (mean_x * mean_h),
            (scale + panel.shh) + shrink * (mean_h * mean_h))


def conjugate_sample(panel, hyper: NiwHyperparams, n_draws, seed) -> Chain:
    """``n_draws`` exact, independent draws from the conjugate posterior (the
    MNC baseline).

    Sigma ~ IW(df_n, S) is drawn by :func:`_partition_draws` at
    df11 = df_n - 1 and df22 = df_n, with no accept step: unlike the
    posterior of :func:`exact_posterior_draws`, this one has no tilt. Every
    draw satisfies |rho| < 1 by construction. The draws are independent, so
    none is burnt in: the chain has ``burn_in`` 0. The partition refuses a
    scale that is not positive definite or whose determinant overflows.
    """
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ValueError(f"need n_draws >= 1, got {n_draws}")
    df_n, s11, s12, s22 = niw_posterior(panel, hyper)
    draws, _, _ = _partition_draws(s11, s12, s22, df_n - 1.0, df_n,
                                   np.random.default_rng(seed), n_draws)
    return Chain(draws=draws, burn_in=0, acceptance_counts=np.full(3, n_draws, dtype=int))


# ---------------------------------------------------------------------------
# Default proposal triples
# ---------------------------------------------------------------------------

FAMILY_CODES = ("ttn", "tnn", "ign")


def default_proposals(code, panel, rho_step=0.1, tt_df=5.0, ig_shape=None,
                      scale_multiplier=2.0, mle=None):
    """MLE-anchored proposal triple for one of the named candidate families.

    Volatility proposals are independence proposals centered on the MLE with
    scale ``scale_multiplier * sigma_hat / sqrt(T)``; the inverse-gamma
    variant places its mode at ``sigma_hat**2`` with a shape that keeps its
    relative width at the same multiple of the posterior's as the truncated
    families (shape = 2 + T / (4 * multiplier^2)), unless a fixed shape is
    given. The third entry is rho's random-walk normal step, ``rho_step``.
    ``mle`` is the panel's :func:`mle_estimate`, computed here if not given.
    """
    if code not in FAMILY_CODES:
        raise ValueError(f"unknown family code {code!r}; expected one of {FAMILY_CODES}")
    if not (math.isfinite(scale_multiplier) and scale_multiplier > 0.0):
        raise ValueError(f"scale_multiplier must be positive and finite, got {scale_multiplier}")
    est = mle_estimate(panel) if mle is None else mle
    sqrt_t = math.sqrt(panel.n_obs)
    rho_step = _rho_step(rho_step)
    if code == "ign" and ig_shape is None:
        try:
            ig_shape = 2.0 + panel.n_obs / (4.0 * scale_multiplier ** 2)
        except ArithmeticError:
            ig_shape = math.inf
        if ig_shape == math.inf:
            raise ValueError("scale_multiplier**2 over- or underflows the inverse-gamma shape "
                             f"2 + T / (4 * scale_multiplier**2), got {scale_multiplier}")

    def vol_spec(sigma_hat):
        scale = scale_multiplier * sigma_hat / sqrt_t
        if code == "ttn":
            return ProposalSpec(family="truncated_t", loc=sigma_hat, scale=scale, df=tt_df)
        if code == "tnn":
            return ProposalSpec(family="truncated_normal", loc=sigma_hat, scale=scale)
        return ProposalSpec(
            family="inverse_gamma",
            shape=ig_shape,
            scale=(ig_shape + 1.0) * sigma_hat * sigma_hat,
        )

    return (vol_spec(est.sigma_x), vol_spec(est.sigma_h), rho_step)
