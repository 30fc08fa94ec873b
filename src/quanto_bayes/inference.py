"""Posterior kernels and samplers for (sigma_x, sigma_h, rho).

The joint posterior kernel arises from the bivariate lognormal return model
under a noninformative reference prior, with both drifts integrated out. The
kernel and its three full conditionals share cached sufficient statistics
from a :class:`~quanto_bayes.model.ReturnPanel`:

    T, sum((x-xbar)^2), sum((h-hbar)^2), and the cross term
    C = T*xbar*hbar - sum(x_t*h_t).

Out-of-support evaluations return ``-inf`` rather than raising, which is what
the accept/reject step relies on.

Samplers:

* :func:`mwg_sample` runs a Metropolis-within-Gibbs sweep (sigma_x, sigma_h,
  rho, in that order) with independence proposals (truncated normal,
  truncated t or inverse gamma) for the volatilities and a random-walk normal
  proposal for rho. It works on the panel's sufficient statistics directly:
  each log acceptance ratio is a closed-form difference of the conditional
  kernels, whose candidate-side terms are computed once over each whole
  proposal stream. A proposal density q enters only up to a constant that
  depends on its spec alone, since q(current) / q(candidate) cancels it.
  The tests keep the generic kernel-calling loop as a reference sampler and
  check that both give the same chain bit for bit.
* :func:`exact_posterior_draws` draws exactly from the same posterior, given
  only its sufficient statistics, which may differ from draw to draw; the
  sequential-update pricer refreshes every path's parameters with it.
* :func:`conjugate_sample` draws exactly from the Normal-Inverse-Wishart
  conjugate posterior of an unconstrained bivariate normal (MNC baseline).
* :func:`mle_estimate` is the closed-form maximum likelihood baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ReturnPanel, Theta

__all__ = [
    "PosteriorKernel",
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


class PosteriorKernel:
    """Unnormalized log posterior of (sigma_x, sigma_h, rho) given a panel.

    Nothing in the package calls it: :func:`mwg_sample` evaluates the same
    conditional differences in closed form on the panel's sufficient
    statistics, and :func:`exact_posterior_draws` samples it exactly. It
    stays as the independent oracle that the tests check both samplers and
    their quadratures against.
    """

    __slots__ = ("panel", "_t", "_sxx", "_shh", "_cross")

    def __init__(self, panel: ReturnPanel):
        self.panel = panel
        self._t = float(panel.n_obs)
        self._sxx = panel.sxx
        self._shh = panel.shh
        self._cross = panel.cross_moment

    def log_cond_sigma_x(self, sigma_x, sigma_h, rho):
        """Conditional kernel of sigma_x given (sigma_h, rho)."""
        if sigma_x <= 0.0 or sigma_h <= 0.0 or not -1.0 < rho < 1.0:
            return NEG_INF
        one_minus = 1.0 - rho * rho
        try:
            return (
                -self._t * math.log(sigma_x)
                - self._sxx / (2.0 * sigma_x * sigma_x * one_minus)
                - rho * self._cross / (sigma_x * sigma_h * one_minus)
            )
        except ZeroDivisionError:
            # a squared volatility underflowed; the kernel limit is -inf
            return NEG_INF

    def log_cond_sigma_h(self, sigma_h, sigma_x, rho):
        """Conditional kernel of sigma_h given (sigma_x, rho); note the T-1 power."""
        if sigma_x <= 0.0 or sigma_h <= 0.0 or not -1.0 < rho < 1.0:
            return NEG_INF
        one_minus = 1.0 - rho * rho
        try:
            return (
                -(self._t - 1.0) * math.log(sigma_h)
                - self._shh / (2.0 * sigma_h * sigma_h * one_minus)
                - rho * self._cross / (sigma_x * sigma_h * one_minus)
            )
        except ZeroDivisionError:
            return NEG_INF

    def log_cond_rho(self, rho, sigma_x, sigma_h):
        """Conditional kernel of rho given (sigma_x, sigma_h).

        The centered h sum of squares enters with a rho^2 factor here; it
        differs from the joint kernel's term by a quantity constant in rho.
        """
        if sigma_x <= 0.0 or sigma_h <= 0.0 or not -1.0 < rho < 1.0:
            return NEG_INF
        one_minus = 1.0 - rho * rho
        try:
            return (
                -0.5 * self._t * math.log(one_minus)
                - self._sxx / (2.0 * sigma_x * sigma_x * one_minus)
                - rho * rho * self._shh / (2.0 * sigma_h * sigma_h * one_minus)
                - rho * self._cross / (sigma_x * sigma_h * one_minus)
            )
        except ZeroDivisionError:
            return NEG_INF

    def log_joint(self, sigma_x, sigma_h, rho):
        """Joint kernel; each conditional equals it up to an additive constant."""
        if sigma_x <= 0.0 or sigma_h <= 0.0 or not -1.0 < rho < 1.0:
            return NEG_INF
        one_minus = 1.0 - rho * rho
        try:
            return (
                -0.5 * self._t * math.log(one_minus)
                - self._t * math.log(sigma_x)
                - (self._t - 1.0) * math.log(sigma_h)
                - self._sxx / (2.0 * sigma_x * sigma_x * one_minus)
                - self._shh / (2.0 * sigma_h * sigma_h * one_minus)
                - rho * self._cross / (sigma_x * sigma_h * one_minus)
            )
        except ZeroDivisionError:
            return NEG_INF


# ---------------------------------------------------------------------------
# Proposal families
# ---------------------------------------------------------------------------

_INDEPENDENCE_FAMILIES = ("truncated_normal", "truncated_t", "inverse_gamma")
_ALL_FAMILIES = _INDEPENDENCE_FAMILIES + ("normal",)


@dataclass(frozen=True)
class ProposalSpec:
    """Candidate-generating density for one parameter.

    Families
    --------
    truncated_normal : N(loc, scale) truncated to (0, inf), independence.
    truncated_t      : Student-t(df, loc, scale) truncated to (0, inf),
                       independence; df > 2.
    inverse_gamma    : sigma^2 ~ InvGamma(shape, scale) with shape > 2,
                       proposing sigma = sqrt(sigma^2); the change of
                       variables is folded into the log density.
    normal           : random walk N(current, scale); symmetric, so its
                       density cancels from the acceptance ratio.
    """

    family: str
    loc: float = 0.0
    scale: float = 1.0
    df: float | None = None
    shape: float | None = None

    def __post_init__(self):
        if self.family not in _ALL_FAMILIES:
            raise ValueError(
                f"unknown proposal family {self.family!r}; expected one of {_ALL_FAMILIES}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.family == "truncated_t":
            if self.df is None or not (math.isfinite(self.df) and self.df > 2.0):
                raise ValueError(f"truncated_t needs a finite df > 2, got {self.df}")
        if self.family == "inverse_gamma":
            if self.shape is None or not self.shape > 2.0:
                raise ValueError("inverse_gamma needs shape > 2")
        if self.family in ("truncated_normal", "truncated_t") and not math.isfinite(self.loc):
            raise ValueError(f"loc must be finite, got {self.loc}")

    @property
    def is_independence(self):
        return self.family in _INDEPENDENCE_FAMILIES


def _truncated_draws(spec: ProposalSpec, rng, n):
    """``n`` exact draws of a truncated family on (0, inf), by rejection.

    With a0 = -loc/scale the standardised draw z must exceed a0. For
    a0 <= 1 plain draws of the standard normal or t keep an acceptance of at
    least 0.16. Further out each family samples its excess over a0 under an
    envelope, scaled so that no value cancels against loc:
    * normal: z = a0 + E / lam with E ~ Exp(1), accepted with probability
      exp(-(z - lam)^2 / 2), where lam = (a0 + sqrt(a0^2 + 4)) / 2 is the
      optimal rate (Robert 1995, "Simulation of truncated normal variables")
      and z - lam = E / lam - 1 / lam;
    * t: X = df / (df + T^2) ~ Beta(df/2, 1/2) given T > 0, and T > a0 is
      X < x0 = df / (df + a0^2). X = x0 W with W = U^(2/df) has the envelope
      density ~ x^(df/2 - 1) on (0, x0) and is accepted with probability
      sqrt((1 - x0) / (1 - X)) = 1 / sqrt(Q), where Q = 1 + r (1 - W) and
      r = df / a0^2; then z = a0 sqrt(Q / W).
    A candidate counts when its value is positive and finite in floating
    point, so every draw lies in the open support. Batches are drawn until
    ``n`` are kept, each sized from the acceptance of the one before.
    """
    loc, scale = spec.loc, spec.scale
    a0 = -loc / scale
    if a0 <= 1.0:
        if spec.family == "truncated_normal":
            def propose(m):
                return loc + scale * rng.standard_normal(m)
        else:
            def propose(m):
                return loc + scale * rng.standard_t(spec.df, m)
    elif spec.family == "truncated_normal":
        lam = 0.5 * a0 + math.hypot(0.5 * a0, 1.0)

        def propose(m):
            excess = rng.standard_exponential(m) / lam
            d = excess - 1.0 / lam
            return np.where(rng.random(m) < np.exp(-0.5 * d * d), scale * excess, np.nan)
    else:
        df = spec.df
        r = df / a0 / a0

        def propose(m):
            w = (1.0 - rng.random(m)) ** (2.0 / df)
            q = 1.0 + r * (1.0 - w)
            u = rng.random(m)
            return np.where(u * u * q < 1.0, -loc * (np.sqrt(q / w) - 1.0), np.nan)
    out = np.empty(n)
    filled = 0
    m = n
    while filled < n:
        v = propose(m)
        v = v[(v > 0.0) & (v < math.inf)]
        kept = min(v.size, n - filled)
        out[filled:filled + kept] = v[:kept]
        filled += kept
        if v.size:
            m = math.ceil((n - filled) * m / v.size)
        elif m < 1 << 20:
            m *= 2
        else:
            raise ArithmeticError(f"no {spec.family} draw with loc={loc}, scale={scale} "
                                  "is a positive float")
    return out


def _proposal_stream(spec: ProposalSpec, rng, n_draws):
    """``n_draws`` proposal variates for one parameter, in the sampler's RNG order.

    Independence families give candidates; the random-walk normal gives the
    steps added to the current value.
    """
    if spec.family == "normal":
        return spec.scale * rng.standard_normal(n_draws)
    if spec.family == "inverse_gamma":
        return np.sqrt(spec.scale / rng.standard_gamma(spec.shape, size=n_draws))
    return _truncated_draws(spec, rng, n_draws)


def _proposal_log_kernel(spec: ProposalSpec, values):
    """Log density of an independence proposal over an array of values, up
    to an additive constant that depends on ``spec`` alone.

    The constant (the normaliser of the truncation or of the inverse gamma)
    cancels from the independence acceptance ratio q(current) / q(candidate),
    so it is never computed. Every value outside (0, inf) gets ``-inf``, as
    does one whose square underflows in the inverse-gamma kernel. The
    random-walk normal has no such density here: it is symmetric, so it
    cancels from the ratio, and asking for it raises.
    """
    if not spec.is_independence:
        raise ValueError(f"the {spec.family!r} proposal has no independence density")
    v = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        if spec.family == "truncated_normal":
            d = v - spec.loc
            out = -d * d * (0.5 / (spec.scale * spec.scale))
        elif spec.family == "truncated_t":
            z = (v - spec.loc) / spec.scale
            out = -0.5 * (spec.df + 1.0) * np.log1p(z * z / spec.df)
        else:
            out = -(2.0 * spec.shape + 1.0) * np.log(v) - spec.scale / (v * v)
        return np.where(v > 0.0, out, NEG_INF)


# ---------------------------------------------------------------------------
# Chain container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Ordered MCMC draws of (sigma_x, sigma_h, rho) including burn-in.

    ``draws`` has shape (K, 3) in parameter order ``PARAMETERS``;
    ``acceptance_counts`` tallies accepted moves per parameter over the whole
    run. ``warnings`` flags pathologies such as a parameter with no accepted
    move after burn-in.
    """

    draws: np.ndarray
    burn_in: int
    acceptance_counts: np.ndarray
    seed: int
    warnings: tuple = ()

    def __post_init__(self):
        # own copies: the arrays are frozen, which must not leak to the caller
        draws = np.array(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != 3:
            raise ValueError(f"draws must have shape (K, 3), got {draws.shape}")
        if not 0 <= self.burn_in < draws.shape[0]:
            raise ValueError(
                f"burn_in must lie in [0, {draws.shape[0] - 1}], got {self.burn_in}"
            )
        if not np.all(np.isfinite(draws)):
            raise ValueError("chain draws must be finite")
        if np.any(draws[:, :2] <= 0.0) or np.any(np.abs(draws[:, 2]) >= 1.0):
            raise ValueError("chain draws violate the parameter support")
        counts = np.array(self.acceptance_counts, dtype=int)
        if counts.shape != (3,) or np.any(counts < 0) or np.any(counts > draws.shape[0]):
            raise ValueError("acceptance_counts must be three tallies in [0, K]")
        draws.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "acceptance_counts", counts)
        object.__setattr__(self, "warnings", tuple(self.warnings))

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
    -inf or NaN, which rejects the candidate.
    """
    with np.errstate(all="ignore"):
        g = -power * np.log(values) - _proposal_log_kernel(spec, values)
        return g, 1.0 / values, 1.0 / (values * values)


def _hold_rejections(column, start):
    """Fill a draws column in place: NaN marks a rejection, which keeps the
    last accepted value (``start`` before the first). Returns the accept mask."""
    accepted = ~np.isnan(column)
    last = np.where(accepted, np.arange(column.size), -1)
    np.maximum.accumulate(last, out=last)
    column[:] = np.where(last >= 0, column[last], start)
    return accepted


def mwg_sample(panel, specs, n_draws, burn_in, init: Theta, seed):
    """Sample the posterior of a panel with a Metropolis-within-Gibbs sweep.

    Each sweep updates sigma_x, sigma_h and rho in that fixed order; each
    update draws a candidate from its proposal and accepts it with the
    standard Metropolis-Hastings rule (accept when log u < log alpha).
    sigma_x and sigma_h take independence proposals (truncated normal,
    truncated t or inverse gamma), whose density ratio enters alpha; rho
    takes the random-walk normal, which is symmetric and does not. Any
    other (parameter, family) pair raises ``ValueError``.

    The sweep works on the panel's sufficient statistics (T, sxx, shh, C)
    alone. Each log alpha is a closed-form difference of the conditional
    kernels of :class:`PosteriorKernel`:

    * sigma_x: g(c) - g(s) - a (1/c^2 - 1/s^2) - b (1/c - 1/s), with
      g(v) = -T log v - log q(v), a = sxx / (2 (1 - rho^2)) and
      b = rho C / (sigma_h (1 - rho^2)); q enters only up to a constant
      that depends on the proposal spec alone, so no normaliser is computed;
    * sigma_h: the same with T - 1 in g, shh in a and sigma_x in b;
    * rho: the difference of -T/2 log(1 - rho^2) - (P + Q rho^2 + R rho) /
      (1 - rho^2), with P = sxx / (2 sigma_x^2), Q = shh / (2 sigma_h^2) and
      R = C / (sigma_x sigma_h); a step out of (-1, 1) is rejected.

    g, 1/c and 1/c^2 are computed once per chain over each candidate
    stream. The current state's terms are sweep state: g, 1/s and 1/s^2 of
    each volatility, log(1 - rho^2), a and b, and the products b sigma_h,
    b sigma_x, P, Q, R and rho's kernel term (P + Q rho^2 + R rho) /
    (1 - rho^2). Each changes only when a move changes one of its factors,
    so only an accepted move recomputes it, with the expression and
    operation order of a per-sweep recomputation. The tests keep the
    kernel-calling loop this replaced as a reference sampler and check that
    both give the same chain bit for bit.

    Randomness is consumed in a fixed order (candidate streams for the three
    parameters, then a (K, 3) block of acceptance uniforms), so an identical
    seed reproduces the chain bit for bit.
    """
    if panel is None:
        raise ValueError("mwg_sample needs a return panel")
    specs = tuple(specs)
    if len(specs) != 3:
        raise ValueError(f"expected one proposal spec per parameter, got {len(specs)}")
    for name, spec in zip(PARAMETERS, specs):
        if spec.is_independence == (name == "rho"):
            expected = "the random-walk normal" if name == "rho" else "an independence"
            raise ValueError(
                f"{name} needs {expected} proposal, got family {spec.family!r}"
            )
    n_draws = int(n_draws)
    burn_in = int(burn_in)
    if not 0 <= burn_in < n_draws:
        raise ValueError(f"need n_draws > burn_in >= 0, got {n_draws}, {burn_in}")

    t = float(panel.n_obs)
    half_t = 0.5 * t
    half_sxx = 0.5 * panel.sxx
    half_shh = 0.5 * panel.shh
    cross = panel.cross_moment

    rng = np.random.default_rng(seed)
    cand_x, cand_h, steps = (_proposal_stream(spec, rng, n_draws) for spec in specs)
    log_u = np.ascontiguousarray(np.log(rng.random((n_draws, 3))).T)
    terms_x = _volatility_terms(specs[0], cand_x, t)
    terms_h = _volatility_terms(specs[1], cand_h, t - 1.0)
    # The sweep is scalar code. Iterating a memoryview of a float64 array
    # gives Python floats, whose arithmetic is several times faster than
    # numpy scalars', without a list's per-element objects.
    streams = tuple(memoryview(a) for a in (cand_x, *terms_x, cand_h, *terms_h, steps, *log_u))
    # an accepted move writes its value; NaN marks a rejection until filled
    draws = np.full((n_draws, 3), np.nan)
    out_x, out_h, out_r = (memoryview(column) for column in draws.T)

    # current-state terms
    g_x, i_x, i2_x = (float(v[0]) for v in _volatility_terms(
        specs[0], np.array([init.sigma_x]), t))
    g_h, i_h, i2_h = (float(v[0]) for v in _volatility_terms(
        specs[1], np.array([init.sigma_h]), t - 1.0))
    r = init.rho
    om = 1.0 - r * r
    log_om = math.log(om)
    inv_om = 1.0 / om
    a_x = half_sxx * inv_om
    a_h = half_shh * inv_om
    b = r * cross * inv_om
    # products of the current-state terms, each recomputed by the accepted
    # moves that change it
    b_ih = b * i_h
    b_ix = b * i_x
    p = half_sxx * i2_x
    q = half_shh * i2_h
    s = cross * i_x * i_h
    rho_term = (p + (q * r + s) * r) * inv_om
    log = math.log

    for k, cxk, gxk, ixk, i2xk, chk, ghk, ihk, i2hk, drk, luxk, luhk, lurk in zip(
            range(n_draws), *streams):
        la = gxk - g_x - a_x * (i2xk - i2_x) - b_ih * (ixk - i_x)
        if luxk < la:
            g_x = gxk
            i_x = ixk
            i2_x = i2xk
            out_x[k] = cxk
            b_ix = b * i_x
            p = half_sxx * i2_x
            s = cross * i_x * i_h
            rho_term = (p + (q * r + s) * r) * inv_om

        la = ghk - g_h - a_h * (i2hk - i2_h) - b_ix * (ihk - i_h)
        if luhk < la:
            g_h = ghk
            i_h = ihk
            i2_h = i2hk
            out_h[k] = chk
            b_ih = b * i_h
            q = half_shh * i2_h
            s = cross * i_x * i_h
            rho_term = (p + (q * r + s) * r) * inv_om

        c = r + drk
        if -1.0 < c < 1.0:
            om_c = 1.0 - c * c
            log_om_c = log(om_c)
            term_c = p + (q * c + s) * c
            la = half_t * (log_om - log_om_c) - (term_c / om_c - rho_term)
            if lurk < la:
                r = c
                log_om = log_om_c
                inv_om = 1.0 / om_c
                a_x = half_sxx * inv_om
                a_h = half_shh * inv_om
                b = r * cross * inv_om
                b_ih = b * i_h
                b_ix = b * i_x
                rho_term = term_c * inv_om
                out_r[k] = c

    accepted = [_hold_rejections(column, start)
                for column, start in zip(draws.T, init.as_tuple())]
    warnings = tuple(
        f"no accepted moves for {name} after burn-in"
        for name, mask in zip(PARAMETERS, accepted)
        if not mask[burn_in:].any()
    )
    return Chain(
        draws=draws,
        burn_in=burn_in,
        acceptance_counts=np.array([mask.sum() for mask in accepted], dtype=int),
        seed=int(seed),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Exact posterior draws
# ---------------------------------------------------------------------------

def exact_posterior_draws(n_obs, sxx, shh, sxh, rng):
    """Exact draws of (sigma_x, sigma_h, rho) from the posterior of
    :class:`PosteriorKernel`, one row per entry of the broadcast inputs.

    The inputs are sufficient statistics: the number of return pairs T, the
    centred sums of squares sxx and shh and the centred cross sum sxh = -C.
    In Sigma coordinates (Jacobian 4 sigma_x^2 sigma_h^2) the kernel is an
    inverse Wishart IW(T-3, S), S = [[sxx, sxh], [sxh, shh]], tilted by
    Sigma11^-1 Sigma22^-1/2. Partitioning the inverse Wishart (Anderson 2003,
    ch. 7; Berger & Sun 2008, "Objective priors for the bivariate normal
    model") gives each draw as

    * Sigma11 = sxx / chi2(T-2);
    * Sigma22.1 = (shh - sxh^2/sxx) / chi2(T-2);
    * B ~ N(sxh/sxx, Sigma22.1/sxx), Sigma12 = B Sigma11 and
      Sigma22 = Sigma22.1 + B^2 Sigma11,

    accepted with probability sqrt(Sigma22.1/Sigma22) = sqrt(1 - rho^2), the
    part of the Sigma22^-1/2 tilt that the partition leaves over. A round
    draws, for the entries still pending, a batch of each chi-square, one of
    normals and one of acceptance uniforms, in that order; the rejected
    entries are drawn again in the next round. The rounds depend only on the
    inputs and ``rng``'s state, so a fixed state reproduces the draws bit
    for bit. Needs T >= 3 and a positive definite S.
    """
    n_obs, sxx, shh, sxh = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (n_obs, sxx, shh, sxh))))
    if not np.all(n_obs >= 3.0):
        raise ValueError("an exact posterior draw needs at least 3 observations")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero sxx is rejected below
        s22_1 = shh - sxh * sxh / sxx
    if not np.all((sxx > 0.0) & (s22_1 > 0.0) & np.isfinite(sxx) & np.isfinite(s22_1)):
        raise ValueError("the scatter matrix must be finite and positive definite")
    df = n_obs - 2.0
    slope = sxh / sxx
    draws = np.empty((sxx.size, 3))
    pending = np.arange(sxx.size)
    while pending.size:
        v11 = sxx[pending] / rng.chisquare(df[pending])
        v22_1 = s22_1[pending] / rng.chisquare(df[pending])
        b = slope[pending] + np.sqrt(v22_1 / sxx[pending]) * rng.standard_normal(pending.size)
        u = rng.random(pending.size)
        v22 = v22_1 + b * b * v11
        accept = u * u * v22 < v22_1
        sigma_x = np.sqrt(v11[accept])
        sigma_h = np.sqrt(v22[accept])
        draws[pending[accept]] = np.column_stack([sigma_x, sigma_h,
                                                  b[accept] * sigma_x / sigma_h])
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
    sigma_x = math.sqrt(panel.sxx / t)
    sigma_h = math.sqrt(panel.shh / t)
    sxh = -panel.cross_moment
    rho = sxh / math.sqrt(panel.sxx * panel.shh)
    if abs(rho) >= 1.0 - 1e-12:
        raise ValueError(
            f"degenerate data: sample correlation {rho:.17g} lies outside the open support"
        )
    return Theta(sigma_x, sigma_h, rho)


def _default_niw_scale():
    return 1e-4 * np.eye(2)


@dataclass(frozen=True)
class NiwHyperparams:
    """Normal-Inverse-Wishart prior for the conjugate (MNC) baseline.

    Defaults are weakly informative: zero prior mean with unit weight,
    4 degrees of freedom and a 1e-4 * I scale matrix.
    """

    mean: tuple = (0.0, 0.0)
    kappa: float = 1.0
    df: float = 4.0
    scale: np.ndarray = field(default_factory=_default_niw_scale)

    def __post_init__(self):
        mean = tuple(float(v) for v in self.mean)
        if len(mean) != 2 or not all(math.isfinite(v) for v in mean):
            raise ValueError("prior mean must be two finite numbers")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not (math.isfinite(self.df) and self.df >= 2.0):
            raise ValueError(f"df must be finite and >= 2 for a 2x2 scale, got {self.df}")
        scale = np.asarray(self.scale, dtype=float)
        if scale.shape != (2, 2) or not np.allclose(scale, scale.T):
            raise ValueError("scale must be a symmetric 2x2 matrix")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            raise ValueError("scale matrix must be positive definite") from None
        scale.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)


def niw_posterior(panel, hyper: NiwHyperparams):
    """Posterior (mean, kappa, df, scale) of the NIW model given a panel.

    ``panel=None`` is the prior-only hook: the update reduces to the prior.
    """
    if panel is None:
        return np.asarray(hyper.mean, dtype=float), hyper.kappa, hyper.df, hyper.scale
    t = panel.n_obs
    ybar = np.array([panel.mean_x, panel.mean_h])
    sxy = -panel.cross_moment
    scatter = np.array([[panel.sxx, sxy], [sxy, panel.shh]])
    mean0 = np.asarray(hyper.mean, dtype=float)
    kappa_n = hyper.kappa + t
    df_n = hyper.df + t
    dev = ybar - mean0
    scale_n = hyper.scale + scatter + (hyper.kappa * t / kappa_n) * np.outer(dev, dev)
    mean_n = (hyper.kappa * mean0 + t * ybar) / kappa_n
    return mean_n, kappa_n, df_n, scale_n


def conjugate_sample(panel, hyper: NiwHyperparams, n_draws, burn_in, seed) -> Chain:
    """Exact draws from the conjugate posterior (the MNC baseline).

    Each precision matrix W ~ Wishart(df_n, scale_n^-1) is drawn with the
    Bartlett decomposition W = L A A' L', where L = chol(scale_n^-1) and A is
    lower triangular with A11^2 ~ chi2(df_n), A22^2 ~ chi2(df_n - 1) and
    A21 ~ N(0, 1); the covariance W^-1 is inverted in closed form and mapped
    to (sigma_x, sigma_h, rho). Every draw satisfies |rho| < 1 by
    construction. Draws are independent, so the burn-in is kept only for
    interface symmetry with :func:`mwg_sample`.
    """
    n_draws = int(n_draws)
    burn_in = int(burn_in)
    if not 0 <= burn_in < n_draws:
        raise ValueError(f"need n_draws > burn_in >= 0, got {n_draws}, {burn_in}")
    _, _, df_n, scale_n = niw_posterior(panel, hyper)
    chol = np.linalg.cholesky(np.linalg.inv(scale_n))
    rng = np.random.default_rng(seed)
    a11 = np.sqrt(rng.chisquare(df_n, n_draws))
    a22 = np.sqrt(rng.chisquare(df_n - 1.0, n_draws))
    a21 = rng.standard_normal(n_draws)
    b11 = chol[0, 0] * a11
    b21 = chol[1, 0] * a11 + chol[1, 1] * a21
    b22 = chol[1, 1] * a22
    w11 = b11 * b11
    w12 = b11 * b21
    w22 = b21 * b21 + b22 * b22
    det = w11 * w22 - w12 * w12
    sigma_x = np.sqrt(w22 / det)
    sigma_h = np.sqrt(w11 / det)
    rho = -w12 / np.sqrt(w11 * w22)
    draws = np.column_stack([sigma_x, sigma_h, rho])
    return Chain(
        draws=draws,
        burn_in=burn_in,
        acceptance_counts=np.full(3, n_draws, dtype=int),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Default proposal triples
# ---------------------------------------------------------------------------

FAMILY_CODES = ("ttn", "tnn", "ign")


def default_proposals(code, panel, rho_step=0.1, tt_df=5.0, ig_shape=None,
                      scale_multiplier=2.0):
    """MLE-anchored proposal triple for one of the named candidate families.

    Volatility proposals are independence proposals centered on the MLE with
    scale ``scale_multiplier * sigma_hat / sqrt(T)``; the inverse-gamma
    variant places its mode at ``sigma_hat**2`` with a shape that keeps its
    relative width at the same multiple of the posterior's as the truncated
    families (shape = 2 + T / (4 * multiplier^2)), unless a fixed shape is
    given. rho always uses the random-walk normal with step ``rho_step``.
    """
    if code not in FAMILY_CODES:
        raise ValueError(f"unknown family code {code!r}; expected one of {FAMILY_CODES}")
    est = mle_estimate(panel)
    sqrt_t = math.sqrt(panel.n_obs)
    rho_spec = ProposalSpec(family="normal", loc=0.0, scale=rho_step)
    if ig_shape is None:
        ig_shape = 2.0 + panel.n_obs / (4.0 * scale_multiplier ** 2)

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

    return (vol_spec(est.sigma_x), vol_spec(est.sigma_h), rho_spec)
