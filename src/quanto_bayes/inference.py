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
  rho, in that order) against the conditional kernels, with independence
  proposals for the volatilities and a random-walk normal proposal for rho.
* :func:`conjugate_sample` draws exactly from the Normal-Inverse-Wishart
  conjugate posterior of an unconstrained bivariate normal (MNC baseline).
* :func:`mle_estimate` is the closed-form maximum likelihood baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, stdtr, stdtrit

from .model import Drift, ReturnPanel, Theta

__all__ = [
    "PosteriorKernel",
    "ProposalSpec",
    "Chain",
    "MleEstimate",
    "NiwHyperparams",
    "PARAMETERS",
    "FAMILY_CODES",
    "proposal_logpdf",
    "mwg_sample",
    "mle_estimate",
    "niw_posterior",
    "conjugate_sample",
    "default_proposals",
]

PARAMETERS = ("sigma_x", "sigma_h", "rho")

NEG_INF = float("-inf")


class PosteriorKernel:
    """Unnormalized log posterior of (sigma_x, sigma_h, rho) given a panel."""

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
            if self.df is None or self.df <= 2.0:
                raise ValueError("truncated_t needs df > 2")
        if self.family == "inverse_gamma":
            if self.shape is None or self.shape <= 2.0:
                raise ValueError("inverse_gamma needs shape > 2")
        if self.family in ("truncated_normal", "truncated_t") and not math.isfinite(self.loc):
            raise ValueError(f"loc must be finite, got {self.loc}")

    @property
    def is_independence(self):
        return self.family in _INDEPENDENCE_FAMILIES


def _truncated_candidates(spec: ProposalSpec, u):
    """Inverse-CDF draws on (0, inf) for the truncated families; u in [0, 1).

    The clamp keeps u = 0 (a representable random draw) inside the open
    support instead of landing exactly on the boundary.
    """
    a0 = -spec.loc / spec.scale
    if spec.family == "truncated_normal":
        p0 = ndtr(a0)
        v = spec.loc + spec.scale * ndtri(p0 + u * (1.0 - p0))
    else:
        p0 = stdtr(spec.df, a0)
        v = spec.loc + spec.scale * stdtrit(spec.df, p0 + u * (1.0 - p0))
    return np.maximum(v, np.finfo(float).tiny)


def _proposal_stream(spec: ProposalSpec, rng, n_draws):
    """``n_draws`` proposal variates for one parameter, in the sampler's RNG order.

    Independence families give candidates; the random-walk normal gives the
    steps added to the current value.
    """
    if spec.family == "normal":
        return spec.scale * rng.standard_normal(n_draws)
    if spec.family == "inverse_gamma":
        return np.sqrt(spec.scale / rng.standard_gamma(spec.shape, size=n_draws))
    return _truncated_candidates(spec, rng.random(n_draws))


def _make_logpdf(spec: ProposalSpec):
    """Fast scalar log-density closure with normalization constants baked in."""
    if spec.family == "truncated_normal":
        loc, scale = spec.loc, spec.scale
        const = -0.5 * math.log(2.0 * math.pi) - math.log(scale) - math.log(ndtr(loc / scale))
        inv2 = 0.5 / (scale * scale)

        def logpdf(v):
            if v <= 0.0:
                return NEG_INF
            d = v - loc
            return const - d * d * inv2

        return logpdf
    if spec.family == "truncated_t":
        loc, scale, df = spec.loc, spec.scale, spec.df
        const = (
            gammaln(0.5 * (df + 1.0))
            - gammaln(0.5 * df)
            - 0.5 * math.log(df * math.pi)
            - math.log(scale)
            - math.log(stdtr(df, loc / scale))
        )
        half = 0.5 * (df + 1.0)

        def logpdf(v):
            if v <= 0.0:
                return NEG_INF
            z = (v - loc) / scale
            return const - half * math.log1p(z * z / df)

        return logpdf
    if spec.family == "inverse_gamma":
        a, b = spec.shape, spec.scale
        const = a * math.log(b) - gammaln(a) + math.log(2.0)
        power = 2.0 * a + 1.0

        def logpdf(v):
            if v <= 0.0:
                return NEG_INF
            try:
                return const - power * math.log(v) - b / (v * v)
            except ZeroDivisionError:  # v*v underflowed
                return NEG_INF

        return logpdf
    loc, scale = spec.loc, spec.scale
    const = -0.5 * math.log(2.0 * math.pi) - math.log(scale)
    inv2 = 0.5 / (scale * scale)

    def logpdf(v, center=loc):
        d = v - center
        return const - d * d * inv2

    return logpdf


def proposal_logpdf(spec: ProposalSpec, value, center=None):
    """Normalized log proposal density at ``value``.

    For the random-walk normal family the density is centered at ``center``
    (defaults to ``loc``); for the independence families ``center`` is
    ignored. This is the q entering the acceptance ratio.
    """
    fn = _make_logpdf(spec)
    if spec.family == "normal" and center is not None:
        return fn(value, center)
    return fn(value)


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

    def parameter(self, name, include_burn_in=False):
        col = PARAMETERS.index(name)
        data = self.draws if include_burn_in else self.draws[self.burn_in:]
        return data[:, col]

    def acceptance_rate(self, name):
        return float(self.acceptance_counts[PARAMETERS.index(name)]) / len(self)

    def draw(self, k) -> Theta:
        sx, sh, r = self.draws[k]
        return Theta(sx, sh, r)


# ---------------------------------------------------------------------------
# Metropolis-within-Gibbs sampler
# ---------------------------------------------------------------------------

def mwg_sample(panel, specs, n_draws, burn_in, init: Theta, seed, kernel=None):
    """Sample the posterior with a Metropolis-within-Gibbs sweep.

    Each sweep updates sigma_x, sigma_h and rho in that fixed order; each
    update draws a candidate from its proposal and accepts it against the
    parameter's conditional kernel with the standard Metropolis-Hastings
    rule (accept when u < alpha). Independence proposals contribute their
    density ratio to alpha; the random-walk normal is symmetric and does not.

    Randomness is consumed in a fixed order (candidate streams for the three
    parameters, then a (K, 3) block of acceptance uniforms), so an identical
    seed reproduces the chain bit for bit.

    ``kernel`` may replace the panel-derived :class:`PosteriorKernel` with any
    object exposing the three conditional methods, which is how the sampler is
    validated against targets with known moments.
    """
    if kernel is None:
        if panel is None:
            raise ValueError("either a panel or an explicit kernel is required")
        kernel = PosteriorKernel(panel)
    specs = tuple(specs)
    if len(specs) != 3:
        raise ValueError(f"expected one proposal spec per parameter, got {len(specs)}")
    n_draws = int(n_draws)
    burn_in = int(burn_in)
    if not 0 <= burn_in < n_draws:
        raise ValueError(f"need n_draws > burn_in >= 0, got {n_draws}, {burn_in}")
    if not isinstance(init, Theta):
        init = Theta(*init)

    rng = np.random.default_rng(seed)
    # The sweep is scalar code. Indexing a memoryview of a float64 array gives
    # Python floats, whose arithmetic is several times faster than numpy
    # scalars', without a list's per-element objects.
    cand_x, cand_h, cand_r = (memoryview(_proposal_stream(spec, rng, n_draws))
                              for spec in specs)
    log_u_x, log_u_h, log_u_r = (
        memoryview(column)
        for column in np.ascontiguousarray(np.log(rng.random((n_draws, 3))).T)
    )

    indep = [spec.is_independence for spec in specs]
    logq = [_make_logpdf(spec) if spec.is_independence else None for spec in specs]
    fx = kernel.log_cond_sigma_x
    fh = kernel.log_cond_sigma_h
    fr = kernel.log_cond_rho

    sx, sh, r = init.sigma_x, init.sigma_h, init.rho
    draws = np.empty((n_draws, 3))
    accepted = [0, 0, 0]
    accepted_post = [0, 0, 0]

    for k in range(n_draws):
        tail = k >= burn_in

        c = cand_x[k] if indep[0] else sx + cand_x[k]
        la = fx(c, sh, r) - fx(sx, sh, r)
        if indep[0]:
            la += logq[0](sx) - logq[0](c)
        if log_u_x[k] < la:
            sx = c
            accepted[0] += 1
            if tail:
                accepted_post[0] += 1

        c = cand_h[k] if indep[1] else sh + cand_h[k]
        la = fh(c, sx, r) - fh(sh, sx, r)
        if indep[1]:
            la += logq[1](sh) - logq[1](c)
        if log_u_h[k] < la:
            sh = c
            accepted[1] += 1
            if tail:
                accepted_post[1] += 1

        c = cand_r[k] if indep[2] else r + cand_r[k]
        la = fr(c, sx, sh) - fr(r, sx, sh)
        if indep[2]:
            la += logq[2](r) - logq[2](c)
        if log_u_r[k] < la:
            r = c
            accepted[2] += 1
            if tail:
                accepted_post[2] += 1

        draws[k, 0] = sx
        draws[k, 1] = sh
        draws[k, 2] = r

    warnings = tuple(
        f"no accepted moves for {PARAMETERS[i]} after burn-in"
        for i in range(3)
        if accepted_post[i] == 0
    )
    return Chain(
        draws=draws,
        burn_in=burn_in,
        acceptance_counts=np.array(accepted, dtype=int),
        seed=int(seed),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Baselines: MLE and conjugate Normal-Inverse-Wishart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MleEstimate:
    theta_hat: Theta
    drift_hat: Drift


def mle_estimate(panel: ReturnPanel) -> MleEstimate:
    """Closed-form maximum likelihood estimate of the return model.

    sigma_hat^2 uses the 1/T divisor; the drift estimates undo the
    -sigma^2/2 convexity shift of the return means. Perfectly correlated or
    constant panels have no estimate in the open parameter space.
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
    theta = Theta(sigma_x, sigma_h, rho)
    drift = Drift(
        mu_x=panel.mean_x + 0.5 * sigma_x * sigma_x,
        mu_h=panel.mean_h + 0.5 * sigma_h * sigma_h,
    )
    return MleEstimate(theta_hat=theta, drift_hat=drift)


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
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.df < 2.0:
            raise ValueError(f"df must be >= 2 for a 2x2 scale, got {self.df}")
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
    code = code.lower()
    if code not in FAMILY_CODES:
        raise ValueError(f"unknown family code {code!r}; expected one of {FAMILY_CODES}")
    est = mle_estimate(panel).theta_hat
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
