"""Executable oracles for the posterior of (sigma_x, sigma_h, rho).

The package states its posterior once, as formulas, in the
``quanto_bayes.inference`` module docstring; :class:`PosteriorKernel` is that
statement as code. :func:`reference_mwg_sample` is the generic
kernel-calling Metropolis-within-Gibbs loop that ``mwg_sample``'s closed-form
sweep replaced, kept to check it bit for bit and to run the sampler on
targets with known moments; :func:`reference_logpdf` gives it the proposal
densities with their normalising constants. :func:`reference_proposal_stream`
and :func:`reference_summarize` are the candidate streams and the chain
summaries as they were computed before they were built in place and on a
(3, n) block, kept to check the rewritten code bit for bit.
"""

import math

import numpy as np
from scipy.special import ndtr, stdtr

from quanto_bayes import inference
from quanto_bayes.diagnostics import ChainSummary, _row_nses
from quanto_bayes.inference import PARAMETERS, Chain, ProposalSpec
from quanto_bayes.model import ReturnPanel, Theta

NEG_INF = float("-inf")


class PosteriorKernel:
    """Unnormalized log posterior of (sigma_x, sigma_h, rho) given a panel.

    Nothing in the package calls it: ``mwg_sample`` evaluates the same
    conditional differences in closed form on the panel's sufficient
    statistics, and ``exact_posterior_draws`` samples it exactly. It is the
    independent oracle that the tests check both samplers and their
    quadratures against.
    """

    __slots__ = ("_t", "_sxx", "_shh", "_cross")

    def __init__(self, panel: ReturnPanel):
        self._t = float(panel.n_obs)
        self._sxx = panel.sxx
        self._shh = panel.shh
        self._cross = -panel.sxh

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


def reference_logpdf(spec: ProposalSpec):
    """Fast scalar log-density closure with normalization constants baked in;
    the constant is also kept as the closure's ``const``.

    The library's kernel leaves the constant out, since it cancels from the
    independence acceptance ratio. The reference sampler keeps it, so its
    bitwise match with :func:`mwg_sample` shows that it cancels.
    """
    if spec.family == "truncated_normal":
        loc, scale = spec.loc, spec.scale
        const = -0.5 * math.log(2.0 * math.pi) - math.log(scale) - math.log(ndtr(loc / scale))
        inv2 = 0.5 / (scale * scale)

        def logpdf(v):
            if v <= 0.0:
                return -math.inf
            d = v - loc
            return const - d * d * inv2

        logpdf.const = const
        return logpdf
    if spec.family == "truncated_t":
        loc, scale, df = spec.loc, spec.scale, spec.df
        const = (
            math.lgamma(0.5 * (df + 1.0))
            - math.lgamma(0.5 * df)
            - 0.5 * math.log(df * math.pi)
            - math.log(scale)
            - math.log(stdtr(df, loc / scale))
        )
        half = 0.5 * (df + 1.0)

        def logpdf(v):
            if v <= 0.0:
                return -math.inf
            z = (v - loc) / scale
            return const - half * math.log1p(z * z / df)

        logpdf.const = const
        return logpdf
    a, b = spec.shape, spec.scale
    const = a * math.log(b) - math.lgamma(a) + math.log(2.0)
    power = 2.0 * a + 1.0

    def logpdf(v):
        if v <= 0.0:
            return -math.inf
        try:
            return const - power * math.log(v) - b / (v * v)
        except ZeroDivisionError:  # v*v underflowed
            return -math.inf

    logpdf.const = const
    return logpdf


def reference_mwg_sample(panel, specs, n_draws, burn_in, init, seed, kernel=None):
    """Metropolis-within-Gibbs against any object with the three conditional
    kernel methods (a :class:`PosteriorKernel` of ``panel`` by default), with
    the production sampler's random stream and acceptance rule."""
    if kernel is None:
        kernel = PosteriorKernel(panel)
    specs = tuple(specs)
    n_draws = int(n_draws)
    burn_in = int(burn_in)
    if not isinstance(init, Theta):
        init = Theta(*init)

    rng = np.random.default_rng(seed)
    # looked up on the module, so a test that patches the stream patches both samplers
    cand_x, cand_h, cand_r = (memoryview(inference._proposal_stream(spec, rng, n_draws))
                              for spec in specs)
    log_u_x, log_u_h, log_u_r = (
        memoryview(column)
        for column in np.ascontiguousarray(np.log(rng.random((n_draws, 3))).T)
    )

    # a ProposalSpec is an independence density; a float is a random-walk step
    indep = [isinstance(spec, ProposalSpec) for spec in specs]
    logq = [reference_logpdf(spec) if ok else None for spec, ok in zip(specs, indep)]
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
        warnings=warnings,
    )


def reference_proposal_stream(spec, rng, n_draws):
    """``inference._proposal_stream`` as a chain of fresh arrays: loc + scale z
    over each whole batch, its positive finite candidates copied into the
    stream."""
    if not isinstance(spec, ProposalSpec):
        return spec * rng.standard_normal(n_draws)
    loc, scale = spec.loc, spec.scale
    if spec.family == "inverse_gamma":
        return np.sqrt(scale / rng.standard_gamma(spec.shape, size=n_draws))
    out = np.empty(n_draws)
    filled = 0
    m = n_draws
    while filled < n_draws:
        if spec.family == "truncated_normal":
            z = rng.standard_normal(m)
        else:
            z = rng.standard_t(spec.df, m)
        with np.errstate(over="ignore"):
            v = loc + scale * z
        v = v[(v > 0.0) & (v < math.inf)]
        kept = min(v.size, n_draws - filled)
        out[filled:filled + kept] = v[:kept]
        filled += kept
        if v.size:
            m = math.ceil((n_draws - filled) * m / v.size)
        elif m < 1 << 20:
            m *= 2
        else:
            raise ArithmeticError("no draw is a positive float")
    return out


def spectral_nse(x):
    """``diagnostics.nse`` of one series without its minimum-length guard."""
    return _row_nses(np.asarray(x, dtype=float).reshape(1, -1))[0]


def _reference_spectral_nse(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    y = x - x.mean()
    if not np.any(y):
        return 0.0
    m = max(1, math.ceil(0.04 * n) // 2)
    m = min(m, n // 2)
    spec = np.abs(np.fft.rfft(y)[1:m + 1]) ** 2 / n
    s0 = float(np.mean(spec))
    return math.sqrt(s0 / n)


def _reference_geweke_cd(samples):
    n = samples.size
    head = samples[: int(0.1 * n)]
    tail = samples[-int(0.5 * n):]
    denom = math.sqrt(_reference_spectral_nse(head) ** 2 + _reference_spectral_nse(tail) ** 2)
    if denom == 0.0:
        return None
    return (float(head.mean()) - float(tail.mean())) / denom


def _reference_hpdi(samples, level):
    ordered = np.sort(np.asarray(samples, dtype=float), axis=None)
    n = ordered.size
    m = math.ceil(level * n)
    widths = ordered[m - 1:] - ordered[: n - m + 1]
    i = int(np.argmin(widths))
    return float(ordered[i]), float(ordered[i + m - 1])


def reference_summarize(chain: Chain, parameter) -> ChainSummary:
    """``diagnostics.summarize(chain)[parameter]`` one parameter at a time, on
    its strided post-burn-in column, with one FFT and one sort per series."""
    draws = chain.parameter(parameter)
    if draws.size < 10:
        raise ValueError(f"too few post-burn-in draws to summarize: {draws.size}")
    spectral = draws.size >= 100
    return ChainSummary(
        mean=float(draws.mean()),
        std_dev=float(draws.std(ddof=1)),
        nse=_reference_spectral_nse(draws) if spectral else None,
        cd=_reference_geweke_cd(draws) if spectral else None,
        hpdi_95=_reference_hpdi(draws, 0.95),
        acceptance_rate=chain.acceptance_rate(parameter),
    )
