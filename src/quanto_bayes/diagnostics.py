"""Chain summaries: numerical standard error, Geweke's convergence
diagnostic, and highest posterior density intervals.

The NSE of a chain mean is sqrt(S(0)/n), with S(0) the spectral density at
frequency zero estimated by a Daniell-smoothed periodogram. The smoothing
window spans ceil(0.04*n) ordinates centered at zero; by the periodogram's
even symmetry that is the average of the first ceil(0.04*n)//2 positive
ordinates (4 percent of the frequency range up to Nyquist). The convergence
diagnostic compares the means of the first 10 and last 50 percent of the
chain, standardized by their segment NSEs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .inference import Chain

__all__ = ["ChainSummary", "MIN_SUMMARY_DRAWS", "nse", "geweke_cd", "hpdi", "sorted_hpdi",
           "summarize"]

MIN_SUMMARY_DRAWS = 10  # the fewest post-burn-in draws that summarize accepts


def _spectral_nse(x):
    """NSE estimate without a minimum-length guard (used on CD segments)."""
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


def nse(samples):
    """Numerical standard error of the sample mean of an MCMC sequence.

    A constant sequence has nse 0; fewer than 100 samples are refused since
    the spectral estimate is meaningless there.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError(f"nse needs at least 100 samples, got {samples.size}")
    return _spectral_nse(samples)


def geweke_cd(samples):
    """Geweke convergence diagnostic.

    Standardized difference between the mean of the first 10 percent and the
    mean of the last 50 percent of the sequence; approximately standard
    normal for a converged chain. Returns ``None`` when both segment
    variances vanish (the not-available marker for constant chains).
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 100:
        raise ValueError(f"geweke_cd needs at least 100 samples, got {n}")
    head = samples[: int(0.1 * n)]
    tail = samples[-int(0.5 * n):]
    denom = math.sqrt(_spectral_nse(head) ** 2 + _spectral_nse(tail) ** 2)
    if denom == 0.0:
        return None
    return (float(head.mean()) - float(tail.mean())) / denom


def hpdi(samples, level):
    """Shortest contiguous interval of sorted samples holding ceil(level*n) draws.

    Ties between equal-width windows are broken by the smallest lower bound,
    so the result is deterministic.
    """
    ordered = np.sort(np.asarray(samples, dtype=float), axis=None)
    if ordered.size < 10:
        raise ValueError(f"hpdi needs at least 10 samples, got {ordered.size}")
    return sorted_hpdi(ordered, level)


def sorted_hpdi(ordered, level):
    """:func:`hpdi` of samples already in ascending order: a scan of the
    windows of ceil(level*n) consecutive samples, which reads only the first
    and last n - ceil(level*n) + 1 of them."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    n = ordered.size
    m = math.ceil(level * n)
    widths = ordered[m - 1:] - ordered[: n - m + 1]
    i = int(np.argmin(widths))
    return float(ordered[i]), float(ordered[i + m - 1])


class ChainSummary(NamedTuple):
    """Posterior summary of one parameter over post-burn-in draws; ``nse``
    and ``cd`` are None below 100 draws, ``cd`` also when :func:`geweke_cd` has none."""

    mean: float
    std_dev: float
    nse: float | None
    cd: float | None
    hpdi_95: tuple
    acceptance_rate: float


def summarize(chain: Chain, parameter) -> ChainSummary:
    """Summary statistics for one chain parameter, burn-in excluded."""
    draws = chain.parameter(parameter)
    if draws.size < MIN_SUMMARY_DRAWS:
        raise ValueError(f"too few post-burn-in draws to summarize: {draws.size}")
    return ChainSummary(
        mean=float(draws.mean()),
        std_dev=float(draws.std(ddof=1)),
        nse=nse(draws) if draws.size >= 100 else None,
        cd=geweke_cd(draws) if draws.size >= 100 else None,
        hpdi_95=hpdi(draws, 0.95),
        acceptance_rate=chain.acceptance_rate(parameter),
    )
