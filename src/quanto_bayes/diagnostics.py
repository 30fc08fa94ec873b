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

from .inference import PARAMETERS, Chain

__all__ = ["ChainSummary", "MIN_SUMMARY_DRAWS", "nse", "geweke_cd", "hpdi", "sorted_hpdi",
           "summarize"]

MIN_SUMMARY_DRAWS = 10  # the fewest post-burn-in draws that summarize accepts


def _row_nses(block):
    """NSE estimates of the rows of a 2-D block, as floats, without a
    minimum-length guard (used on CD segments too); a row needs 2 entries.

    A row's deviations from its mean that are all zero give a zero
    periodogram, so a constant row has nse 0. One FFT along the rows serves
    them all, and each row rounds as it would alone.
    """
    n = block.shape[1]
    y = block - block.mean(axis=1, keepdims=True)
    m = max(1, math.ceil(0.04 * n) // 2)
    m = min(m, n // 2)
    spec = np.abs(np.fft.rfft(y, axis=1)[:, 1:m + 1]) ** 2 / n
    return [math.sqrt(s0 / n) for s0 in spec.mean(axis=1).tolist()]


def _row_cds(block):
    """:func:`geweke_cd` of each row of a 2-D block, without its guard."""
    n = block.shape[1]
    head = block[:, : int(0.1 * n)]
    tail = block[:, n - int(0.5 * n):]
    cds = []
    for nse_head, nse_tail, mean_head, mean_tail in zip(
            _row_nses(head), _row_nses(tail),
            head.mean(axis=1).tolist(), tail.mean(axis=1).tolist()):
        denom = math.sqrt(nse_head ** 2 + nse_tail ** 2)
        cds.append(None if denom == 0.0 else (mean_head - mean_tail) / denom)
    return cds


def _one_row(samples, what):
    """``samples`` as a one-row block, refused below 100 samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError(f"{what} needs at least 100 samples, got {samples.size}")
    return samples.reshape(1, -1)


def nse(samples):
    """Numerical standard error of the sample mean of an MCMC sequence.

    A constant sequence has nse 0; fewer than 100 samples are refused since
    the spectral estimate is meaningless there.
    """
    return _row_nses(_one_row(samples, "nse"))[0]


def geweke_cd(samples):
    """Geweke convergence diagnostic.

    Standardized difference between the mean of the first 10 percent and the
    mean of the last 50 percent of the sequence; approximately standard
    normal for a converged chain. Returns ``None`` when both segment
    variances vanish (the not-available marker for constant chains).
    """
    return _row_cds(_one_row(samples, "geweke_cd"))[0]


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


def summarize(chain: Chain) -> dict:
    """``{parameter: ChainSummary}`` for the three chain parameters, burn-in
    excluded, in ``PARAMETERS`` order.

    The post-burn-in draws are copied once into a C-contiguous (3, n) block.
    One mean, one std, one sort and one FFT for each of the whole chain, its
    first tenth and its last half serve all three rows, and each row's
    statistics are those of its column alone, bit for bit.
    """
    block = np.ascontiguousarray(chain.post_burn_in().T)
    n = block.shape[1]
    if n < MIN_SUMMARY_DRAWS:
        raise ValueError(f"too few post-burn-in draws to summarize: {n}")
    means = block.mean(axis=1).tolist()
    std_devs = block.std(axis=1, ddof=1).tolist()
    spectral = n >= 100
    nses = _row_nses(block) if spectral else [None] * 3
    cds = _row_cds(block) if spectral else [None] * 3
    ordered = np.sort(block, axis=1)
    return {
        name: ChainSummary(
            mean=means[i], std_dev=std_devs[i], nse=nses[i], cd=cds[i],
            hpdi_95=sorted_hpdi(ordered[i], 0.95),
            acceptance_rate=chain.acceptance_rate(name),
        )
        for i, name in enumerate(PARAMETERS)
    }
