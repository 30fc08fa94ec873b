"""A fixed reference workload that measures how fast the machine runs now.

Other tenants of a shared machine slow it down by up to about 1.8x for
minutes at a time. Each child process times this kernel just before its
import and just after its command. The benchmark reports times in reference
seconds: a measured time scaled by ``REFERENCE_S`` over the kernel's time in
the same process, so a slowdown that hits kernel and command alike cancels. The kernel mixes the three kinds of work the CLI
spends its time on: scalar float code in the interpreter (the MwG sweep,
the implied-vol bisection), numpy arithmetic on path-sized arrays (static
pricing) and float formatting (the CSV writers). It never touches the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.15  # kernel time that one reference second assumes


def _scalar(n):
    x, acc = 0.5, 0.0
    for k in range(n):
        c = x + 0.01 * math.sin(k)
        step = -0.5 * c * c + math.log1p(c * c) + 0.5 * x * x - math.log1p(x * x)
        if step > -0.7:
            x = c
        acc += x
    return acc


def _vector(n, size=20_000):
    rng = np.random.default_rng(12345)
    acc = np.zeros(size)
    for _ in range(n):
        acc += 1e-4 + 0.01 * rng.standard_normal(size)
    return float(np.maximum(np.exp(acc) - 1.0, 0.0).mean())


def _format(n):
    values = np.linspace(0.001, 0.002, 3 * n).reshape(n, 3)
    return sum(len(",".join("%.17g" % v for v in row)) for row in values)


def kernel_s():
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _scalar(200_000)
    _vector(100)
    _format(8_000)
    return time.perf_counter() - start


def to_reference(seconds, kernel_seconds):
    """``seconds`` measured while the kernel took ``kernel_seconds``."""
    return seconds * REFERENCE_S / kernel_seconds
