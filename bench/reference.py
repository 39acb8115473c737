"""A fixed computation of the benchmark's own, timed between jobs to follow
how fast the machine runs.

On a shared machine the speed of one CPU-bound Python process drifts by up to
a factor of 1.5 within minutes, as neighbours' load changes, and it drifts for
flatzeta and for this computation alike.  The benchmark times this
computation before each job, about once per 0.3 s of job time, and scales the
run's job times to a machine on which it takes NOMINAL_S seconds on average.
It is built like flatzeta's hot path, nested tanh-sinh sums in Python loops
over small numpy arrays, so that it slows down the way flatzeta does; it never
calls flatzeta, so a change to flatzeta leaves it as it is.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: the reference's mean time on the machine the reported times refer to
NOMINAL_S = 0.015

_T = [np.arange(0.0, 4.0, 1.0)] + [np.arange(2.0 ** -k, 4.0, 2.0 ** (1 - k))
                                   for k in range(1, 6)]


def _tanh_sinh(f, levels: int) -> float:
    """Fixed-level tanh-sinh sum of f over (0, 1)."""
    total = 0.0
    for level in range(levels):
        t = _T[level]
        u = 0.5 * math.pi * np.sinh(t)
        em = np.exp(-2.0 * u)
        off = em / (1.0 + em)
        w = math.pi * np.cosh(t) * em / (1.0 + em) ** 2
        if level == 0:
            xs = np.concatenate([off, 1.0 - off[1:]])
            ws = np.concatenate([w, w[1:]])
        else:
            xs = np.concatenate([off, 1.0 - off])
            ws = np.concatenate([w, w])
        total += float(np.dot(ws, f(xs)))
    return total * 2.0 ** (1 - levels)


def reference() -> float:
    """int_0^1 int_0^1 x^-0.3 y^-0.5 dy dx = 1/(0.7 * 0.5), by an inner
    quadrature per outer node."""
    def inner(x: float) -> float:
        return _tanh_sinh(lambda ys: np.exp(-0.5 * np.log(ys)), 4) * x ** -0.3

    def outer(xs):
        return np.array([inner(float(x)) for x in xs])

    return _tanh_sinh(outer, 6)


class Speedometer:
    """Reference timings of one stretch of a run."""

    def __init__(self):
        self.times = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            reference()
            self.times.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """How much slower than nominal the machine ran: the mean reference
        time over NOMINAL_S.  The mean, like a sum of job times, weighs slow
        stretches by their length."""
        return statistics.mean(self.times) / NOMINAL_S
