"""Double-exponential quadrature on (0, inf) and on finite intervals.

Half line: substitute u = exp((pi/2) sinh w) and apply the trapezoid
rule in w. Finite interval: the tanh-sinh map x = mid + half*tanh((pi/2) sinh w).
Both transformations push the endpoints out double-exponentially, so the
trapezoid sums converge at roughly squared precision per halving of the
step, and integrable endpoint singularities are harmless.

Each level halves the step h and recomputes the sum; two successive
levels within rel_tol of each other stop the refinement, and the last
difference is reported as the error estimate. A level with fewer than
_MIN_SIGNIFICANT non-tiny terms is never accepted: where every node misses
the integrand's mass, two all-zero levels would agree on 0. A level sum
beyond the float range raises OverflowError at once; only the coarsest
one, h = 1, may be infinite, and it then fails the first comparison.
Complex-valued integrands work unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 2.3e-16:
            raise ValueError("rel_tol must exceed machine epsilon")


DEFAULT_CONFIG = QuadratureConfig()


class QuadResult(NamedTuple):
    value: float
    error: float


class QuadratureError(RuntimeError):
    """Refinement stalled; carries the last value and error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


_HALF_PI = math.pi / 2.0
_MAX_EXP_ARG = 700.0  # math.exp overflows just above 709
_CUTOFF = 1e-18       # relative size below which a sweep may stop
_MAX_LEVELS = 12      # step halvings before refinement gives up
_MIN_SIGNIFICANT = 8  # non-tiny off-centre terms a level needs to be accepted


def _half_line_sum(f: Callable[[float], float], h: float):
    scale = _HALF_PI * h  # h is a power of two, so folding it in keeps every bit
    floor = 1e-300 * h
    total = f(1.0) * scale  # the w = 0 node, where u = 1
    significant = 0
    for sign in (1.0, -1.0):
        tiny_run = 0
        k = 1
        while True:
            w = sign * k * h
            s = _HALF_PI * math.sinh(w)
            if abs(s) > _MAX_EXP_ARG:
                break
            u = math.exp(s)
            term = f(u) * (scale * math.cosh(w) * u)
            total += term
            if abs(term) <= _CUTOFF * (abs(total) + floor):
                tiny_run += 1
                if tiny_run >= 3:
                    break
            else:
                tiny_run = 0
                significant += 1
            k += 1
    return total, significant


def _interval_sum(f: Callable[[float], float], a: float, b: float, h: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    scale = half * _HALF_PI * h
    floor = 1e-300 * h
    total = f(mid) * scale
    significant = 0
    for sign in (1.0, -1.0):
        tiny_run = 0
        k = 1
        while True:
            w = sign * k * h
            theta = _HALF_PI * math.sinh(w)
            if abs(theta) > 350.0:  # cosh(theta)**2 would overflow
                break
            # gap = 1 - |tanh(theta)|, the node's distance from +-1
            gap = 2.0 / (math.exp(2.0 * abs(theta)) + 1.0)
            x = b - half * gap if theta > 0.0 else a + half * gap
            if x <= a or x >= b:  # gap underflowed against the endpoint
                break
            c = math.cosh(theta)
            term = f(x) * (scale * math.cosh(w) / (c * c))
            total += term
            if abs(term) <= _CUTOFF * (abs(total) + floor):
                tiny_run += 1
                if tiny_run >= 3:
                    break
            else:
                tiny_run = 0
                significant += 1
            k += 1
    return total, significant


def _refine(level_sum: Callable[[float], tuple[float, int]], cfg: QuadratureConfig,
            what: str) -> QuadResult:
    h = 1.0
    prev, _ = level_sum(h)  # may be infinite: one node can overflow at h = 1
    err = math.inf
    for _ in range(_MAX_LEVELS):
        h *= 0.5
        cur, significant = level_sum(h)
        if abs(cur) == math.inf:  # later levels could only compare inf with inf
            raise OverflowError(f"{what}: a level sum exceeds the float range")
        err = abs(cur - prev)  # inf after an infinite first level: not converged
        if (err < math.inf and err <= cfg.rel_tol * max(abs(cur), abs(prev))
                and significant >= _MIN_SIGNIFICANT):
            return QuadResult(cur, err)
        prev = cur
    detail = (f"error estimate {err:.3e}" if significant >= _MIN_SIGNIFICANT
              else f"only {significant} significant nodes, needs {_MIN_SIGNIFICANT}")
    raise QuadratureError(
        f"{what} did not converge within {_MAX_LEVELS} levels ({detail})", prev, err)


def integrate_half_line(f: Callable[[float], float],
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integral of f over (0, inf).

    The exp-sinh map damps a u**(-1/2) endpoint factor only slowly;
    integrate 2 v f(v**2) instead, as `GammaHalf.half_line` does.
    """
    return _refine(lambda h: _half_line_sum(f, h), cfg, "half-line integral")


def integrate_interval(f: Callable[[float], float], a: float, b: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integral of f over (a, b); endpoint singularities are tolerated."""
    if not b > a:
        raise ValueError("needs b > a")
    return _refine(lambda h: _interval_sum(f, a, b, h), cfg, "interval integral")
