"""Double-exponential quadrature on (0, inf) and on finite intervals.

Half line: substitute u = exp((pi/2) sinh w) and apply the trapezoid
rule in w. Finite interval: the tanh-sinh map x = mid + half*tanh((pi/2) sinh w).
Both transformations push the endpoints out double-exponentially, so the
trapezoid sums converge at roughly squared precision per halving of the
step, and integrable endpoint singularities are harmless.

The levels are nested: the first has step h = 1/2, and each later one
halves h and evaluates only the odd multiples of the new h, so
S_L = S_(L-1)/2 + h * (sum of the new terms) and no node is evaluated
twice. Two successive levels within rel_tol of each other stop the
refinement, and the last difference is reported as the error estimate.
No result rests on fewer than _MIN_SIGNIFICANT significant (non-tiny)
nodes: where every node misses the integrand's mass, two all-zero levels
would agree on 0. A level sum beyond the float range raises
OverflowError at once. Complex-valued integrands work unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 2.3e-16 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must exceed machine epsilon and be below 1")


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
_MAX_LEVELS = 12      # levels, h = 1/2 ... 2**-12, before refinement gives up
_MIN_SIGNIFICANT = 8  # non-tiny off-centre terms a result needs to be accepted


def _half_line_node(w: float):
    s = _HALF_PI * math.sinh(w)
    if abs(s) > _MAX_EXP_ARG:
        return None
    u = math.exp(s)
    return u, _HALF_PI * math.cosh(w) * u


def _interval_node(a: float, b: float):
    half = 0.5 * (b - a)

    def node(w: float):
        theta = _HALF_PI * math.sinh(w)
        if abs(theta) > 350.0:  # cosh(theta)**2 would overflow
            return None
        # gap = 1 - |tanh(theta)|, the node's distance from +-1
        gap = 2.0 / (math.exp(2.0 * abs(theta)) + 1.0)
        x = b - half * gap if theta > 0.0 else a + half * gap
        if x <= a or x >= b:  # gap underflowed against the endpoint
            return None
        c = math.cosh(theta)
        return x, half * _HALF_PI * math.cosh(w) / (c * c)

    return node


def _sweep(f: Callable[[float], float], node: Callable, h: float, step: int,
           total: float, reach: list[float]):
    """Add h f(x) dx/dw at w = +-k h, k = 1, 1 + step, ..., to total.

    node(w) is (x, dx/dw), or None past the float range. A side stops after
    three tiny terms, but not before it passes reach, the farthest |w| of a
    significant node on that side so far. Returns (total, significant, reach).
    """
    floor = 1e-300 * h
    significant = 0
    new_reach = []
    for sign, far in zip((1.0, -1.0), reach):
        tiny_run = 0
        k = 1
        while (mapped := node(sign * k * h)) is not None:
            x, dx = mapped
            term = f(x) * (h * dx)  # h is a power of two, so folding it in keeps every bit
            total += term
            if abs(term) <= _CUTOFF * (abs(total) + floor):
                tiny_run += 1
                if tiny_run >= 3 and k * h > far:
                    break
            else:
                tiny_run = 0
                significant += 1
                far = max(far, k * h)
            k += step
        new_reach.append(far)
    return total, significant, new_reach


def _refine(f: Callable[[float], float], node: Callable, cfg: QuadratureConfig,
            what: str) -> QuadResult:
    h, step = 0.5, 1
    x, dx = node(0.0)
    total, reach, significant = f(x) * (h * dx), [0.0, 0.0], 0  # the centre node, w = 0
    for level in range(_MAX_LEVELS):
        cur, new, reach = _sweep(f, node, h, step, total, reach)
        if abs(cur) == math.inf:  # later levels could only compare inf with inf
            raise OverflowError(f"{what}: a level sum exceeds the float range")
        significant += new
        if level > 0:
            err = abs(cur - prev)
            if (err <= cfg.rel_tol * max(abs(cur), abs(prev))
                    and significant >= _MIN_SIGNIFICANT):
                return QuadResult(cur, err)
        prev, total, h, step = cur, 0.5 * cur, 0.5 * h, 2
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
    return _refine(f, _half_line_node, cfg, "half-line integral")


def integrate_interval(f: Callable[[float], float], a: float, b: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integral of f over (a, b); endpoint singularities are tolerated."""
    if not b > a:
        raise ValueError("needs b > a")
    return _refine(f, _interval_node(a, b), cfg, "interval integral")
