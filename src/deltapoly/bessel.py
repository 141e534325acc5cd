"""Bessel polynomials and the basic polynomials of D - D**2/2.

The Bessel polynomials are

    y_n(t) = sum_{j=0}^{n} (n+j)! / (j! (n-j)!) (t/2)^j,

and the basic sequence of the delta operator D - D**2/2 is

    w_n(t) = sum_{j=0}^{n-1} (n+j-1)! t^{n-j} / (j! (n-j-1)! 2^j).

The two are tied together by w_n(t) = t^n y_{n-1}(1/t) for n >= 1 and by
the exponential generating function

    sum_n y_n(t) x^n / n! = exp((1 - sqrt(1-2tx))/t) / sqrt(1-2tx).

Everything in this module is exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .delta import AbTriple, basic_sequence_closed
from .series import (
    FormalPowerSeries,
    Poly,
    PolySequence,
    RationalLike,
    fps_exp,
    fps_recip,
    fps_sqrt,
    poly_eval,
)


#: D - D**2/2: its basic polynomials are the reversed Bessel polynomials.
CARLITZ = AbTriple(Fraction(1), Fraction(1, 2), 1)


def bessel_poly(nmax: int) -> PolySequence:
    """Bessel polynomials y_0..y_nmax; y_n has degree n and y_n(0) = 1.

    [t^j] y_n = N_j / 2^j with the integer N_j = (n+j)!/(j! (n-j)!), built
    by the term ratio N_{j+1} = N_j (n+j+1) (n-j) / (j+1), an exact division.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    polys = []
    for n in range(nmax + 1):
        coeffs, nj = [], 1
        for j in range(n + 1):
            coeffs.append(Fraction(nj, 1 << j))
            nj = nj * (n + j + 1) * (n - j) // (j + 1)
        polys.append(Poly(coeffs))
    return PolySequence(tuple(polys))


def w_bessel_relation_check(nmax: int) -> bool:
    """t^n y_{n-1}(1/t) == w_n(t) as polynomials, for 1 <= n <= nmax.

    (At n = 0 the relation is ill-typed: w_0 = 1 has no y_{-1} partner.)
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    ws = basic_sequence_closed(CARLITZ, nmax)
    ys = bessel_poly(nmax - 1)
    for n in range(1, nmax + 1):
        # t^n y_{n-1}(1/t) has the coefficients of y_{n-1} reversed, above a zero
        if Poly([0, *reversed(ys[n - 1].coeffs)]) != ws[n]:
            return False
    return True


def bessel_egf_check(t0: RationalLike, order: int) -> bool:
    """sum_{n<=order} y_n(t0) x^n / n! == exp((1-sqrt(1-2 t0 x))/t0) / sqrt(1-2 t0 x),
    both sides expanded exactly to the given order."""
    t0 = Fraction(t0)
    if t0 == 0:
        raise ValueError("t0 must be nonzero")
    if order < 1:
        raise ValueError("order must be >= 1")
    ys = bessel_poly(order)
    lhs = FormalPowerSeries(
        [poly_eval(ys[n], t0) / math.factorial(n) for n in range(order + 1)], order)
    root = fps_sqrt(FormalPowerSeries([1, -2 * t0], order))
    rhs = fps_exp((1 - root) * (1 / t0)) * fps_recip(root)
    return lhs == rhs
