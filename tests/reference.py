"""Straightforward exact constructions that the tests hold the library to.

Each one is the textbook formula, written for clarity and not for speed:
the library builds the same objects by faster routes.
"""

import cmath
import math
from fractions import Fraction
from itertools import zip_longest

from deltapoly.delta import DeltaOperator
from deltapoly.distributions import density
from deltapoly.quadrature import DEFAULT_CONFIG
from deltapoly.series import FormalPowerSeries, Poly


def poly_add(p, q):
    """Coefficientwise sum."""
    return Poly([a + b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)])


def poly_mul(p, q):
    """Cauchy product: [t^k] pq = sum_{i+j=k} p_i q_j."""
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def poly_diff(p):
    """Formal derivative."""
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:])


def fps_compose(outer, inner):
    """outer(inner(x)) by Horner's rule; inner must have zero constant term."""
    if inner[0] != 0:
        raise ValueError("composition needs a zero inner constant term")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = FormalPowerSeries.constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + outer.coeffs[k]
    return acc


def closed_w(abp, n):
    """w_n of a*D - b*D^(p+1) from the factorial sum
    sum_j (n+j-1)! b^j / (j! (n-jp-1)! a^(n+j)) t^(n-jp)."""
    if n == 0:
        return Poly([1])
    a, b, p = abp.a, abp.b, abp.p
    coeffs = [Fraction(0)] * (n + 1)
    for j in range((n - 1) // p + 1):
        coeffs[n - j * p] = (Fraction(math.factorial(n + j - 1),
                                      math.factorial(j) * math.factorial(n - j * p - 1))
                             * b**j / a**(n + j))
    return Poly(coeffs)


def bessel_y(n):
    """y_n(t) = sum_j (n+j)! / (j! (n-j)!) (t/2)^j."""
    return Poly([Fraction(math.factorial(n + j), math.factorial(j) * math.factorial(n - j) * 2**j)
                 for j in range(n + 1)])


def forward_difference(order):
    """Q = exp(D) - 1, i.e. Qp(t) = p(t+1) - p(t), with g truncated at
    `order`; D^(n+1) annihilates degree-n polynomials, so the truncation is
    exact up to that degree."""
    coeffs = [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, order + 1)]
    return DeltaOperator(FormalPowerSeries(coeffs, order))


def char_fun_quadrature(dist, x):
    """E[exp(ixU)] by direct integration on the law's own map, as an oracle
    for char_fun. Reliable for moderate |x|, where the density decay
    dominates the oscillation."""

    def integrand(u):
        d = density(dist, u)
        return 0.0 if d == 0.0 else cmath.exp(1j * x * u) * d

    return dist.half_line(integrand, DEFAULT_CONFIG)
