"""Delta operators and their basic sequences of binomial type.

A delta operator is Q = g(D) where D is differentiation on polynomials
and g is a formal power series with g(0) = 0 and g'(0) != 0. Each Q owns
a unique basic sequence

    w_0 = 1,   w_n(0) = 0,   Q w_n = n w_{n-1},

and every basic sequence is of binomial type:

    w_n(s + t) = sum_k C(n, k) w_k(s) w_{n-k}(t).

The family treated in closed form here is Q = a*D - b*D**(p+1), whose
basic polynomials are

    w_n(t) = sum_{j=0}^{floor((n-1)/p)}
             (n+j-1)! b^j / (j! (n-jp-1)! a^{n+j}) * t^{n-jp},

and whose exponential generating function is exp(t f(x)) with f the
compositional inverse of g(x) = a x - b x^{p+1}, given by the
Fuss-Catalan series: [x^{jp+1}] f = Fuss_{p+1}(j) b^j / a^{(p+1)j+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fuss import fuss_number
from .series import FormalPowerSeries, Poly, PolySequence


@dataclass(frozen=True)
class AbTriple:
    """Parameters of the operator a*D - b*D**(p+1); a != 0, p >= 1."""

    a: Fraction
    b: Fraction
    p: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError("p must be a positive integer")


@dataclass(frozen=True)
class DeltaOperator:
    """g(D) with g(0) = 0 and g'(0) != 0, acting on polynomials."""

    g: FormalPowerSeries

    def __post_init__(self):
        if self.g.order < 1 or self.g[0] != 0:
            raise ValueError("delta operator needs g(0) = 0")
        if self.g[1] == 0:
            raise ValueError("delta operator needs g'(0) != 0")

    @classmethod
    def from_ab(cls, abp: AbTriple, order: int) -> "DeltaOperator":
        order = max(order, abp.p + 1)
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[1] = abp.a
        coeffs[abp.p + 1] = -abp.b
        return cls(FormalPowerSeries(coeffs, order))


def apply_delta(op: DeltaOperator, p: Poly) -> Poly:
    """sum_k g_k D^k p by [t^j] Q p = sum_{k>=1} g_k (j+k)!/j! p_{j+k};
    finite because D lowers degree."""
    c = p.coeffs
    terms = [(k, op.g[k]) for k in range(1, min(op.g.order, p.degree) + 1) if op.g[k]]
    return Poly([sum(gk * math.perm(j + k, k) * c[j + k]
                     for k, gk in terms if j + k < len(c) and c[j + k])
                 for j in range(p.degree)])


class BinomialSequence(PolySequence):
    """Polynomials w_0..w_n with w_0 = 1, w_n(0) = 0, deg w_n = n."""

    def __post_init__(self):
        super().__post_init__()
        if not self.polys or self.polys[0] != Poly([1]):
            raise ValueError("w_0 must be the constant polynomial 1")
        for n, w in enumerate(self.polys[1:], start=1):
            if w.degree != n:
                raise ValueError(f"w_{n} must have degree {n}")
            if w.coeffs[0] != 0:
                raise ValueError(f"w_{n}(0) must vanish")


def basic_sequence_generic(op: DeltaOperator, nmax: int) -> BinomialSequence:
    """Solve Q w_n = n w_{n-1} with w_n(0) = 0 degree by degree.

    Q drops degree by exactly one, so in the coefficients of w_n the
    system is triangular with pivots m*g_1. Works for any delta operator;
    op.g must carry coefficients up to order nmax.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if op.g.order < nmax:
        raise ValueError("operator series truncated below nmax")
    q_mono = [apply_delta(op, Poly.monomial(m)).coeffs for m in range(1, nmax + 1)]
    # row m: the nonzero (j, [t^j] Q t^m) below the pivot m*g_1, which step m spends
    rows = [[]] + [[(j, c) for j, c in enumerate(q[:m - 1]) if c] for m, q in enumerate(q_mono, 1)]
    pivots = [m * op.g[1] for m in range(nmax + 1)]
    polys = [Poly([1])]
    for n in range(1, nmax + 1):
        residual = [n * c for c in polys[n - 1].coeffs]
        coeffs = [Fraction(0)] * (n + 1)
        for m in range(n, 0, -1):
            um = residual[m - 1] / pivots[m]
            coeffs[m] = um
            if um:
                for j, c in rows[m]:
                    residual[j] -= um * c
        polys.append(Poly(coeffs))
    return BinomialSequence(tuple(polys))


def basic_sequence_closed(abp: AbTriple, nmax: int) -> BinomialSequence:
    """Closed-form basic polynomials of a*D - b*D**(p+1) (see module
    docstring); w_1(t) = t/a, and b = 0 collapses to (t/a)^n. From
    c_{n,0} = a^{-n}, each coefficient is the one before times the term ratio
    c_{n,j+1}/c_{n,j} = (n+j) (n-jp-1)!/(n-jp-p-1)! b / ((j+1) a), a ratio
    of small integers, so no coefficient costs a gcd of two big integers."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    bn_ad = abp.b.numerator * abp.a.denominator
    bd_an = abp.b.denominator * abp.a.numerator
    p = abp.p
    polys = [Poly([1])]
    lead = Fraction(1)
    for n in range(1, nmax + 1):
        lead /= abp.a
        coeffs = [Fraction(0)] * (n + 1)
        c = coeffs[n] = lead
        for j in range((n - 1) // p):
            c *= Fraction((n + j) * math.perm(n - j * p - 1, p) * bn_ad, (j + 1) * bd_an)
            coeffs[n - (j + 1) * p] = c
        polys.append(Poly(coeffs))
    return BinomialSequence(tuple(polys))


def f_series(abp: AbTriple, order: int) -> FormalPowerSeries:
    """The compositional inverse of a x - b x^{p+1} through Fuss numbers,
    independent of fps_reverse: only powers x^{jp+1} appear."""
    if order < 1:
        raise ValueError("order must be >= 1")
    a, b, p = abp.a, abp.b, abp.p
    coeffs = [Fraction(0)] * (order + 1)
    j = 0
    while j * p + 1 <= order:
        coeffs[j * p + 1] = fuss_number(p + 1, j) * b**j / a**((p + 1) * j + 1)
        j += 1
    return FormalPowerSeries(coeffs, order)


def binomial_identity_check(seq: BinomialSequence, n: int) -> bool:
    """w_n(s+t) = sum_k C(n,k) w_k(s) w_{n-k}(t) on the grid
    s, t in {0, ..., n}.

    Both sides are polynomials of degree <= n in each variable, so
    agreement on the (n+1) x (n+1) grid proves the identity. Each w_k is
    scaled by the lcm d_k of its denominators, so the compare is in integers.
    """
    if not 0 <= n < len(seq):
        raise ValueError("n out of range for this sequence")
    dens = [math.lcm(*(c.denominator for c in seq[k].coeffs)) for k in range(n + 1)]
    vals = []  # d_k w_k(x) for x = 0..2n, by Horner's rule at all x at once
    for k in range(n + 1):
        row = [0] * (2 * n + 1)
        for c in reversed(seq[k].coeffs):
            c = c.numerator * (dens[k] // c.denominator)
            row = [acc * x + c for x, acc in enumerate(row)]
        vals.append(row)
    lcm = math.lcm(*(dens[k] * dens[n - k] for k in range(n + 1)))
    weights = [dens[n] * math.comb(n, k) * (lcm // (dens[k] * dens[n - k]))
               for k in range(n + 1)]
    for s in range(n + 1):
        for t in range(n + 1):
            rhs = sum(weights[k] * vals[k][s] * vals[n - k][t] for k in range(n + 1))
            if vals[n][s + t] * lcm != rhs:
                return False
    return True
