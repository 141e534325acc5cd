"""Exact kernels: rationals, dense polynomials, truncated power series.

Coefficients are `fractions.Fraction` at the API, so they are always in
lowest terms with positive denominator and never overflow. The series
kernels compute on integer numerators over one common denominator. All
objects here are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


def _fractions(coeffs: Iterable[RationalLike]) -> list[Fraction]:
    """As Fractions; a Fraction is kept, skipping the constructor's ABC checks."""
    return [c if type(c) is Fraction else Fraction(c) for c in coeffs]


def _strip(coeffs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    out = _fractions(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _over_lcm(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators over the lcm d of the denominators: c_k = nums[k]/d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _int_mul(xs: list[int], ys: list[int], n: int) -> list[int]:
    """Integer convolution of xs and ys truncated after index n."""
    out = [0] * (n + 1)
    for i, a in enumerate(xs[:n + 1]):
        if a:
            for j, b in enumerate(ys[:n + 1 - i], i):
                if b:
                    out[j] += a * b
    return out


class Poly:
    """Dense univariate polynomial; coeffs[k] multiplies t**k.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        self.coeffs = _strip(coeffs)

    @classmethod
    def monomial(cls, power: int) -> "Poly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls([0] * power + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other) -> "Poly":
        """Scalar multiple by an int or a Fraction."""
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Poly([s * c for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def poly_eval(p: Poly, x: RationalLike) -> Fraction:
    """Evaluate by Horner's rule; exact."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_to_strings(p: Poly) -> list[str]:
    """Coefficients low to high as "p/q" strings (degree -1 gives [])."""
    return [format_rational(c) for c in p.coeffs]


@dataclass(frozen=True)
class PolySequence:
    """Polynomials p_0..p_n, indexed and iterated in order."""

    polys: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def __iter__(self):
        return iter(self.polys)


class FormalPowerSeries:
    """Power series truncated at an explicit order.

    coeffs always has length order+1; trailing zeros are significant (they
    record that those coefficients are known to vanish). Binary operations
    truncate to the smaller operand's order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike], order: int | None = None):
        cs = _fractions(coeffs)
        if order is None:
            if not cs:
                raise ValueError("need coefficients or an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        del cs[order + 1:]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "FormalPowerSeries":
        return cls([value], order)

    @classmethod
    def identity(cls, order: int) -> "FormalPowerSeries":
        """The series x."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def truncate(self, order: int) -> "FormalPowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return FormalPowerSeries(self.coeffs, order)

    def __eq__(self, other) -> bool:
        if isinstance(other, FormalPowerSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "FormalPowerSeries":
        return FormalPowerSeries([-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "FormalPowerSeries":
        if isinstance(other, FormalPowerSeries):
            n = min(self.order, other.order)
            return FormalPowerSeries(
                [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)
        if isinstance(other, (int, Fraction)):
            out = list(self.coeffs)
            out[0] += other
            return FormalPowerSeries(out, self.order)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "FormalPowerSeries":
        if isinstance(other, (FormalPowerSeries, int, Fraction)):
            return self + (-other if isinstance(other, FormalPowerSeries) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other) -> "FormalPowerSeries":
        return (-self) + other

    def __mul__(self, other) -> "FormalPowerSeries":
        if isinstance(other, FormalPowerSeries):
            n = min(self.order, other.order)
            xs, dx = _over_lcm(self.coeffs[:n + 1])
            ys, dy = _over_lcm(other.coeffs[:n + 1])
            return FormalPowerSeries([Fraction(c, dx * dy) for c in _int_mul(xs, ys, n)], n)
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return FormalPowerSeries([s * c for c in self.coeffs], self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FormalPowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = FormalPowerSeries.constant(1, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"FormalPowerSeries({[str(c) for c in self.coeffs]})"


def fps_recip(f: FormalPowerSeries) -> FormalPowerSeries:
    """Multiplicative inverse; needs a nonzero constant term. Over integers,
    [x^m] 1/f = d S_m / F_0^(m+1), S_m = -sum_{k=1..m} F_k F_0^(k-1) S_{m-k}."""
    if f[0] == 0:
        raise ValueError("reciprocal needs a nonzero constant term")
    n = f.order
    fs, d = _over_lcm(f.coeffs)
    gs = [fs[k] * fs[0] ** (k - 1) for k in range(1, n + 1)]
    s = [1]
    for m in range(1, n + 1):
        s.append(-sum(g * s[m - k] for k, g in enumerate(gs[:m], 1) if g))
    return FormalPowerSeries([Fraction(d * c, fs[0] ** (m + 1)) for m, c in enumerate(s)], n)


def fps_exp(f: FormalPowerSeries) -> FormalPowerSeries:
    """exp(f) for f with zero constant term, via e' = f' e:
    m e_m = sum_{k=1..m} k f_k e_{m-k}. Over integers, e_m = E_m / (n! d^m),
    E_0 = n!, m E_m = sum_k k F_k d^(k-1) E_{m-k}; the division by m is exact."""
    if f[0] != 0:
        raise ValueError("exp needs a zero constant term")
    n = f.order
    fs, d = _over_lcm(f.coeffs)
    hs = [k * fs[k] * d ** (k - 1) for k in range(1, n + 1)]
    e = [math.factorial(n)]
    for m in range(1, n + 1):
        e.append(sum(h * e[m - k] for k, h in enumerate(hs[:m], 1) if h) // m)
    return FormalPowerSeries([Fraction(c, e[0] * d**m) for m, c in enumerate(e)], n)


def fps_sqrt(f: FormalPowerSeries) -> FormalPowerSeries:
    """Square root with constant term 1: s_m = (f_m - sum s_i s_{m-i})/2.
    Over integers, s_m = S_m / (4d)^m, S_m = (4^m d^(m-1) F_m - sum S_i S_{m-i})/2;
    every S_m with m >= 1 is even, so the halving is exact."""
    if f[0] != 1:
        raise ValueError("sqrt needs constant term 1")
    n = f.order
    fs, d = _over_lcm(f.coeffs)
    s = [1]
    for m in range(1, n + 1):
        cross = sum(s[i] * s[m - i] for i in range(1, m))
        s.append((4**m * d ** (m - 1) * fs[m] - cross) // 2)
    return FormalPowerSeries([Fraction(c, (4 * d) ** m) for m, c in enumerate(s)], n)


def fps_reverse(g: FormalPowerSeries) -> FormalPowerSeries:
    """Compositional inverse of g with g(0) = 0, g'(0) != 0.

    Lagrange inversion: k [x^k] f = [x^{k-1}] (x/g)^k, with the powers of
    x/g kept as integers over one denominator, reduced once per power.
    """
    if g.order < 1 or g[0] != 0:
        raise ValueError("reversion needs a zero constant term")
    if g[1] == 0:
        raise ValueError("reversion needs a nonzero linear coefficient")
    n = g.order
    rs, dr = _over_lcm(fps_recip(FormalPowerSeries(g.coeffs[1:], n - 1)).coeffs)
    out = [Fraction(0), Fraction(rs[0], dr)]
    power, den = rs, dr
    for k in range(2, n + 1):
        power, den = _int_mul(power, rs, n - 1), den * dr
        c = math.gcd(den, *power)
        power, den = [p // c for p in power], den // c
        out.append(Fraction(power[k - 1], k * den))
    return FormalPowerSeries(out, n)
