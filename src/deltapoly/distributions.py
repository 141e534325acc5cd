"""The inverse-Gaussian distribution family and its verification checks.

Densities on (0, inf):

    InverseGaussian(t):  t exp(-(u-t)^2 / (2u)) / sqrt(2 pi u^3)
    GammaHalf(t):        exp(-u / (2t)) / sqrt(2 pi t u)     (shape 1/2, scale 2t)
    BesselMeasure(t):    exp(-(u-1)^2 / (2tu)) / sqrt(2 pi t u)
    Dilated(base, c):    the law of c*X for X distributed as base

Each law's `log_density` method is its one definition; `density` and the
moment integrand exp(n log u + log density) both exponentiate it. Its
`half_line` method integrates over (0, inf) on the law's map, u = v**2 for
GammaHalf. `LAWS` maps the CLI's law names to the classes.

InverseGaussian(t) has characteristic function exp(t - t sqrt(1 - 2ix))
and forms a convolution semigroup in t; its n-th moment is w_n(t), the
degree-n basic polynomial of D - D**2/2. BesselMeasure(t) has n-th
moment y_n(t), the Bessel polynomial, and factors as the convolution of
GammaHalf(t) with Dilated(InverseGaussian(1/t), t), which exhibits its
infinite divisibility. The exponent 1 - sqrt(1-2ix) itself has the
Kolmogorov representation

    1 - sqrt(1-2ix) = ix + integral_0^inf (e^{iux} - 1 - iux)
                              e^{-u/2} / sqrt(2 pi u^3) du.

All numerical verification runs through the double-exponential rules in
`quadrature`; every check returns Report rows carrying both side values,
absolute and relative deviation, and the quadrature error estimate.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadResult,
    integrate_half_line,
    integrate_interval,
)

_LOG_2PI = math.log(2.0 * math.pi)
# Above nu**2 for every Box-Muller normal nu from random(): -2 log(2**-53) = 73.47
_MAX_Y = 74.0


class DistSpec:
    """A law on (0, inf) with `log_density(u)` for u > 0 and `char_fun(x)`,
    E[exp(ixU)] in closed form on the principal square root."""

    def half_line(self, f: Callable[[float], float], cfg: QuadratureConfig) -> QuadResult:
        """Integral of f over (0, inf) on this law's map."""
        return integrate_half_line(f, cfg)


@dataclass(frozen=True)
class _Law(DistSpec):
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")


class InverseGaussian(_Law):
    def log_density(self, u: float) -> float:
        d = u - self.t
        return math.log(self.t) - d * d / (2.0 * u) - 1.5 * math.log(u) - 0.5 * _LOG_2PI

    def char_fun(self, x: float) -> complex:
        return cmath.exp(self.t - self.t * cmath.sqrt(1.0 - 2.0j * x))


class GammaHalf(_Law):
    def log_density(self, u: float) -> float:
        return -u / (2.0 * self.t) - 0.5 * (_LOG_2PI + math.log(self.t) + math.log(u))

    def char_fun(self, x: float) -> complex:
        return 1.0 / cmath.sqrt(1.0 - 2.0j * self.t * x)

    def half_line(self, f: Callable[[float], float], cfg: QuadratureConfig) -> QuadResult:
        # u = v**2 absorbs the u**(-1/2) factor the exp-sinh map damps only slowly
        return integrate_half_line(lambda v: 2.0 * v * f(v * v), cfg)


class BesselMeasure(_Law):
    def log_density(self, u: float) -> float:
        d = u - 1.0
        return -d * d / (2.0 * self.t * u) - 0.5 * (_LOG_2PI + math.log(self.t) + math.log(u))

    def char_fun(self, x: float) -> complex:
        t = self.t
        return GammaHalf(t).char_fun(x) * Dilated(InverseGaussian(1.0 / t), t).char_fun(x)


@dataclass(frozen=True)
class Dilated(DistSpec):
    base: DistSpec
    factor: float

    def __post_init__(self):
        if not self.factor > 0:
            raise ValueError("factor must be positive")

    def log_density(self, u: float) -> float:
        # through the module function, whose guard catches u / factor underflowing to 0
        return log_density(self.base, u / self.factor) - math.log(self.factor)

    def char_fun(self, x: float) -> complex:
        return self.base.char_fun(self.factor * x)

    def half_line(self, f: Callable[[float], float], cfg: QuadratureConfig) -> QuadResult:
        return self.base.half_line(f, cfg)


#: Each law by its name in the CLI and in `sequences.SPECS`.
LAWS = {"ig": InverseGaussian, "gamma": GammaHalf, "bessel": BesselMeasure}


def log_density(dist: DistSpec, u: float) -> float:
    """Log of the density at u by the law's method; -inf for u <= 0."""
    return -math.inf if u <= 0.0 else dist.log_density(u)


def density(dist: DistSpec, u: float) -> float:
    """Density at u; 0.0 for u <= 0 and wherever the log density is below
    the float range, so neither tail trips 0 * inf."""
    return math.exp(log_density(dist, u))


def moment_quadrature(dist: DistSpec, n: int,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadResult:
    """n-th moment with its quadrature error estimate, on the law's map.

    Raises OverflowError naming n and the law when a term or a level sum
    exceeds the float range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    log_density_at = dist.log_density

    def integrand(u: float) -> float:
        return math.exp(n * math.log(u) + log_density_at(u)) if u > 0.0 else 0.0

    try:
        return dist.half_line(integrand, cfg)
    except OverflowError:
        raise OverflowError(f"moment n={n} of {dist} overflows the float range") from None


@dataclass(frozen=True)
class Report:
    """One verified equality of some kind: both side values, deviations,
    and the error estimate of a quadrature behind a side (0.0 if none)."""

    kind: str
    label: str
    value_lhs: "complex | float"
    value_rhs: "complex | float"
    abs_dev: float
    rel_dev: float
    quad_error: float


def make_report(kind: str, label: str, lhs, rhs, quad_error: float = 0.0) -> Report:
    dev = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    return Report(kind, label, lhs, rhs, dev, dev / scale if scale else 0.0, quad_error)


def worst_abs_dev(reports: Sequence[Report]) -> dict[str, float]:
    """The largest abs_dev of each kind of report, keyed by kind."""
    worst: dict[str, float] = {}
    for r in reports:
        worst[r.kind] = max(worst.get(r.kind, r.abs_dev), r.abs_dev)
    return worst


def _convolution_reports(prefix: str, left: DistSpec, right: DistSpec, target: DistSpec,
                         points: Sequence[float], cfg: QuadratureConfig) -> list[Report]:
    """(left * right)(u) = target(u) at each point, the left side by
    numerical convolution over (0, u). Points u <= 0 compare the trivial
    0 = 0."""
    out = []
    for u in points:
        label = f"{prefix}u={u:g}"
        if u <= 0.0:
            out.append(make_report("convolution", label, 0.0, 0.0))
            continue
        conv = integrate_interval(
            lambda v, u=u: density(left, v) * density(right, u - v), 0.0, u, cfg)
        out.append(make_report("convolution", label, conv.value, density(target, u),
                               conv.error))
    return out


def semigroup_check(s: float, t: float, points: Sequence[float],
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[Report]:
    """Convolution semigroup: (rho_s * rho_t)(u) = rho_{s+t}(u)."""
    if not (s > 0 and t > 0):
        raise ValueError("s and t must be positive")
    return _convolution_reports("", InverseGaussian(s), InverseGaussian(t),
                                InverseGaussian(s + t), points, cfg)


def _cis_ratio(w: float) -> complex:
    """(exp(iw) - 1 - iw) / w**2, stable near w = 0.

    The direct expression loses everything to cancellation for small w;
    the series sum_{k>=2} i^k w^{k-2} / k! starts at -1/2 and converges
    in a few terms for |w| < 1/2.
    """
    if abs(w) >= 0.5:
        return (cmath.exp(1j * w) - 1.0 - 1j * w) / (w * w)
    total = 0j
    term = complex(-0.5)
    k = 2
    while abs(term) > 1e-20:
        total += term
        k += 1
        term *= 1j * w / k
    return total


def kolmogorov_check(x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[Report]:
    """1 - sqrt(1-2ix) = ix + integral (e^{iux} - 1 - iux) e^{-u/2}/sqrt(2 pi u^3) du,
    real and imaginary parts integrated separately, plus the normalization
    integral sqrt(u) e^{-u/2} / sqrt(2 pi) du = 1.

    The integrand is rearranged as x^2 * cis_ratio(ux) * sqrt(u) e^{-u/2},
    which stays finite at both ends of the half line.
    """
    lhs = 1.0 - cmath.sqrt(1.0 - 2.0j * x)
    x2 = x * x

    def part(u: float, pick_real: bool) -> float:
        z = _cis_ratio(u * x)
        w = x2 * math.exp(0.5 * math.log(u) - 0.5 * u - 0.5 * _LOG_2PI)
        return (z.real if pick_real else z.imag) * w

    if x2 == 0.0:  # the integrand is identically 0, which quadrature refuses
        re = im = QuadResult(0.0, 0.0)
    else:
        re = integrate_half_line(lambda u: part(u, True), cfg)
        im = integrate_half_line(lambda u: part(u, False), cfg)
    rhs = complex(re.value, x + im.value)
    reports = [make_report("identity", f"identity x={x:g}", lhs, rhs,
                           max(re.error, im.error))]

    norm = integrate_half_line(
        lambda u: math.exp(0.5 * math.log(u) - 0.5 * u - 0.5 * _LOG_2PI), cfg)
    reports.append(make_report("normalization", "normalization", 1.0, norm.value, norm.error))
    return reports


def convolution_factorization_check(t: float, x_points: Sequence[float],
                                    u_points: Sequence[float] = (0.5, 1.0, 2.0),
                                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[Report]:
    """BesselMeasure(t) = GammaHalf(t) convolved with Dilated(InverseGaussian(1/t), t).

    At each x the closed characteristic functions are compared:
    exp((1 - sqrt(1-2itx))/t) / sqrt(1-2itx) against the factor product.
    At each positive u the densities are compared, left side by numerical
    convolution.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    gamma_part = GammaHalf(t)
    dilated_part = Dilated(InverseGaussian(1.0 / t), t)
    out = []
    for x in x_points:
        root = cmath.sqrt(1.0 - 2.0j * t * x)
        psi = cmath.exp((1.0 - root) / t) / root
        product = gamma_part.char_fun(x) * dilated_part.char_fun(x)
        out.append(make_report("char", f"char x={x:g}", psi, product))
    return out + _convolution_reports("density ", gamma_part, dilated_part,
                                      BesselMeasure(t), u_points, cfg)


def bessel_k_half(m: int, z: float) -> float:
    """Modified Bessel function K of half-integer order m + 1/2 at z > 0.

    Seeded by K_{1/2}(z) = sqrt(pi/(2z)) e^{-z} and lifted with the
    upward recurrence K_{v+1} = K_{v-1} + (2v/z) K_v, which is stable for
    K (it is the dominant solution in that direction). Negative orders
    come free from K_{-v} = K_v. A seed below the normal range is lifted as
    e^z K, kept finite by powers of two, with e^{-z} applied in log space.
    Raises OverflowError or ArithmeticError outside the normal float range.
    """
    if not z > 0:
        raise ValueError("z must be positive")
    order = -m - 1 if m < 0 else m  # K_{m+1/2} with m < 0 equals K_{(-m-1)+1/2}
    seed = math.sqrt(math.pi / (2.0 * z))
    scaled = seed * math.exp(-z) < sys.float_info.min
    prev = cur = seed if scaled else seed * math.exp(-z)  # K_{-1/2}, K_{1/2}
    shift = 0  # on the scaled route, K = cur 2^shift e^{-z}
    for i in range(1, order + 1):
        prev, cur = cur, prev + ((2 * i - 1) / z) * cur
        if scaled and cur > 2.0**1000:
            prev, cur, shift = prev * 2.0**-1000, cur * 2.0**-1000, shift + 1000
    if scaled:
        log_k = math.log(cur) + shift * math.log(2.0) - z
        if log_k < math.log(sys.float_info.min):
            raise ArithmeticError(f"K_(m+1/2)(z) is below the normal range at m={m}, z={z:g}")
        cur = math.exp(log_k) if log_k < math.log(sys.float_info.max) else math.inf
    if math.isinf(cur):
        raise OverflowError(f"K_(m+1/2)(z) exceeds the float range at m={m}, z={z:g}")
    return cur


def bessel_k_quadrature(m: int, z: float) -> QuadResult:
    """K_{m+1/2}(z) for m >= 0 from the integral representation
    K_p(z) = (1/2) (z/2)^p integral_0^inf exp(-v - z^2/(4v)) v^{-p-1} dv
    (DLMF 10.32.10), as an oracle independent of the recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0 here; use symmetry first")
    if not z > 0:
        raise ValueError("z must be positive")
    p = m + 0.5
    c = 0.25 * z * z

    def integrand(v: float) -> float:
        return math.exp(-v - c / v - (p + 1.0) * math.log(v))

    r = integrate_half_line(integrand)
    scale = 0.5 * (0.5 * z) ** p
    return QuadResult(scale * r.value, scale * r.error)


def ig_sample(t: float, seed: int, count: int) -> list[float]:
    """Inverse-Gaussian draws (mean t, shape t^2), deterministic per seed.

    Transform-with-multiple-roots method of Michael, Schucany and Haas,
    "Generating random variates using transformations with multiple
    roots", The American Statistician 30 (1976) 88-90: solve the inverse
    of the chi-square transform y = t(u-t)^2/(t^2 u) and pick the root
    with the right probability. The larger root is a sum of positive terms;
    the smaller is mu^2 / larger, as the two multiply to mu^2 (mu = t).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    mu = t
    lam = t * t
    if lam < sys.float_info.min or not math.isfinite(4.0 * mu * lam * _MAX_Y):
        raise ValueError(f"t={t!r} is outside the sampler's range, about 1.5e-154 to 8.4e101")
    # Random.gauss inlined: one Box-Muller pair per turn, cos then sin, each normal
    # followed by its acceptance uniform: the stream of gauss(0.0, 1.0), random()
    random_ = random.Random(seed).random
    sqrt, log, cos, sin, tau = math.sqrt, math.log, math.cos, math.sin, math.tau
    mm, two_lam, c, four_ml = mu * mu, 2.0 * lam, mu / (2.0 * lam), 4.0 * mu * lam
    out = []
    for _ in range((count + 1) // 2):
        x2pi = random_() * tau
        g2rad = sqrt(-2.0 * log(1.0 - random_()))
        nu = cos(x2pi) * g2rad
        y = nu * nu
        mmy = mm * y
        big = mu + mmy / two_lam + c * sqrt(four_ml * y + mmy * y)
        x = mm / big
        out.append(x if random_() * (mu + x) <= mu else big)
        nu = sin(x2pi) * g2rad
        y = nu * nu
        mmy = mm * y
        big = mu + mmy / two_lam + c * sqrt(four_ml * y + mmy * y)
        x = mm / big
        out.append(x if random_() * (mu + x) <= mu else big)
    del out[count:]  # an odd count drops the last draw
    return out
