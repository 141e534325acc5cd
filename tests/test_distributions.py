import ast
import cmath
import hashlib
import math
import random
import re
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import deltapoly.distributions
from deltapoly.bessel import CARLITZ, bessel_poly
from deltapoly.delta import basic_sequence_closed
from deltapoly.distributions import (
    BesselMeasure,
    Dilated,
    DistSpec,
    GammaHalf,
    InverseGaussian,
    bessel_k_half,
    bessel_k_quadrature,
    convolution_factorization_check,
    density,
    ig_sample,
    kolmogorov_check,
    make_report,
    moment_quadrature,
    semigroup_check,
    worst_abs_dev,
)
from deltapoly.quadrature import QuadratureError
from deltapoly.series import poly_eval
from deltapoly.verify import TOL_MOMENT_REL
from reference import char_fun_quadrature

ALL_KINDS = [
    InverseGaussian(1.0),
    GammaHalf(1.0),
    BesselMeasure(2.0),
    Dilated(InverseGaussian(0.5), 2.0),
]


def test_spec_validation():
    for cls in (InverseGaussian, GammaHalf, BesselMeasure):
        with pytest.raises(ValueError):
            cls(0.0)
        with pytest.raises(ValueError):
            cls(-1.0)
    with pytest.raises(ValueError):
        Dilated(InverseGaussian(1.0), 0.0)


@pytest.mark.parametrize("dist", ALL_KINDS)
def test_density_vanishes_off_support(dist):
    assert density(dist, -1.0) == 0.0
    assert density(dist, 0.0) == 0.0


def test_density_known_point():
    # rho_1(1) = 1/sqrt(2 pi)
    assert density(InverseGaussian(1.0), 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    # gamma_1(1) = e^{-1/2}/sqrt(2 pi)
    assert density(GammaHalf(1.0), 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_density_extreme_arguments_are_clean():
    for dist in ALL_KINDS:
        for u in (1e-300, 1e300, 5e-324):
            v = density(dist, u)
            assert math.isfinite(v) and v >= 0.0


def test_dilated_density_is_change_of_variables():
    base = InverseGaussian(0.5)
    d = Dilated(base, 2.0)
    for u in (0.3, 1.0, 4.7):
        assert density(d, u) == pytest.approx(density(base, u / 2.0) / 2.0, rel=1e-15)


@pytest.mark.parametrize("dist", ALL_KINDS)
def test_normalization(dist):
    assert moment_quadrature(dist, 0).value == pytest.approx(1.0, rel=1e-10)


def test_moments_against_polynomials():
    ws = basic_sequence_closed(CARLITZ, 6)
    ys = bessel_poly(6)
    for n in range(7):
        w = moment_quadrature(InverseGaussian(1.0), n).value
        assert w == pytest.approx(float(poly_eval(ws[n], 1)), rel=1e-10)
        y = moment_quadrature(BesselMeasure(2.0), n).value
        assert y == pytest.approx(float(poly_eval(ys[n], 2)), rel=1e-10)


def test_gamma_half_moments_closed_form():
    # shape 1/2, scale 2t: E U^n = t^n (2n-1)!!
    for t in (0.5, 1.0, 3.0):
        for n in range(5):
            dfact = math.prod(range(2 * n - 1, 0, -2)) if n else 1
            m = moment_quadrature(GammaHalf(t), n).value
            assert m == pytest.approx(t**n * dfact, rel=1e-10)


def test_dilated_moments_scale():
    base = InverseGaussian(0.5)
    for n in range(5):
        assert moment_quadrature(Dilated(base, 2.0), n).value == pytest.approx(
            2.0**n * moment_quadrature(base, n).value, rel=1e-9)
    # a dilated GammaHalf keeps its base's u = v^2 map: E (2U)^n = 2^n 1.5^n (2n-1)!!
    for n in range(9):
        dfact = math.prod(range(2 * n - 1, 0, -2))
        assert moment_quadrature(Dilated(GammaHalf(1.5), 2.0), n).value == pytest.approx(
            2.0**n * 1.5**n * dfact, rel=1e-9)


def test_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        moment_quadrature(InverseGaussian(1.0), -1)


@pytest.mark.parametrize("dist", ALL_KINDS)
def test_char_fun_at_zero(dist):
    assert dist.char_fun(0.0) == 1.0


@pytest.mark.parametrize("dist", ALL_KINDS)
def test_char_fun_against_quadrature(dist):
    for x in (-1.0, -0.25, 0.5, 1.0):
        closed = dist.char_fun(x)
        quad = char_fun_quadrature(dist, x)
        assert abs(closed - quad.value) < 1e-8


def test_char_fun_ig_closed_form():
    t, x = 1.5, 0.7
    expected = cmath.exp(t - t * cmath.sqrt(1.0 - 2.0j * x))
    assert InverseGaussian(t).char_fun(x) == expected


def test_char_fun_semigroup_property():
    # exp(s - s sqrt(..)) exp(t - t sqrt(..)) = exp((s+t) - (s+t) sqrt(..))
    for x in (-0.8, 0.3, 1.0):
        lhs = InverseGaussian(0.5).char_fun(x) * InverseGaussian(1.5).char_fun(x)
        rhs = InverseGaussian(2.0).char_fun(x)
        assert abs(lhs - rhs) < 1e-15


def test_semigroup_check_reports():
    reports = semigroup_check(0.5, 0.5, (-1.0, 1.0))
    assert reports[0].value_lhs == 0.0 and reports[0].value_rhs == 0.0
    assert reports[1].abs_dev < 1e-7
    assert reports[1].quad_error < 1e-9
    for s, t in ((1.0, 2.0), (0.25, 1.75)):
        for r in semigroup_check(s, t, (0.5, 2.0, 4.0)):
            assert r.abs_dev < 1e-7


def test_semigroup_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        semigroup_check(0.0, 1.0, (1.0,))


def test_kolmogorov_identity():
    for x in (0.0, 0.1, 0.7, -0.4):
        identity, norm = kolmogorov_check(x)
        assert identity.abs_dev < 1e-8
        assert norm.abs_dev < 1e-10
    # the x = 0 case is exactly 0 = 0
    identity, _ = kolmogorov_check(0.0)
    assert identity.value_lhs == 0.0 and identity.value_rhs == 0.0


def test_factorization_check():
    reports = convolution_factorization_check(2.0, (0.0, -0.3, 0.8), (1.0, 2.5))
    chars = [r for r in reports if r.kind == "char"]
    dens = [r for r in reports if r.kind == "convolution"]
    assert len(chars) == 3 and len(dens) == 2
    assert chars[0].value_lhs == 1.0 + 0.0j    # x = 0
    for r in chars:
        assert r.abs_dev < 1e-12
    for r in dens:
        assert r.abs_dev < 1e-7


def test_worst_abs_dev_by_kind():
    reports = [make_report("char", "x=1", 1.0, 1.5),
               make_report("convolution", "u=-1", 0.0, 0.0),
               make_report("char", "x=2", 2.0, 1.0)]
    assert worst_abs_dev(reports) == {"char": 1.0, "convolution": 0.0}
    assert worst_abs_dev([]) == {}


def test_factorization_char_is_bessel_char():
    # the closed product equals char_fun of the Bessel measure itself
    for t in (0.5, 1.0, 2.0):
        for x in (-1.0, 0.3, 0.9):
            root = cmath.sqrt(1.0 - 2.0j * t * x)
            psi = cmath.exp((1.0 - root) / t) / root
            assert abs(psi - BesselMeasure(t).char_fun(x)) < 1e-14


def test_bessel_k_half_base_and_symmetry():
    k_half = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert bessel_k_half(0, 1.0) == pytest.approx(k_half, rel=1e-15)
    # K_{-1/2} = K_{1/2}:
    assert bessel_k_half(-1, 1.0) == bessel_k_half(0, 1.0)
    assert bessel_k_half(-3, 2.0) == bessel_k_half(2, 2.0)
    with pytest.raises(ValueError):
        bessel_k_half(0, 0.0)


@pytest.mark.parametrize("m,z", [(300, 0.01), (200, 1.0), (-301, 0.01), (3000, 750.0)])
def test_bessel_k_half_overflow_is_loud(m, z):
    with pytest.raises(OverflowError, match=f"m={m}, z={z:g}"):
        bessel_k_half(m, z)


def log_k_half_via_bessel_poly(m, z):
    """log K_(m+1/2)(z) from the paper's link sqrt(pi/(2z)) e^(-z) y_m(1/z),
    with y_m(1/z) exact from y_n = (2n-1) x y_(n-1) + y_(n-2)."""
    x = 1 / Fraction(z)
    prev, cur = Fraction(1), 1 + x  # y_0, y_1
    for n in range(2, m + 1):
        prev, cur = cur, (2 * n - 1) * x * cur + prev
    y = prev if m == 0 else cur
    return 0.5 * math.log(math.pi / (2 * z)) - z + math.log(y.numerator) - math.log(y.denominator)


@pytest.mark.parametrize("m,z", [(1000, 750.0), (300, 760.0), (1100, 750.0), (-1001, 750.0)])
def test_bessel_k_half_where_exp_minus_z_underflows(m, z):
    # the seed e^(-z) underflows here; at (1100, 750) the lifted e^z K also
    # passes 2^1000 and is rescaled
    order = -m - 1 if m < 0 else m
    assert math.log(bessel_k_half(m, z)) == pytest.approx(
        log_k_half_via_bessel_poly(order, z), rel=0, abs=1e-11)


@pytest.mark.parametrize("m,z", [(0, 740.0), (5, 745.0), (0, 800.0), (10, 1e6)])
def test_bessel_k_half_below_the_float_range_is_loud(m, z):
    assert log_k_half_via_bessel_poly(m, z) < math.log(sys.float_info.min)
    where = re.escape(f"below the normal range at m={m}, z={z:g}")
    with pytest.raises(ArithmeticError, match=where):
        bessel_k_half(m, z)


def test_bessel_k_half_is_unchanged_where_the_seed_is_normal():
    def upward(m, z):  # the recurrence on the unscaled seed, the bit-exact reference
        k_half = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        prev, cur = k_half, k_half
        for i in range(1, (-m - 1 if m < 0 else m) + 1):
            prev, cur = cur, prev + ((2 * i - 1) / z) * cur
        return cur
    # the bessel_k_routes grid: m = 0..10 and -1..-9 at its z and 1/t values
    for m in range(-9, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 700.0):
            assert bessel_k_half(m, z) == upward(m, z)


def test_bessel_k_recurrence_vs_integral():
    for m in range(6):
        for z in (0.5, 1.0, 2.0, 5.0):
            rec = bessel_k_half(m, z)
            quad = bessel_k_quadrature(m, z)
            assert abs(rec - quad.value) / quad.value < 1e-10


def test_bessel_k52():
    # K_{5/2}(z) = sqrt(pi/(2z)) e^{-z} (1 + 3/z + 3/z^2)
    z = 2.0
    expected = math.sqrt(math.pi / (2 * z)) * math.exp(-z) * (1 + 3 / z + 3 / z**2)
    assert bessel_k_half(2, z) == pytest.approx(expected, rel=1e-14)


def test_moment_via_k_forms():
    ws = basic_sequence_closed(CARLITZ, 5)
    ys = bessel_poly(5)
    for t in (0.5, 2.0):
        for n in range(6):
            w_k = (t * math.exp(t) * 2.0**n * (0.5 * t) ** (n - 0.5)
                   * bessel_k_half(-n, t) / math.sqrt(math.pi))
            assert w_k == pytest.approx(float(poly_eval(ws[n], Fraction(t))), rel=1e-9)
            y_k = (math.exp(1.0 / t) * math.sqrt(2.0 / (math.pi * t))
                   * bessel_k_half(-n - 1, 1.0 / t))
            assert y_k == pytest.approx(float(poly_eval(ys[n], Fraction(t))), rel=1e-9)


def test_ig_sample_is_deterministic():
    a = ig_sample(1.0, 42, 1000)
    b = ig_sample(1.0, 42, 1000)
    assert a == b
    assert ig_sample(1.0, 43, 1000) != a
    assert all(v > 0.0 for v in a)


def test_ig_sample_moments():
    n = 50_000
    draws = ig_sample(1.0, 2024, n)
    mean = math.fsum(draws) / n
    m2 = math.fsum(v * v for v in draws) / n
    assert abs(mean - 1.0) <= 4.0 / math.sqrt(n)             # Var U = 1
    assert abs(m2 - 2.0) <= 4.0 * math.sqrt(33.0) / math.sqrt(n)  # Var U^2 = 33


def test_ig_sample_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ig_sample(0.0, 1, 10)
    with pytest.raises(ValueError):
        ig_sample(1.0, 1, -1)
    # t*t below the normal range, or 4 t^3 y overflowing for some y = nu^2
    for t in (1e-200, 1.4e-154, 8.5e101, 3.6e102, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"t={t!r}")):
            ig_sample(t, 1, 10)


def _ig_root_50_digits(t: float, y: float, u: float) -> Decimal:
    """The sampler's pick between the two roots of the chi-square
    transform, each root by the textbook formula at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu, y = Decimal(t), Decimal(y)
        lam = mu * mu
        small = mu + mu * mu * y / (2 * lam) \
            - (mu / (2 * lam)) * (4 * mu * lam * y + mu * mu * y * y).sqrt()
        return small if Decimal(u) * (mu + small) <= mu else mu * mu / small


@pytest.mark.parametrize("t", [1e-12, 1e-8, 1e-6, 1e-3])
def test_ig_sample_matches_50_digit_roots(t):
    # the same calls in the same order as the sampler: one normal, then one uniform
    rng = random.Random(7193)
    draws = ig_sample(t, 7193, 1000)
    for v in draws:
        nu = rng.gauss(0.0, 1.0)
        exact = _ig_root_50_digits(t, nu * nu, rng.random())
        assert abs(Decimal(v) - exact) <= Decimal("1e-13") * exact


# First 16 hex digits of the sha256 of the packed draws at seed 7193: the
# stream must not move under a rewrite of the sampler loop. n = 99,999 is odd.
STREAM_PINS = {
    (1.0, 100_000): "df5e0867b8d747dd",
    (1.0, 99_999): "fccd75deafa0ce2e",
    (0.37, 100_000): "97455e5565879510",
    (0.37, 99_999): "3f7926b7348b22a2",
    (2.5, 100_000): "af65e26c9b9d381e",
    (2.5, 99_999): "0a493aab37c91538",
}


@pytest.mark.parametrize("t, n", list(STREAM_PINS))
def test_ig_sample_stream_is_pinned(t, n):
    packed = struct.pack(f"{n}d", *ig_sample(t, 7193, n))
    assert hashlib.sha256(packed).hexdigest()[:16] == STREAM_PINS[t, n]


def test_ig_sample_shorter_counts_are_prefixes():
    full = ig_sample(1.0, 3, 6)
    assert [ig_sample(1.0, 3, n) for n in range(6)] == [full[:n] for n in range(6)]


@pytest.mark.parametrize("t", [1.5e-154, 1e-8, 8.4e101])
def test_ig_sample_draws_are_finite_and_positive(t):
    assert all(0.0 < v < math.inf for v in ig_sample(t, 7193, 100_000))


def test_moment_survey_is_right_or_raises():
    # three laws, t = 1e-6 ... 1e8 by decades, 315 cells: where the nodes
    # miss a law's mass the quadrature must raise, never return a wrong value
    ws, ys = basic_sequence_closed(CARLITZ, 30), bessel_poly(30)
    exact = {
        InverseGaussian: lambda t, n: poly_eval(ws[n], t),
        GammaHalf: lambda t, n: t**n * math.prod(range(2 * n - 1, 0, -2)),
        BesselMeasure: lambda t, n: poly_eval(ys[n], t),
    }
    right = 0
    for law, moment_of in exact.items():
        for d in range(-6, 9):
            for n in (0, 1, 2, 4, 8, 16, 30):
                try:
                    q = moment_quadrature(law(10.0**d), n)
                except (QuadratureError, OverflowError):
                    continue
                want = float(moment_of(Fraction(10.0**d), n))
                assert abs(q.value - want) <= TOL_MOMENT_REL * want, (law, d, n)
                right += 1
    assert right >= 272


def exact_moments(law, t, nmax):
    """m_0 ... m_nmax of law(t) as Fractions, by m_(n+1) = a(n) m_n + b m_(n-1)."""
    a, b, m1 = {
        InverseGaussian: (lambda n: 2 * n - 1, t * t, t),  # w_n(t)
        GammaHalf: (lambda n: (2 * n + 1) * t, 0, t),  # t^n (2n-1)!!
        BesselMeasure: (lambda n: (2 * n + 1) * t, 1, 1 + t),  # y_n(t)
    }[law]
    m = [Fraction(1), m1]
    for n in range(1, nmax):
        m.append(a(n) * m[n] + b * m[n - 1])
    return m


def test_exact_moments_are_the_polynomials():
    ws, ys = basic_sequence_closed(CARLITZ, 12), bessel_poly(12)
    for t in (Fraction(1, 2), Fraction(3)):
        assert exact_moments(InverseGaussian, t, 12) == [poly_eval(w, t) for w in ws]
        assert exact_moments(BesselMeasure, t, 12) == [poly_eval(y, t) for y in ys]


def test_moment_range_is_right_or_refused():
    # n = 80 ... 200 runs past the float range: each moment is right or raises
    # an OverflowError naming n, and per (law, t) at most one refused moment,
    # the last below the float maximum, is in range
    for law in (InverseGaussian, GammaHalf, BesselMeasure):
        for t in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)):
            exact = exact_moments(law, t, 200)
            refused_in_range = 0
            for n in range(80, 201):
                try:
                    got = moment_quadrature(law(float(t)), n).value
                except OverflowError as exc:
                    assert f"moment n={n} of" in str(exc)
                    refused_in_range += exact[n] < sys.float_info.max
                    continue
                want = float(exact[n])
                assert abs(got - want) <= TOL_MOMENT_REL * want, (law, t, n)
            assert refused_in_range <= 1, (law, t)


def test_moment_quadrature_reports_error_estimate():
    q = moment_quadrature(InverseGaussian(1.0), 2)
    assert q.error < 1e-8
    assert q.value == pytest.approx(2.0, rel=1e-10)


def test_src_has_no_match_and_no_isinstance_on_a_law():
    # each law owns its behaviour, so nothing in src/ dispatches on a law's type
    module = deltapoly.distributions
    laws = {name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, DistSpec)}
    found = []
    for path in sorted(Path(module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Match):
                found.append(f"{path.name}:{node.lineno} match")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                named = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])}
                if named & laws:
                    found.append(f"{path.name}:{node.lineno} isinstance")
    assert found == []
