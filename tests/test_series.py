import random
from fractions import Fraction

import pytest

import deltapoly
from deltapoly.delta import AbTriple, DeltaOperator, f_series
from deltapoly.series import (
    FormalPowerSeries,
    Poly,
    format_rational,
    fps_exp,
    fps_recip,
    fps_reverse,
    fps_sqrt,
    poly_eval,
    poly_to_strings,
)
from deltapoly.verify import random_triples
from reference import forward_difference, fps_compose, poly_diff

F = Fraction


def poly_from_strings(coeffs):
    return Poly([F(c) for c in coeffs])


def fps_diff(f):
    """Formal derivative; the order drops by one."""
    if f.order < 1:
        raise ValueError("cannot differentiate an order-0 truncation")
    return FormalPowerSeries(
        [k * f.coeffs[k] for k in range(1, f.order + 1)], f.order - 1)


def test_all_exports_resolve():
    # a name deleted from its module but left in __all__ would fail `import *`
    assert [name for name in deltapoly.__all__ if not hasattr(deltapoly, name)] == []


def test_rational_wire_format():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-7)) == "-7"
    assert format_rational(F(22, -8)) == "-11/4"


def test_poly_normalization():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Poly([0, 0]).degree == -1
    assert not Poly()
    assert Poly.monomial(3).coeffs == (0, 0, 0, 1)


@pytest.mark.parametrize("coeffs,expected", [
    ([1], []),                     # constant -> 0
    ([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 5]),   # t^5 -> 5 t^4
    ([0, 2, 0, 1], [2, 0, 3]),     # t^3 + 2t -> 3t^2 + 2
])
def test_poly_diff(coeffs, expected):
    assert poly_diff(Poly(coeffs)) == Poly(expected)


def test_poly_eval():
    assert poly_eval(Poly([0, 1, 1]), 1) == 2          # t^2 + t at 1
    assert poly_eval(Poly([5]), F(9, 7)) == 5
    assert poly_eval(Poly([0, 3, 3, 1]), 1) == 7       # t^3 + 3t^2 + 3t at 1
    assert poly_eval(Poly(), 4) == 0


def test_poly_string_round_trip():
    p = Poly([0, F(3, 2), -1])
    assert poly_to_strings(p) == ["0", "3/2", "-1"]
    assert poly_from_strings(poly_to_strings(p)) == p


def test_fps_truncation_rules():
    f = FormalPowerSeries([1, 2, 3], 5)
    assert f.order == 5
    assert f.coeffs == (1, 2, 3, 0, 0, 0)
    g = FormalPowerSeries([1, 1], 2)
    assert (f + g).order == 2
    assert (f * g).order == 2
    assert f.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        f.truncate(9)


def test_fps_pow():
    x = FormalPowerSeries.identity(6)
    one_plus = 1 + x
    assert (one_plus ** 4).coeffs == (1, 4, 6, 4, 1, 0, 0)
    assert (x ** 0) == FormalPowerSeries.constant(1, 6)


def test_compose_identity_outer():
    inner = FormalPowerSeries([0, 2, -1, 5], 6)
    x = FormalPowerSeries.identity(6)
    assert fps_compose(x, inner) == inner


def test_compose_square():
    inner = FormalPowerSeries([0, 1, 1], 4)
    outer = FormalPowerSeries([0, 0, 1], 4)
    assert fps_compose(outer, inner).coeffs == (0, 0, 1, 2, 1)


def test_compose_rejects_constant_inner():
    with pytest.raises(ValueError):
        fps_compose(FormalPowerSeries.identity(3), FormalPowerSeries([1, 1], 3))


def test_reverse_linear():
    assert fps_reverse(FormalPowerSeries.identity(5)) == FormalPowerSeries.identity(5)
    assert fps_reverse(FormalPowerSeries([0, 2], 5)).coeffs == (0, F(1, 2), 0, 0, 0, 0)


def test_reverse_double_factorial():
    # inverse of x - x^2/2 has coefficients (2n-3)!!/n!
    g = FormalPowerSeries([0, 1, F(-1, 2)], 10)
    f = fps_reverse(g)
    dfact = 1
    fact = 1
    assert f[1] == 1
    for n in range(2, 11):
        fact *= n
        assert f[n] == F(dfact, fact)
        dfact *= 2 * n - 1


def test_reverse_round_trip():
    rng = random.Random(11)
    x = FormalPowerSeries.identity(20)
    for _ in range(5):
        coeffs = [0, F(rng.choice([1, 2, 3, -1, -2]))]
        coeffs += [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(19)]
        g = FormalPowerSeries(coeffs, 20)
        f = fps_reverse(g)
        assert fps_compose(g, f) == x
        assert fps_compose(f, g) == x


def test_reverse_rejects_bad_input():
    with pytest.raises(ValueError):
        fps_reverse(FormalPowerSeries([1, 1], 4))
    with pytest.raises(ValueError):
        fps_reverse(FormalPowerSeries([0, 0, 1], 4))


def test_exp():
    zero = FormalPowerSeries.constant(0, 6)
    assert fps_exp(zero) == FormalPowerSeries.constant(1, 6)
    e = fps_exp(FormalPowerSeries.identity(6))
    fact = 1
    for n in range(7):
        fact = fact * n if n else 1
        assert e[n] == F(1, fact)
    with pytest.raises(ValueError):
        fps_exp(FormalPowerSeries([1], 3))


def test_sqrt():
    assert fps_sqrt(FormalPowerSeries.constant(1, 4)) == FormalPowerSeries.constant(1, 4)
    s = fps_sqrt(FormalPowerSeries([1, -4], 5))
    assert s.coeffs[:4] == (1, -2, -2, -4)
    assert s * s == FormalPowerSeries([1, -4], 5)
    with pytest.raises(ValueError):
        fps_sqrt(FormalPowerSeries([4, 1], 3))


def test_recip():
    r = fps_recip(FormalPowerSeries([1, -1], 6))
    assert r.coeffs == (1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        fps_recip(FormalPowerSeries([0, 1], 3))


def test_sqrt_recip_random_round_trips():
    rng = random.Random(17)
    for _ in range(5):
        coeffs = [1] + [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(12)]
        f = FormalPowerSeries(coeffs, 12)
        s = fps_sqrt(f)
        assert s * s == f
        assert f * fps_recip(f) == FormalPowerSeries.constant(1, 12)


def test_diff():
    f = FormalPowerSeries([3, 1, 5, 7], 3)
    assert fps_diff(f).coeffs == (1, 10, 21)
    with pytest.raises(ValueError):
        fps_diff(FormalPowerSeries([1], 0))


# -- the Fraction recurrences the integer kernels replaced, as references ------

def ref_mul(f, g):
    n = min(f.order, g.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f[i] * g[j]
    return FormalPowerSeries(out, n)


def ref_recip(f):
    n = f.order
    inv0 = 1 / f[0]
    out = [inv0] + [F(0)] * n
    for m in range(1, n + 1):
        out[m] = -inv0 * sum(f[k] * out[m - k] for k in range(1, m + 1))
    return FormalPowerSeries(out, n)


def ref_exp(f):
    n = f.order
    out = [F(1)] + [F(0)] * n
    for m in range(1, n + 1):
        out[m] = sum(k * f[k] * out[m - k] for k in range(1, m + 1)) / m
    return FormalPowerSeries(out, n)


def ref_sqrt(f):
    n = f.order
    out = [F(1)] + [F(0)] * n
    for m in range(1, n + 1):
        out[m] = (f[m] - sum(out[i] * out[m - i] for i in range(1, m))) / 2
    return FormalPowerSeries(out, n)


def ref_reverse(g):
    n = g.order
    r = ref_recip(FormalPowerSeries(g.coeffs[1:], n - 1))
    out = [F(0)] * (n + 1)
    out[1] = r[0]
    power = r
    for k in range(2, n + 1):
        power = ref_mul(power, r)
        out[k] = power[k - 1] / k
    return FormalPowerSeries(out, n)


def dense(rng, first, order, den=5):
    rest = [F(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(order)]
    return FormalPowerSeries([first] + rest, order)


@pytest.mark.parametrize("order", [0, 1, 150])
def test_product_recip_exp_sqrt_match_fraction_recurrences(order):
    rng = random.Random(1300 + order)
    f, g = dense(rng, F(2, 3), order), dense(rng, F(-5, 4), order)
    assert f * g == ref_mul(f, g)
    assert g * f.truncate(order // 2) == ref_mul(g, f.truncate(order // 2))
    for f0 in (F(-3, 5), F(-1), F(4)):  # negative F_0, and an integer one
        f = dense(rng, f0, order)
        assert fps_recip(f) == ref_recip(f)
    f = dense(rng, F(0), order)
    assert fps_exp(f) == ref_exp(f)
    for den in (1, 2, 3, 5):  # lcm d = 1, 2, 6, 60 at order 150: odd and even
        f = dense(rng, F(1), order, den)
        assert fps_sqrt(f) == ref_sqrt(f)


def test_sparse_inputs_match_fraction_recurrences():
    x = FormalPowerSeries.identity(40)
    f = 1 + FormalPowerSeries([0, 0, 0, F(-7, 3)], 40)
    assert fps_recip(f) == ref_recip(f)
    assert fps_sqrt(f) == ref_sqrt(f)
    assert fps_exp(f - 1) == ref_exp(f - 1)
    assert f * x == ref_mul(f, x)


@pytest.mark.parametrize("order", [1, 2, 40])
def test_reverse_matches_fraction_recurrence(order):
    # sparse g: seeded triples with p = 3, 2, 1
    gs = [DeltaOperator.from_ab(abp, order).g.truncate(order) for abp in random_triples(3, 1308)]
    gs.append(forward_difference(order).g)  # dense g = exp(x) - 1
    gs.append(dense(random.Random(order), F(0), order) + FormalPowerSeries([0, F(-2, 7)], order))
    for g in gs:
        assert fps_reverse(g) == ref_reverse(g)


def test_sparse_reverse_at_order_150_is_the_fuss_series():
    # too slow for the Fraction reference; f_series is an independent oracle
    for abp in (AbTriple(F(2, 3), F(-3, 5), 2), AbTriple(F(-4, 5), F(5, 2), 3)):
        g = DeltaOperator.from_ab(abp, 150).g
        assert fps_reverse(g) == f_series(abp, 150)
