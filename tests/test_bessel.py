import math
from fractions import Fraction

import pytest

from deltapoly.bessel import (
    CARLITZ,
    bessel_egf_check,
    bessel_poly,
    w_bessel_relation_check,
)
from deltapoly.delta import basic_sequence_closed
from deltapoly.series import (
    FormalPowerSeries,
    Poly,
    PolySequence,
    fps_exp,
    fps_recip,
    fps_sqrt,
    poly_eval,
)

from reference import bessel_y

F = Fraction


def fps_diff(f):
    """Formal derivative; the order drops by one."""
    return FormalPowerSeries([k * f[k] for k in range(1, f.order + 1)], f.order - 1)


def test_bessel_poly_small():
    ys = bessel_poly(3)
    assert ys[0] == Poly([1])
    assert ys[1] == Poly([1, 1])
    assert ys[2] == Poly([1, 3, 3])
    assert ys[3] == Poly([1, 6, 15, 15])


def test_bessel_poly_values_at_one():
    ys = bessel_poly(5)
    assert [poly_eval(y, 1) for y in ys] == [1, 2, 7, 37, 266, 2431]


def test_bessel_poly_leading_and_constant():
    ys = bessel_poly(9)
    for n, y in enumerate(ys):
        assert y.coeffs[0] == 1
        # leading coefficient (2n)! / (n! 2^n)
        assert y.coeffs[n] == F(math.factorial(2 * n), math.factorial(n) * 2**n)


def test_bessel_poly_matches_factorial_formula():
    ys = bessel_poly(60)
    for n in range(61):
        assert ys[n] == bessel_y(n)


def test_carlitz_closed_form_matches_explicit_sum():
    ws = basic_sequence_closed(CARLITZ, 12)
    # w_n(t) = sum_{j<n} (n+j-1)! t^{n-j} / (j! (n-j-1)! 2^j)
    for n in range(1, 13):
        explicit = [F(0)] * (n + 1)
        for j in range(n):
            explicit[n - j] = F(math.factorial(n + j - 1),
                                math.factorial(j) * math.factorial(n - j - 1) * 2**j)
        assert ws[n] == Poly(explicit)
    assert ws[2] == Poly([0, 1, 1])
    assert [poly_eval(w, 2) for w in ws][:5] == [1, 2, 6, 26, 154]


def test_w_and_y_share_one_sequence_type():
    ys = bessel_poly(3)
    ws = basic_sequence_closed(CARLITZ, 3)
    assert type(ys) is PolySequence and isinstance(ws, PolySequence)
    assert len(ys) == 4 and list(ys) == list(ys.polys) and ys[3] == ys.polys[3]


def test_relation_w_equals_reversed_bessel():
    assert w_bessel_relation_check(1)
    assert w_bessel_relation_check(25)
    # the n = 3 instance by hand: w_3(t) = t^3 y_2(1/t)
    ws = basic_sequence_closed(CARLITZ, 3)
    assert poly_eval(ws[3], 1) == poly_eval(bessel_poly(2)[2], 1)


def test_relation_inverse_direction():
    # y_n(t) = t^{n+1} w_{n+1}(1/t) at a rational point
    ws = basic_sequence_closed(CARLITZ, 7)
    ys = bessel_poly(6)
    t0 = F(2, 3)
    for n in range(7):
        assert poly_eval(ys[n], t0) == t0 ** (n + 1) * poly_eval(ws[n + 1], 1 / t0)


@pytest.mark.parametrize("t0", [1, 2, F(1, 2), F(2, 3), -1])
def test_egf(t0):
    assert bessel_egf_check(t0, 12)


def test_egf_rejects_zero():
    with pytest.raises(ValueError):
        bessel_egf_check(0, 8)


def test_egf_derivative_identity():
    # sum y_n(t0) x^n/n! = d/dx exp((1 - sqrt(1-2 t0 x))/t0)
    order = 10
    t0 = F(3, 5)
    ys = bessel_poly(order)
    lhs = FormalPowerSeries(
        [poly_eval(ys[n], t0) / math.factorial(n) for n in range(order + 1)], order)
    root = fps_sqrt(FormalPowerSeries([1, -2 * t0], order + 1))
    rhs = fps_diff(fps_exp((1 - root) * (1 / t0)))
    assert lhs.truncate(order) == rhs.truncate(order)


def test_egf_right_side_shape():
    # the EGF's own two factors: exp part has constant 1, recip(sqrt) too
    t0 = F(1, 2)
    root = fps_sqrt(FormalPowerSeries([1, -2 * t0], 8))
    assert fps_exp((1 - root) * (1 / t0))[0] == 1
    assert fps_recip(root)[0] == 1
