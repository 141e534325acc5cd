import math
import random
from fractions import Fraction

import pytest

from deltapoly.bessel import CARLITZ
from deltapoly.delta import (
    AbTriple,
    BinomialSequence,
    DeltaOperator,
    apply_delta,
    basic_sequence_closed,
    basic_sequence_generic,
    binomial_identity_check,
    f_series,
)
from deltapoly.series import (
    FormalPowerSeries,
    Poly,
    fps_exp,
    poly_eval,
)
from deltapoly.verify import random_triples
from reference import closed_w, forward_difference, fps_compose, poly_add, poly_diff, poly_mul

F = Fraction


def g_series(abp, order):
    coeffs = [F(0)] * (order + 1)
    coeffs[1] = abp.a
    coeffs[abp.p + 1] = -abp.b
    return FormalPowerSeries(coeffs, order)


def test_ab_triple_validation():
    with pytest.raises(ValueError):
        AbTriple(0, 1, 1)
    with pytest.raises(ValueError):
        AbTriple(1, 1, 0)
    t = AbTriple(2, "1/3", 2)
    assert t.b == F(1, 3)


def test_delta_operator_validation():
    with pytest.raises(ValueError):
        DeltaOperator(FormalPowerSeries([1, 1], 3))   # g(0) != 0
    with pytest.raises(ValueError):
        DeltaOperator(FormalPowerSeries([0, 0, 1], 3))  # g'(0) = 0


def test_apply_delta_kills_constants():
    op = DeltaOperator.from_ab(AbTriple(3, -2, 2), 5)
    assert apply_delta(op, Poly([7])) == Poly()
    assert apply_delta(op, Poly()) == Poly()


def test_apply_delta_carlitz_on_square():
    op = DeltaOperator.from_ab(CARLITZ, 4)
    # (D - D^2/2) t^2 = 2t - 1
    assert apply_delta(op, Poly([0, 0, 1])) == Poly([-1, 2])


def defining_sum(op, p):
    """sum_k g_k D^k p, one derivative per power of D."""
    out, dk = Poly(), p
    for k in range(1, op.g.order + 1):
        dk = poly_diff(dk)
        out = poly_add(out, op.g[k] * dk)
    return out


def test_apply_delta_matches_defining_sum():
    rng = random.Random(808)
    polys = [Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])
             for deg in (0, 1, 3, 7, 12)]
    dense = DeltaOperator(FormalPowerSeries(
        [0] + [F(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(12)], 12))
    ops = [DeltaOperator.from_ab(abp, 12) for abp in random_triples(6, seed=505)]
    ops += [forward_difference(12), dense,
            DeltaOperator.from_ab(CARLITZ, 3)]   # order 3 < deg p for most p
    for op in ops:
        for p in polys:
            assert apply_delta(op, p) == defining_sum(op, p)


def test_closed_form_small_cases():
    ws = basic_sequence_closed(CARLITZ, 4)
    assert ws[1] == Poly([0, 1])
    assert ws[2] == Poly([0, 1, 1])
    assert ws[3] == Poly([0, 3, 3, 1])
    assert [poly_eval(w, 1) for w in ws] == [1, 1, 2, 7, 37]


def test_closed_form_matches_factorial_formula():
    triples = random_triples(6, seed=1900) + [
        AbTriple(F(2, 3), F(-3, 5), 4),
        AbTriple(F(-7, 2), 0, 1),                # b = 0
        AbTriple(F(-6, 35), F(14, 15), 1),       # a and b share factors
        AbTriple(F(-6, 35), F(14, 15), 2),
        AbTriple(F(10, 21), F(-15, 14), 3),
    ]
    for abp in triples:
        ws = basic_sequence_closed(abp, 60)
        for n in range(61):
            assert ws[n] == closed_w(abp, n), (abp, n)


def test_closed_form_w1_and_b_zero():
    for abp in random_triples(8, seed=101):
        ws = basic_sequence_closed(abp, 3)
        assert ws[1] == Poly([0, 1 / abp.a])
    abp = AbTriple(F(3, 2), 0, 2)
    ws = basic_sequence_closed(abp, 5)
    for n in range(6):
        assert ws[n] == Poly.monomial(n) * (1 / abp.a) ** n


def test_generic_solver_derivative():
    ws = basic_sequence_generic(DeltaOperator(FormalPowerSeries.identity(6)), 6)
    for n in range(7):
        assert ws[n] == Poly.monomial(n)


def test_generic_matches_closed_small():
    op = DeltaOperator.from_ab(CARLITZ, 3)
    assert basic_sequence_generic(op, 3).polys == basic_sequence_closed(CARLITZ, 3).polys


def test_generic_forward_difference_falling_factorials():
    op = forward_difference(8)
    ws = basic_sequence_generic(op, 8)
    expected = Poly([1])
    for n in range(1, 9):
        expected = poly_mul(expected, Poly([-(n - 1), 1])) if n > 1 else Poly([0, 1])
        assert ws[n] == expected
    # and the defining relation, through apply_delta itself
    for n in range(1, 9):
        assert apply_delta(op, ws[n]) == n * ws[n - 1]


def test_generic_solve_on_dense_g():
    rng = random.Random(1901)
    g = [0, F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))]
    g += [F(rng.randint(-5, 5) or 1, rng.randint(1, 6)) for _ in range(19)]
    op = DeltaOperator(FormalPowerSeries(g, 20))
    ws = basic_sequence_generic(op, 20)   # BinomialSequence checks w_n(0) = 0
    for n in range(1, 21):
        assert apply_delta(op, ws[n]) == n * ws[n - 1]


def test_generic_requires_enough_order():
    op = DeltaOperator.from_ab(CARLITZ, 4)
    with pytest.raises(ValueError):
        basic_sequence_generic(op, 9)


def test_binomial_sequence_validation():
    with pytest.raises(ValueError):
        BinomialSequence((Poly([2]),))
    with pytest.raises(ValueError):
        BinomialSequence((Poly([1]), Poly([1, 1])))   # w_1(0) != 0
    with pytest.raises(ValueError):
        BinomialSequence((Poly([1]), Poly([0, 1]), Poly([0, 1])))  # degree


def test_f_series_b_zero_and_carlitz():
    assert f_series(AbTriple(2, 0, 3), 6) == FormalPowerSeries([0, F(1, 2)], 6)
    f = f_series(CARLITZ, 8)
    assert f.coeffs[:5] == (0, 1, F(1, 2), F(1, 2), F(5, 8))


def test_f_series_inverts_g():
    for abp in random_triples(6, seed=202):
        order = 14
        f = f_series(abp, order)
        g = g_series(abp, order)
        x = FormalPowerSeries.identity(order)
        assert fps_compose(g, f) == x
        assert fps_compose(f, g) == x


def test_egf_recovers_w():
    order = 12
    for t0 in (F(1), F(2, 3), F(-3)):
        for abp in (CARLITZ, AbTriple(2, -3, 2)):
            ws = basic_sequence_closed(abp, order)
            e = fps_exp(f_series(abp, order) * t0)
            for n in range(order + 1):
                assert math.factorial(n) * e[n] == poly_eval(ws[n], t0)


def test_linear_coefficient_is_f_coefficient():
    # a_n = w_n'(0): the t-coefficient of w_n is n! [x^n] f
    for abp in random_triples(6, seed=303):
        ws = basic_sequence_closed(abp, 10)
        f = f_series(abp, 10)
        for n in range(1, 11):
            assert ws[n].coeffs[1] == math.factorial(n) * f[n]


def test_binomial_identity_trivial_and_deep():
    seq = basic_sequence_closed(AbTriple(2, -3, 2), 12)
    for n in range(13):
        assert binomial_identity_check(seq, n)
    with pytest.raises(ValueError):
        binomial_identity_check(seq, 13)


def test_binomial_identity_detects_corruption():
    ws = basic_sequence_closed(CARLITZ, 4)
    bad = list(ws.polys)
    bad[2] = Poly([0, 1, 2])   # right shape, wrong leading coefficient
    broken = BinomialSequence(tuple(bad))
    assert not binomial_identity_check(broken, 2)


def test_binomial_identity_catches_one_perturbed_coefficient():
    abp = random_triples(3, seed=707)[2]
    ws = basic_sequence_closed(abp, 12)
    dens = {math.lcm(*(c.denominator for c in w.coeffs)) for w in ws}
    assert len(dens) > 1   # the integer compare rescales each row differently
    bad = list(ws.polys)
    coeffs = list(bad[7].coeffs)
    coeffs[3] += F(1, 7)
    bad[7] = Poly(coeffs)
    broken = BinomialSequence(tuple(bad))
    for n in range(13):
        assert binomial_identity_check(broken, n) == (n < 7)


def test_delta_action_random_triples():
    for abp in random_triples(6, seed=404):
        ws = basic_sequence_closed(abp, 10)
        op = DeltaOperator.from_ab(abp, order=10)
        for n in range(1, 11):
            assert apply_delta(op, ws[n]) == n * ws[n - 1]


def test_random_triples_bounds_and_determinism():
    ts = random_triples(30, seed=7)
    assert ts == random_triples(30, seed=7)
    for t in ts:
        assert t.a != 0
        assert abs(t.a.numerator) <= 5 and t.a.denominator <= 5
        assert abs(t.b.numerator) <= 5 and t.b.denominator <= 5
        assert 1 <= t.p <= 3
