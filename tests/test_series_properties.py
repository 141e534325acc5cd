"""Property tests of the exact kernels; skipped without hypothesis."""

import pytest

from deltapoly.delta import (
    AbTriple,
    DeltaOperator,
    apply_delta,
    basic_sequence_closed,
    basic_sequence_generic,
    f_series,
)
from deltapoly.series import (
    FormalPowerSeries,
    fps_exp,
    fps_recip,
    fps_reverse,
    fps_sqrt,
)
from reference import fps_compose

hypothesis = pytest.importorskip("hypothesis")
given, st = hypothesis.given, hypothesis.strategies

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
nonzero = rationals.filter(bool)
PROPERTY = hypothesis.settings(max_examples=60, deadline=None)


@st.composite
def series(draw, first, second=rationals, min_order=0):
    """A series of order min_order..12 with the given first two coefficients."""
    order = draw(st.integers(min_order, 12))
    rest = draw(st.lists(rationals, min_size=order, max_size=order))
    if order >= 1:
        rest[0] = draw(second)
    return FormalPowerSeries([draw(first)] + rest, order)


def derivative(f):
    return FormalPowerSeries([k * f[k] for k in range(1, f.order + 1)], f.order - 1)


@PROPERTY
@given(series(nonzero))
def test_recip_times_f_is_one(f):
    assert f * fps_recip(f) == FormalPowerSeries.constant(1, f.order)


@PROPERTY
@given(series(st.just(1)))
def test_sqrt_squared_is_f(f):
    s = fps_sqrt(f)
    assert s[0] == 1
    assert s * s == f


@PROPERTY
@given(series(st.just(0), min_order=1))
def test_exp_derivative_is_f_prime_times_exp(f):
    e = fps_exp(f)
    assert e[0] == 1
    assert derivative(e) == derivative(f) * e.truncate(f.order - 1)


@PROPERTY
@given(series(st.just(0), nonzero, min_order=1))
def test_g_of_reverse_g_is_x(g):
    assert fps_compose(g, fps_reverse(g)) == FormalPowerSeries.identity(g.order)


@PROPERTY
@given(nonzero, rationals, st.integers(1, 3), st.integers(1, 30))
def test_reverse_of_ab_series_is_the_fuss_series(a, b, p, order):
    abp = AbTriple(a, b, p)
    g = DeltaOperator.from_ab(abp, order).g.truncate(order)
    assert fps_reverse(g) == f_series(abp, order)


triples = st.builds(AbTriple, nonzero, rationals, st.integers(1, 4))


@PROPERTY
@given(triples, st.integers(1, 12))
def test_q_lowers_w_n_to_n_w_n_minus_1(abp, nmax):
    ws = basic_sequence_closed(abp, nmax)
    op = DeltaOperator.from_ab(abp, nmax)
    for n in range(1, nmax + 1):
        assert apply_delta(op, ws[n]) == n * ws[n - 1]


@PROPERTY
@given(triples, st.integers(0, 12))
def test_closed_equals_generic(abp, nmax):
    op = DeltaOperator.from_ab(abp, nmax)
    assert basic_sequence_generic(op, nmax).polys == basic_sequence_closed(abp, nmax).polys
