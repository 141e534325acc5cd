import math

import pytest

from deltapoly.quadrature import (
    QuadratureConfig,
    QuadratureError,
    integrate_half_line,
    integrate_interval,
)


def test_config_validation():
    for rel_tol in (1e-17, 1.0):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=rel_tol)


def test_half_line_exponential():
    r = integrate_half_line(lambda u: math.exp(-u))
    assert abs(r.value - 1.0) < 1e-12
    assert r.error < 1e-9


def test_half_line_gaussian():
    r = integrate_half_line(lambda u: math.exp(-u * u))
    assert abs(r.value - 0.5 * math.sqrt(math.pi)) < 1e-12


def test_half_line_sqrt_singularity():
    # u^(-1/2) e^(-u) integrates to Gamma(1/2); needs the u = v^2 map
    f = lambda u: math.exp(-u) / math.sqrt(u)
    r = integrate_half_line(lambda v: 2.0 * v * f(v * v))
    assert abs(r.value - math.sqrt(math.pi)) < 1e-12


def test_interval_smooth():
    r = integrate_interval(math.sin, 0.0, 2.0)
    assert abs(r.value - (1.0 - math.cos(2.0))) < 1e-12


def test_interval_endpoint_singularity():
    r = integrate_interval(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert abs(r.value - 2.0) < 1e-11


def test_interval_log_singularity():
    r = integrate_interval(lambda x: math.log(1.0 / x), 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-11


def test_complex_integrand():
    r = integrate_half_line(lambda u: complex(math.cos(u), math.sin(u)) * math.exp(-u))
    assert abs(r.value - complex(0.5, 0.5)) < 1e-11


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        integrate_interval(math.sin, 1.0, 1.0)


def test_nonconvergence_carries_estimate():
    # a jump inside the interval defeats the double-exponential rate
    with pytest.raises(QuadratureError) as info:
        integrate_interval(lambda x: 1.0 if x < 2.0 else 0.0, 0.0, 3.0)
    assert info.value.value == pytest.approx(2.0, abs=1e-3)
    assert 0.0 < info.value.error < 1e-3


def test_interval_step_left_of_midpoint_is_not_silently_zero():
    try:
        r = integrate_interval(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, 3.0)
    except QuadratureError:
        return
    assert abs(r.value - 1.0) <= 1e-6 + r.error


@pytest.mark.parametrize("integrate", [
    integrate_half_line,
    lambda f: integrate_interval(f, 0.0, 3.0),
])
def test_level_without_significant_nodes_is_refused(integrate):
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: 0.0)
    assert "only 0 significant nodes" in str(info.value)
    assert "error estimate 0.000e+00" not in str(info.value)


@pytest.mark.parametrize("integrate", [
    integrate_half_line,
    lambda f: integrate_interval(f, 0.0, 10.0),
])
def test_overflowing_level_sum_raises_at_once(integrate):
    # every term is finite, their sum is not; refinement would compare inf with inf.
    # The first level, h = 1/2, raises: the centre node and three per side
    calls = []
    with pytest.raises(OverflowError, match="level sum exceeds the float range"):
        integrate(lambda u: calls.append(u) or 1e308)
    assert len(calls) <= 7


@pytest.mark.parametrize("integrate", [
    integrate_half_line,
    lambda f: integrate_interval(f, 0.0, 3.0),
])
def test_no_node_is_evaluated_twice(integrate):
    # the levels are nested: each one evaluates only the nodes that are new at its step
    calls = []
    integrate(lambda u: calls.append(u) or math.exp(-u))
    assert len(calls) == len(set(calls))


def test_mass_far_from_every_node_is_refused():
    # all of the mass lies near u = 1e6, where the nodes of every level miss it
    with pytest.raises(QuadratureError, match="significant nodes"):
        integrate_half_line(lambda u: math.exp(-(u - 1e6) ** 2))
