"""Batch verification: every identity the package promises, checked in a
form CI can gate on. Each criterion returns a CriterionResult; the CLI
`verify-all` subcommand and the acceptance test module both run this
registry. Tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bessel import CARLITZ, bessel_egf_check, bessel_poly, w_bessel_relation_check
from .delta import (
    AbTriple,
    DeltaOperator,
    apply_delta,
    basic_sequence_closed,
    basic_sequence_generic,
    binomial_identity_check,
    f_series,
)
from .distributions import (
    BesselMeasure,
    InverseGaussian,
    bessel_k_half,
    bessel_k_quadrature,
    convolution_factorization_check,
    ig_sample,
    kolmogorov_check,
    moment_quadrature,
    semigroup_check,
    worst_abs_dev,
)
from .fuss import fuss_series
from .sequences import SEQUENCE_IDS, crosscheck, generate
from .series import (
    FormalPowerSeries,
    fps_reverse,
    fps_sqrt,
    poly_eval,
)

SEED = 7193

TOL_MOMENT_REL = 1e-8
TOL_CONVOLUTION_ABS = 1e-7
TOL_FACTORIZATION_ABS = 1e-12
TOL_KOLMOGOROV_ABS = 1e-8
TOL_NORMALIZATION_ABS = 1e-10
TOL_BESSEL_K_REL = 1e-10
TOL_K_CLOSED_FORM_REL = 1e-9
TOL_CROSSCHECK_REL = 1e-8
SAMPLER_SIGMAS = 4.0

#: Absolute tolerance for each kind of check report.
REPORT_TOL = {
    "convolution": TOL_CONVOLUTION_ABS,
    "char": TOL_FACTORIZATION_ABS,
    "identity": TOL_KOLMOGOROV_ABS,
    "normalization": TOL_NORMALIZATION_ABS,
}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def random_triples(count: int, seed: int) -> list[AbTriple]:
    """Seeded draws of AbTriple with numerators and denominators <= 5, p <= 3."""
    rng = random.Random(seed)
    nonzero = [v for v in range(-5, 6) if v != 0]
    out = []
    for _ in range(count):
        a = Fraction(rng.choice(nonzero), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        out.append(AbTriple(a, b, rng.randint(1, 3)))
    return out


def delta_action() -> CriterionResult:
    """Q w_n = n w_{n-1} exactly for seeded triples, n <= 25."""
    name = "delta action Q w_n = n w_{n-1}"
    nmax = 25
    for abp in random_triples(20, SEED):
        ws = basic_sequence_closed(abp, nmax)
        op = DeltaOperator.from_ab(abp, order=nmax)
        for n in range(1, nmax + 1):
            if apply_delta(op, ws[n]) != n * ws[n - 1]:
                return CriterionResult(name, False,
                                       f"failed at a={abp.a} b={abp.b} p={abp.p}, n={n}")
    return CriterionResult(name, True, "20 seeded triples, n <= 25, exact")


def closed_equals_generic() -> CriterionResult:
    name = "closed form equals generic solve"
    nmax = 25
    for abp in random_triples(20, SEED):
        closed = basic_sequence_closed(abp, nmax)
        op = DeltaOperator.from_ab(abp, order=nmax)
        generic = basic_sequence_generic(op, nmax)
        if closed.polys != generic.polys:
            return CriterionResult(name, False, f"mismatch at a={abp.a} b={abp.b} p={abp.p}")
    return CriterionResult(name, True, "20 seeded triples, n <= 25, exact")


def binomial_type() -> CriterionResult:
    name = "binomial-type identity on the integer grid"
    for abp in random_triples(5, SEED + 1):
        seq = basic_sequence_closed(abp, 20)
        for n in range(21):
            if not binomial_identity_check(seq, n):
                return CriterionResult(name, False,
                                       f"failed at a={abp.a} b={abp.b} p={abp.p}, n={n}")
    return CriterionResult(name, True, "5 seeded triples, all n <= 20, exact")


def fuss_inverse() -> CriterionResult:
    name = "Fuss-Catalan series inverts a x - b x^{p+1}"
    order = 30
    for abp in random_triples(10, SEED + 2):
        g = DeltaOperator.from_ab(abp, order).g
        if f_series(abp, order) != fps_reverse(g):
            return CriterionResult(name, False, f"mismatch at a={abp.a} b={abp.b} p={abp.p}")
    f = f_series(CARLITZ, 15)
    for n in range(1, 16):
        dfact = math.prod(range(2 * n - 3, 0, -2)) if n >= 2 else 1
        if f[n] != Fraction(dfact, math.factorial(n)):
            return CriterionResult(name, False,
                                   f"(1, 1/2, 1) coefficient n={n} is not (2n-3)!!/n!")
    return CriterionResult(
        name, True, "10 seeded triples to order 30, plus (2n-3)!!/n! for n <= 15, exact")


def fuss_functional_equation() -> CriterionResult:
    name = "Fuss functional equation B_p = 1 + x B_p^p"
    order = 40
    x = FormalPowerSeries.identity(order)
    for p in range(1, 7):
        b = fuss_series(p, order).series
        if b - 1 - x * b**p != FormalPowerSeries.constant(0, order):
            return CriterionResult(name, False, f"residual nonzero at p={p}")
    # p = 2 against the closed form (1 - sqrt(1-4x)) / (2x)
    s = fps_sqrt(FormalPowerSeries([1, -4], order + 1))
    catalan = FormalPowerSeries([(1 - s)[k + 1] / 2 for k in range(order + 1)], order)
    if fuss_series(2, order).series != catalan:
        return CriterionResult(name, False, "B_2 disagrees with (1 - sqrt(1-4x))/(2x)")
    return CriterionResult(name, True, "p <= 6 to order 40, and B_2 = (1-sqrt(1-4x))/(2x), exact")


def bessel_relation_and_egf() -> CriterionResult:
    name = "Bessel relation and generating function"
    if not w_bessel_relation_check(25):
        return CriterionResult(name, False, "w_n(t) != t^n y_{n-1}(1/t) below n = 25")
    for t0 in (1, 2, Fraction(1, 2), Fraction(2, 3), -1):
        if not bessel_egf_check(t0, 12):
            return CriterionResult(name, False, f"EGF mismatch at t0={t0}")
    return CriterionResult(
        name, True, "relation n <= 25 exact; EGF at 5 rational points to order 12, exact")


def moment_theorems() -> CriterionResult:
    ws = basic_sequence_closed(CARLITZ, 8)
    ys = bessel_poly(8)
    worst = 0.0
    for law, polys, points in ((InverseGaussian, ws, (Fraction(1, 2), Fraction(1), Fraction(2))),
                               (BesselMeasure, ys, (1, 2, 3, 4))):
        for t in points:
            dist = law(float(t))
            for n in range(9):
                exact = float(poly_eval(polys[n], t))
                worst = max(worst, abs(moment_quadrature(dist, n).value - exact) / exact)
    return CriterionResult(
        "moments match w_n(t) and y_n(t)", worst < TOL_MOMENT_REL,
        f"max rel dev {worst:.3e} (tol {TOL_MOMENT_REL:g}), n <= 8")


def semigroup_factorization_kolmogorov() -> CriterionResult:
    semigroup = worst_abs_dev([r for s, t in ((0.5, 0.5), (1.0, 2.0))
                               for r in semigroup_check(s, t, (0.5, 1.0, 2.0, 4.0))])
    factorization = worst_abs_dev([
        r for t in (0.5, 1.0, 2.0)
        for r in convolution_factorization_check(t, (-1.0, -0.3, 0.2, 0.7, 1.0))])
    kolmogorov = worst_abs_dev([r for x in (0.1, 0.3, 0.7) for r in kolmogorov_check(x)])
    passed = all(worst[kind] < REPORT_TOL[kind]
                 for worst in (semigroup, factorization, kolmogorov) for kind in worst)
    return CriterionResult(
        "semigroup, factorization, Kolmogorov representation", passed,
        f"semigroup dev {semigroup['convolution']:.3e} (tol {TOL_CONVOLUTION_ABS:g}); "
        f"factorization char {factorization['char']:.3e} (tol {TOL_FACTORIZATION_ABS:g}), "
        f"density {factorization['convolution']:.3e} (tol {TOL_CONVOLUTION_ABS:g}); "
        f"Kolmogorov {kolmogorov['identity']:.3e} (tol {TOL_KOLMOGOROV_ABS:g}), "
        f"normalization {kolmogorov['normalization']:.3e} (tol {TOL_NORMALIZATION_ABS:g})")


def bessel_k_routes() -> CriterionResult:
    worst_quad = 0.0
    for m in range(11):
        for z in (0.5, 1.0, 2.0, 5.0):
            rec = bessel_k_half(m, z)
            quad = bessel_k_quadrature(m, z).value
            worst_quad = max(worst_quad, abs(rec - quad) / abs(quad))
    ws = basic_sequence_closed(CARLITZ, 8)
    ys = bessel_poly(8)
    worst_closed = 0.0
    sqrt_pi = math.sqrt(math.pi)
    for t in (0.5, 1.0, 2.0):
        for n in range(9):
            # w_n(t) = t e^t 2^n (t/2)^{n-1/2} K_{1/2-n}(t) / sqrt(pi)
            via_k = (t * math.exp(t) * 2.0**n * (0.5 * t) ** (n - 0.5)
                     * bessel_k_half(-n, t) / sqrt_pi)
            exact = float(poly_eval(ws[n], Fraction(t)))
            worst_closed = max(worst_closed, abs(via_k - exact) / exact)
            # y_n(t) = e^{1/t} sqrt(2/(pi t)) K_{-n-1/2}(1/t)
            via_k = (math.exp(1.0 / t) * math.sqrt(2.0 / (math.pi * t))
                     * bessel_k_half(-n - 1, 1.0 / t))
            exact = float(poly_eval(ys[n], Fraction(t)))
            worst_closed = max(worst_closed, abs(via_k - exact) / exact)
    passed = worst_quad < TOL_BESSEL_K_REL and worst_closed < TOL_K_CLOSED_FORM_REL
    return CriterionResult(
        "Bessel K: recurrence, integral, closed moment forms", passed,
        f"recurrence vs quadrature {worst_quad:.3e} (tol {TOL_BESSEL_K_REL:g}); "
        f"K forms of w_n/y_n {worst_closed:.3e} (tol {TOL_K_CLOSED_FORM_REL:g})")


def integer_sequences() -> CriterionResult:
    name = "integer sequences: integrality, two routes, quadrature"
    for seq_id in SEQUENCE_IDS:
        closed = generate(seq_id, 12, method="closed")
        generic = generate(seq_id, 12, method="generic")
        if closed != generic:
            return CriterionResult(name, False, f"{seq_id}: closed and generic routes disagree")
    worst = 0.0
    for seq_id in SEQUENCE_IDS:
        for r in crosscheck(seq_id, 9):
            worst = max(worst, r.rel_dev)
    return CriterionResult(
        name, worst < TOL_CROSSCHECK_REL,
        f"8 ids x 12 terms integral and route-consistent; "
        f"quadrature max rel dev {worst:.3e} over 9 terms (tol {TOL_CROSSCHECK_REL:g})")


def sampler_sanity() -> CriterionResult:
    n = 1_000_000
    draws = ig_sample(1.0, SEED, n)
    mean = math.fsum(draws) / n
    m2 = math.fsum(v * v for v in draws) / n
    # E U = w_1(1) = 1, Var U = w_2 - w_1^2 = 1;
    # E U^2 = w_2(1) = 2, Var U^2 = w_4 - w_2^2 = 37 - 4 = 33
    tol_mean = SAMPLER_SIGMAS * 1.0 / math.sqrt(n)
    tol_m2 = SAMPLER_SIGMAS * math.sqrt(33.0) / math.sqrt(n)
    dev_mean = abs(mean - 1.0)
    dev_m2 = abs(m2 - 2.0)
    return CriterionResult(
        "inverse-Gaussian sampler sanity", dev_mean <= tol_mean and dev_m2 <= tol_m2,
        f"10^6 draws at t=1: |mean-1| = {dev_mean:.3e} (tol {tol_mean:.3e}), "
        f"|m2-2| = {dev_m2:.3e} (tol {tol_m2:.3e})")


CRITERIA = (
    delta_action,
    closed_equals_generic,
    binomial_type,
    fuss_inverse,
    fuss_functional_equation,
    bessel_relation_and_egf,
    moment_theorems,
    semigroup_factorization_kolmogorov,
    bessel_k_routes,
    integer_sequences,
    sampler_sanity,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
