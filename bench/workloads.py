"""The benchmark's four seeded workloads and the exact oracles that check them.

`build(name, seed)` is the whole set-up of a run: it imports deltapoly,
draws the inputs from the seed, computes every oracle, and runs one
warm-up op of each kind. It returns the op list of one pass. Each op is
called through a module attribute at call time (`series.fps_recip(...)`),
so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import deltapoly
from deltapoly import cli, delta, distributions, sequences, series, verify

SRC = Path(deltapoly.__file__).resolve().parent.parent


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the output is right


@dataclass
class Workload:
    ops: list[Op]
    # the traced run of cli-mix calls cli.main in-process instead
    traced_ops: "list[Op] | None" = None
    # known-defect probes: run once per run, untimed, never counted as ops
    probes: list[Op] = field(default_factory=list)
    # total bit length of the exact coefficients in an op's output
    size: "Callable[[object], int] | None" = None
    info: dict = field(default_factory=dict)


def _equal_to(expected, what: str):
    def check(out):
        return None if out == expected else f"{what} differs from the oracle"
    return check


# -- exact oracles ----------------------------------------------------------

def closed_oracle(a: Fraction, b: Fraction, p: int, nmax: int) -> list[tuple]:
    """Coefficient tuples of w_0..w_nmax for a*D - b*D^(p+1), from
    (n+j-1)! b^j / (j! (n-jp-1)! a^(n+j)) with one integer quotient each."""
    fact = [1]
    for k in range(1, 2 * nmax + 1):
        fact.append(fact[-1] * k)
    out = [(Fraction(1),)]
    for n in range(1, nmax + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for j in range((n - 1) // p + 1):
            num = fact[n + j - 1] * b.numerator**j * a.denominator**(n + j)
            den = (fact[j] * fact[n - j * p - 1] * b.denominator**j
                   * a.numerator**(n + j))
            coeffs[n - j * p] = Fraction(num, den)
        out.append(tuple(coeffs))
    return out


def bessel_oracle(nmax: int) -> list[tuple]:
    """y_0..y_nmax from the w_n relation w_n(t) = t^n y_{n-1}(1/t), with w
    the basic sequence of D - D^2/2."""
    w = closed_oracle(Fraction(1), Fraction(1, 2), 1, nmax + 1)
    return [tuple(w[n][n - j] for j in range(n)) for n in range(1, nmax + 2)]


def _peval(coeffs, x) -> Fraction:
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def sequence_oracle(count: int) -> dict[str, list[int]]:
    """The eight labelled sequences from the oracle polynomials."""
    w = closed_oracle(Fraction(1), Fraction(1, 2), 1, count + 1)
    y = bessel_oracle(count)
    terms = {
        "A144301": [_peval(w[n], 1) for n in range(count)],
        "A107104": [_peval(w[n], 2) for n in range(count)],
        "A043301": [_peval(w[n + 1], 2) / 2 for n in range(count)],
        "A080893": [2**n * _peval(w[n], Fraction(1, 2)) for n in range(count)],
    }
    for seq_id, t0 in (("A001515", 1), ("A001517", 2), ("A001518", 3), ("A065919", 4)):
        terms[seq_id] = [_peval(y[n], t0) for n in range(count)]
    out = {}
    for seq_id, vals in terms.items():
        if any(v.denominator != 1 for v in vals):
            raise ArithmeticError(f"oracle for {seq_id} is not integral")
        out[seq_id] = [int(v) for v in vals]
    return out


def _mul(x, y, n: int) -> tuple:
    """Truncated product of two coefficient sequences, independent of series."""
    return tuple(sum((x[i] * y[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(n + 1))


def _identity_check(holds: Callable[[tuple], bool], what: str):
    """Check an output by an identity, then accept exact repeats of the
    last output that passed it without recomputing the identity."""
    passed = []

    def check(out):
        if passed and out == passed[0]:
            return None
        if holds(out.coeffs):
            passed[:] = [out]
            return None
        return f"{what} identity fails"
    return check


def _bits(out) -> int:
    if isinstance(out, bool):
        return 0
    if isinstance(out, list):
        return sum(abs(v).bit_length() for v in out)
    polys = getattr(out, "polys", None) or [out]
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for p in polys for c in p.coeffs)


# -- exact-algebra ------------------------------------------------------------

# Fixed numerator/denominator pairs per p keep the coefficient bit growth,
# and so the work, the same for every seed; the seed picks each sign and
# which member of a pair is the numerator.
TRIPLE_PAIRS = {1: ((3, 4), (2, 5)), 2: ((2, 5), (3, 4)), 3: ((3, 5), (2, 3))}
CLOSED_N, GENERIC_N, REVERSE_ORDER, SERIES_ORDER = 150, 60, 60, 150
BINOMIAL_N, SEQUENCE_COUNT = 20, 30


def seeded_triples(rng: random.Random) -> list[delta.AbTriple]:
    def draw(pair):
        x, y = pair if rng.random() < 0.5 else pair[::-1]
        return rng.choice((1, -1)) * Fraction(x, y)
    return [delta.AbTriple(draw(pa), draw(pb), p) for p, (pa, pb) in TRIPLE_PAIRS.items()]


def _g_series(abp: delta.AbTriple, order: int) -> series.FormalPowerSeries:
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = abp.a
    coeffs[abp.p + 1] = -abp.b
    return series.FormalPowerSeries(coeffs, order)


def _dense_series(rng: random.Random, first: Fraction) -> series.FormalPowerSeries:
    rest = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(SERIES_ORDER)]
    return series.FormalPowerSeries([first, *rest], SERIES_ORDER)


def exact_algebra(seed: int) -> Workload:
    rng = random.Random(seed)
    triples = seeded_triples(rng)
    ops = []
    for abp in triples:
        tag = f"a={abp.a} b={abp.b} p={abp.p}"
        closed = closed_oracle(abp.a, abp.b, abp.p, CLOSED_N)
        op = delta.DeltaOperator.from_ab(abp, order=GENERIC_N)
        g = _g_series(abp, REVERSE_ORDER)
        ops += [
            Op(f"basic_sequence_closed n={CLOSED_N} {tag}",
               lambda abp=abp: delta.basic_sequence_closed(abp, CLOSED_N),
               lambda out, e=closed: None if [w.coeffs for w in out] == e
               else "closed w_n differ from the oracle"),
            Op(f"basic_sequence_generic n={GENERIC_N} {tag}",
               lambda op=op: delta.basic_sequence_generic(op, GENERIC_N),
               lambda out, e=closed[:GENERIC_N + 1]: None if [w.coeffs for w in out] == e
               else "generic w_n differ from the closed form"),
            Op(f"fps_reverse order={REVERSE_ORDER} {tag}",
               lambda g=g: series.fps_reverse(g),
               _equal_to(delta.f_series(abp, REVERSE_ORDER), "reversion")),
        ]
    n = SERIES_ORDER
    one = (Fraction(1),) + (Fraction(0),) * n
    f_recip = _dense_series(rng, Fraction(rng.choice((1, -1)) * rng.randint(1, 5),
                                          rng.randint(1, 5)))
    f_sqrt = _dense_series(rng, Fraction(1))
    f_exp = _dense_series(rng, Fraction(0))
    df = tuple(k * f_exp[k] for k in range(1, n + 1))
    ops += [
        Op(f"fps_recip order={n}", lambda: series.fps_recip(f_recip),
           _identity_check(lambda r: _mul(f_recip.coeffs, r, n) == one, "f * recip(f) = 1")),
        Op(f"fps_sqrt order={n}", lambda: series.fps_sqrt(f_sqrt),
           _identity_check(lambda s: _mul(s, s, n) == f_sqrt.coeffs, "sqrt(f)^2 = f")),
        Op(f"fps_exp order={n}", lambda: series.fps_exp(f_exp),
           _identity_check(lambda e: e[0] == 1 and _mul(df, e, n - 1)
                           == tuple(k * e[k] for k in range(1, n + 1)), "exp(f)' = f' exp(f)")),
        Op(f"bessel_poly n={n}", lambda: deltapoly.bessel.bessel_poly(n),
           lambda out, e=bessel_oracle(n): None if [y.coeffs for y in out] == e
           else "y_n differ from the w_n relation"),
    ]
    abp = triples[0]
    seq = delta.BinomialSequence(tuple(series.Poly(c) for c in
                                       closed_oracle(abp.a, abp.b, abp.p, BINOMIAL_N)))
    ops.append(Op(f"binomial_identity_check n={BINOMIAL_N} a={abp.a} b={abp.b} p={abp.p}",
                  lambda: delta.binomial_identity_check(seq, BINOMIAL_N),
                  lambda out: None if out is True else "identity reported false"))
    expected = sequence_oracle(SEQUENCE_COUNT)
    for seq_id in sequences.SEQUENCE_IDS:
        for method in ("closed", "generic"):
            ops.append(Op(f"generate {seq_id} {method} count={SEQUENCE_COUNT}",
                          lambda s=seq_id, m=method: sequences.generate(s, SEQUENCE_COUNT, m),
                          _equal_to(expected[seq_id], "terms")))

    # warm-up: every kind of op once, at a small size
    small = triples[0]
    delta.basic_sequence_closed(small, 8)
    delta.basic_sequence_generic(delta.DeltaOperator.from_ab(small, order=8), 8)
    series.fps_reverse(_g_series(small, 8))
    series.fps_recip(f_recip.truncate(8))
    series.fps_sqrt(f_sqrt.truncate(8))
    series.fps_exp(f_exp.truncate(8))
    deltapoly.bessel.bessel_poly(8)
    delta.binomial_identity_check(seq, 3)
    for method in ("closed", "generic"):
        sequences.generate(sequences.SEQUENCE_IDS[0], 3, method)

    return Workload(ops, size=_bits, info={
        "triples": [f"a={t.a} b={t.b} p={t.p}" for t in triples],
        "sizes": {"closed_n": CLOSED_N, "generic_n": GENERIC_N,
                  "reverse_order": REVERSE_ORDER, "series_order": SERIES_ORDER,
                  "binomial_n": BINOMIAL_N, "sequence_count": SEQUENCE_COUNT}})


# -- quadrature-laws ----------------------------------------------------------

LAWS = {"ig": distributions.InverseGaussian, "gamma": distributions.GammaHalf,
        "bessel": distributions.BesselMeasure}
# Decades [lo, hi) of t, one seeded log-uniform t each, moments n <= 4.
# GRID is where the current exp-sinh rule, centred at u = 1, reaches the
# law's mass. PROBE_GRID is the rest of the ranges a scale-aware rule
# must cover (IG up to 1e8, GammaHalf down to 1e-8); there the current
# rule returns silent zeros, so those moments are probes, not ops.
GRID = {"ig": (-3, 1), "gamma": (-3, 8), "bessel": (-5, 5)}
PROBE_GRID = {"ig": (1, 8), "gamma": (-8, -3)}
GRID_N, MODERATE_N = 4, 8


def _moment_oracle():
    w = closed_oracle(Fraction(1), Fraction(1, 2), 1, MODERATE_N)
    y = bessel_oracle(MODERATE_N)

    def exact(law: str, t: float, n: int) -> float:
        tq = Fraction(t)
        if law == "ig":
            return float(_peval(w[n], tq))
        if law == "gamma":
            return float(tq**n * math.prod(range(2 * n - 1, 0, -2)))
        return float(_peval(y[n], tq))
    return exact


def _moment_op(law: str, t: float, n: int, exact: float) -> Op:
    def check(q):
        rel = abs(q.value - exact) / exact
        return None if rel < verify.TOL_MOMENT_REL else \
            f"value {q.value:.6g}, exact {exact:.6g}, rel dev {rel:.1e}"
    return Op(f"moment {law} t={t:.6g} n={n}",
              lambda: distributions.moment_quadrature(LAWS[law](t), n), check)


def _ig_density(t: float, u: float) -> float:
    return t * math.exp(-(u - t) ** 2 / (2 * u)) / math.sqrt(2 * math.pi * u**3)


def _bessel_density(t: float, u: float) -> float:
    return math.exp(-(u - 1) ** 2 / (2 * t * u)) / math.sqrt(2 * math.pi * t * u)


def _within(pairs, tol: float, what: str):
    """First (got, want) pair farther apart than tol, as a failure reason."""
    for got, want in pairs:
        if not abs(got - want) < tol:
            return f"{what}: |{got:.6g} - {want:.6g}| >= {tol:g}"
    return None


def quadrature_laws(seed: int) -> Workload:
    rng = random.Random(seed)
    exact = _moment_oracle()

    def log_uniform(lo: float, hi: float) -> float:
        return 10 ** rng.uniform(math.log10(lo), math.log10(hi))

    def grid(decades):
        out = []
        for law, (lo, hi) in decades.items():
            for d in range(lo, hi):
                t = 10 ** (d + rng.random())
                out += [_moment_op(law, t, n, exact(law, t, n)) for n in range(GRID_N + 1)]
        return out

    ops = grid(GRID)
    probes = grid(PROBE_GRID)
    for law in LAWS:
        for _ in range(3):
            t = log_uniform(0.5, 4.0)
            ops += [_moment_op(law, t, n, exact(law, t, n)) for n in range(MODERATE_N + 1)]

    for _ in range(2):
        s, t = log_uniform(0.5, 2.0), log_uniform(0.5, 2.0)
        pts = sorted(rng.uniform(0.5, 4.0) for _ in range(4))
        want = [_ig_density(s + t, u) for u in pts]
        ops.append(Op(f"semigroup_check s={s:.6g} t={t:.6g}",
                      lambda s=s, t=t, pts=pts: distributions.semigroup_check(s, t, pts),
                      lambda rs, want=want: _within(
                          zip([r.value_lhs for r in rs], want), verify.TOL_CONVOLUTION_ABS,
                          "convolution") if len(rs) == len(want) else "wrong row count"))
    for _ in range(3):
        x = rng.uniform(0.1, 0.7)
        lhs = 1.0 - cmath.sqrt(1.0 - 2.0j * x)
        ops.append(Op(f"kolmogorov_check x={x:.6g}",
                      lambda x=x: distributions.kolmogorov_check(x),
                      lambda rs, lhs=lhs: _within([(rs[0].value_rhs, lhs)],
                                                  verify.TOL_KOLMOGOROV_ABS, "identity")
                      or _within([(rs[1].value_rhs, 1.0)], verify.TOL_NORMALIZATION_ABS,
                                 "normalization")))
    for _ in range(3):
        t = log_uniform(0.5, 2.0)
        xs = sorted(rng.uniform(-1.0, 1.0) for _ in range(5))
        us = sorted(rng.uniform(0.5, 2.0) for _ in range(3))
        psi = [cmath.exp((1 - cmath.sqrt(1 - 2j * t * x)) / t) / cmath.sqrt(1 - 2j * t * x)
               for x in xs]
        dens = [_bessel_density(t, u) for u in us]

        def check(rs, psi=psi, dens=dens):
            if len(rs) != len(psi) + len(dens):
                return "wrong row count"
            return (_within(zip([r.value_rhs for r in rs], psi),
                            verify.TOL_FACTORIZATION_ABS, "characteristic function")
                    or _within(zip([r.value_lhs for r in rs[len(psi):]], dens),
                               verify.TOL_CONVOLUTION_ABS, "density"))
        ops.append(Op(f"convolution_factorization_check t={t:.6g}",
                      lambda t=t, xs=xs, us=us:
                      distributions.convolution_factorization_check(t, xs, us), check))
    for _ in range(2):
        z = log_uniform(0.5, 5.0)
        for m in range(11):
            k = distributions.bessel_k_half(m, z)
            ops.append(Op(f"bessel_k_quadrature m={m} z={z:.6g}",
                          lambda m=m, z=z: distributions.bessel_k_quadrature(m, z),
                          lambda q, k=k: None if abs(q.value - k) / k < verify.TOL_BESSEL_K_REL
                          else f"{q.value:.6g} vs recurrence {k:.6g}"))
    terms = sequence_oracle(9)
    for seq_id in sequences.SEQUENCE_IDS:
        def check(rs, want=terms[seq_id]):
            if [r.value_lhs for r in rs] != [float(v) for v in want]:
                return "exact terms differ from the oracle"
            return next((f"{r.label}: rel dev {abs(r.value_rhs - v) / v:.1e}"
                         for r, v in zip(rs, want)
                         if not abs(r.value_rhs - v) / v < verify.TOL_CROSSCHECK_REL), None)
        ops.append(Op(f"crosscheck {seq_id} count=9",
                      lambda s=seq_id: sequences.crosscheck(s, 9), check))

    # warm-up: the first op of each kind
    seen = set()
    for op in ops:
        kind = op.name.split()[0]
        if kind not in seen:
            seen.add(kind)
            op.fn()
    return Workload(ops, probes=probes, info={
        "grid_decades": GRID, "probe_decades": PROBE_GRID,
        "grid_moments": GRID_N, "moderate_moments": MODERATE_N})


# -- verify-all -----------------------------------------------------------------

def verify_all(seed: int) -> Workload:
    """One op per pass: verify.run_all(). The seed is not used; the criteria
    keep their own SEED, sizes and tolerances. Per-criterion times come
    from the traced run."""
    def check(results):
        failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        if len(results) != len(verify.CRITERIA):
            return f"{len(results)} results for {len(verify.CRITERIA)} criteria"
        return "; ".join(failed) or None
    return Workload([Op("run_all", lambda: verify.run_all(), check)],
                    info={"criteria": len(verify.CRITERIA), "seed_used": False})


# -- cli-mix --------------------------------------------------------------------

REPORT_HEADER = ("label", "value_lhs", "value_rhs", "abs_dev", "rel_dev", "quad_error")
CALLS_PER_COMMAND = 4
REJECTED = (
    ["basic-poly", "--a=1/0", "--b=1", "--p", "1", "--n", "3"],
    ["basic-poly", "--a=x/2", "--b=1", "--p", "1", "--n", "3"],
    ["basic-poly", "--a=1", "--b=1/2", "--p", "0", "--n", "3"],
    ["f-series", "--a=0", "--b=1", "--p", "1"],
    ["semigroup-check", "--s", "1", "--t", "1", "--points", ","],
    ["factorization-check", "--t", "1", "--u-points", ","],
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 5))


def _coeff_call(argv, key, size, coeffs):
    return argv, {key: size, "coeffs": coeffs}, (("power", "coefficient"), 1, coeffs)


def _report_call(argv, fields, reports):
    return argv, fields, (REPORT_HEADER, 3, [_fmt(r.abs_dev) for r in reports])


def _cli_calls(rng: random.Random) -> list[tuple]:
    """(argv, JSON result fields, CSV expectation) per accepted call, with
    every value computed by the library."""
    calls = []
    for _ in range(CALLS_PER_COMMAND):
        abp = delta.AbTriple(_rat(rng), _rat(rng), rng.randint(1, 3))
        n = rng.randint(3, 12)
        method = rng.choice(("closed", "generic"))
        coeffs = series.poly_to_strings(delta.basic_sequence_closed(abp, n)[n])
        calls.append(_coeff_call(
            ["basic-poly", f"--a={abp.a}", f"--b={abp.b}", "--p", str(abp.p), "--n", str(n),
             "--method", method], "n", n, coeffs))

        abp = delta.AbTriple(_rat(rng), _rat(rng), rng.randint(1, 3))
        order = rng.randint(8, 16)
        coeffs = [series.format_rational(c) for c in delta.f_series(abp, order).coeffs]
        calls.append(_coeff_call(
            ["f-series", f"--a={abp.a}", f"--b={abp.b}", "--p", str(abp.p),
             "--order", str(order)], "order", order, coeffs))

        p, order = rng.randint(1, 4), rng.randint(8, 16)
        coeffs = [series.format_rational(c)
                  for c in deltapoly.fuss.fuss_series(p, order).series.coeffs]
        calls.append(_coeff_call(["fuss", "--p", str(p), "--order", str(order)],
                                 "order", order, coeffs))

        n = rng.randint(3, 12)
        coeffs = series.poly_to_strings(deltapoly.bessel.bessel_poly(n)[n])
        calls.append(_coeff_call(["bessel-poly", "--n", str(n)], "n", n, coeffs))

        t0, order = _rat(rng), rng.randint(6, 12)
        holds = deltapoly.bessel.bessel_egf_check(t0, order)
        calls.append((["egf-check", f"--t={t0}", "--order", str(order)], {"holds": holds},
                      (("field", "value"), 1, ["true" if holds else "false"])))

        dist, n = rng.choice(sorted(LAWS)), rng.randint(1, 6)
        t = round(10 ** rng.uniform(math.log10(0.5), math.log10(4.0)), 3)
        q = distributions.moment_quadrature(LAWS[dist](t), n)
        calls.append((["moments", "--dist", dist, "--t", repr(t), "--n", str(n)],
                      {"value": _fmt(q.value)},
                      (("field", "value"), 1, [_fmt(q.value), _fmt(q.error)])))

        s, t = round(rng.uniform(0.5, 2.0), 2), round(rng.uniform(0.5, 2.0), 2)
        pts = sorted(round(rng.uniform(0.5, 4.0), 2) for _ in range(4))
        reports = distributions.semigroup_check(s, t, pts)
        worst = max(r.abs_dev for r in reports)
        calls.append(_report_call(
            ["semigroup-check", "--s", repr(s), "--t", repr(t),
             "--points", ",".join(map(repr, pts))],
            {"passed": worst < 1e-7, "max_abs_dev": _fmt(worst)}, reports))

        x = round(rng.uniform(0.1, 0.7), 3)
        reports = distributions.kolmogorov_check(x)
        ident, norm = reports[0].abs_dev, reports[1].abs_dev
        calls.append(_report_call(
            ["kolmogorov-check", "--x", repr(x)],
            {"passed": ident < 1e-8 and norm < verify.TOL_NORMALIZATION_ABS,
             "identity_abs_dev": _fmt(ident), "normalization_abs_dev": _fmt(norm)}, reports))

        t = round(rng.uniform(0.5, 2.0), 2)
        reports = distributions.convolution_factorization_check(
            t, (-1.0, -0.3, 0.2, 0.7, 1.0), (0.5, 1.0, 2.0))
        char = max(r.abs_dev for r in reports[:5])
        dens = max(r.abs_dev for r in reports[5:])
        calls.append(_report_call(
            ["factorization-check", "--t", repr(t)],
            {"passed": char < verify.TOL_FACTORIZATION_ABS and dens < 1e-7,
             "char_abs_dev": _fmt(char), "density_abs_dev": _fmt(dens)}, reports))

        seq_id, count = rng.choice(sequences.SEQUENCE_IDS), rng.randint(5, 15)
        method = rng.choice(("closed", "generic"))
        terms = [str(v) for v in sequences.generate(seq_id, count, method)]
        calls.append((["oeis", "--id", seq_id, "--count", str(count), "--method", method],
                      {"id": seq_id, "terms": terms}, (("n", "term"), 1, terms)))
    return calls


def _check_cli(argv, fields, csv_expect):
    """Check (exit code, stdout, stderr) of one call; after the first good
    pass, stdout must also repeat byte for byte."""
    first = []

    def check(result):
        code, out, err = result
        if fields is None:
            if code != 2 or out or err.count("\n") != 1 or not err.endswith("\n"):
                return f"rejected input gave exit {code}, {len(out)} stdout bytes, " \
                       f"{err.count(chr(10))} stderr lines"
            return None
        if code != 0 or err:
            return f"exit {code}: {err.strip()[:200]}"
        if first:
            return None if out == first[0] else "stdout bytes differ from the first pass"
        if "--format" in argv:
            header, col, values = csv_expect
            rows = list(csv.reader(io.StringIO(out)))
            if tuple(rows[0]) != header or [r[col] for r in rows[1:]] != values:
                return "csv table differs from the library values"
        else:
            env = json.loads(out)
            bad = [k for k, v in fields.items() if env["result"].get(k) != v]
            if env["command"] != argv[0] or bad:
                return f"result fields {bad} differ from the library values"
        first.append(out)
        return None
    return check


def _subprocess_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "deltapoly", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_mix(seed: int) -> Workload:
    """One closed-loop client: each call starts when the previous exits."""
    rng = random.Random(seed)
    accepted = _cli_calls(rng)
    for i in rng.sample(range(len(accepted)), len(accepted) // 4):
        argv, fields, csv_expect = accepted[i]
        accepted[i] = (argv + ["--format", "csv"], fields, csv_expect)
    rejected = [(argv, None, None) for argv in rng.sample(REJECTED, len(REJECTED))]
    calls = accepted + rejected
    rng.shuffle(calls)

    def ops(runner):
        return [Op(" ".join(argv), lambda argv=argv: runner(argv), _check_cli(argv, f, c))
                for argv, f, c in calls]
    return Workload(ops(_subprocess_cli), traced_ops=ops(_in_process_cli), info={
        "calls_per_pass": len(calls), "csv_calls": len(accepted) // 4,
        "rejected_calls": len(rejected), "clients": 1})


WORKLOADS = {"exact-algebra": exact_algebra, "quadrature-laws": quadrature_laws,
             "verify-all": verify_all, "cli-mix": cli_mix}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
