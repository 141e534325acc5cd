"""Eight integer sequences arising as moments of the distribution family.

Each sequence has two independent exact constructions (the closed sums
of `delta` and `bessel`, or the generic triangular solve of `delta`) and
a distribution whose quadrature moments must reproduce it. The OEIS ids
are labels for cross-reference only; all values are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bessel import CARLITZ, bessel_poly
from .delta import DeltaOperator, basic_sequence_closed, basic_sequence_generic
from .distributions import (
    LAWS,
    Dilated,
    Report,
    make_report,
    moment_quadrature,
)
from .series import poly_eval


@dataclass(frozen=True)
class SequenceSpec:
    """Term n is scale * dilation^n * F_{n+shift}(point), with F = w (the
    basic polynomials of D - D**2/2) or y (the Bessel polynomials). It is
    also scale times the (n+shift)-th moment of the law LAWS[family] at t =
    point, dilated by `dilation`; family "ig" has the moments w, "bessel"
    the moments y."""

    oeis_id: str
    description: str
    family: str
    point: Fraction
    shift: int = 0
    scale: Fraction = Fraction(1)
    dilation: int = 1


SPECS: tuple[SequenceSpec, ...] = (
    SequenceSpec("A144301", "w_n(1): moments of the inverse-Gaussian law at t=1",
                 "ig", Fraction(1)),
    SequenceSpec("A107104", "w_n(2): moments of the inverse-Gaussian law at t=2",
                 "ig", Fraction(2)),
    SequenceSpec("A043301", "w_{n+1}(2)/2: moments of the size-biased inverse-Gaussian law at t=2",
                 "ig", Fraction(2), shift=1, scale=Fraction(1, 2)),
    SequenceSpec("A080893", "2^n w_n(1/2): moments of the doubled inverse-Gaussian law at t=1/2",
                 "ig", Fraction(1, 2), dilation=2),
    SequenceSpec("A001515", "y_n(1): moments of the Bessel measure at t=1", "bessel", Fraction(1)),
    SequenceSpec("A001517", "y_n(2): moments of the Bessel measure at t=2", "bessel", Fraction(2)),
    SequenceSpec("A001518", "y_n(3): moments of the Bessel measure at t=3", "bessel", Fraction(3)),
    SequenceSpec("A065919", "y_n(4): moments of the Bessel measure at t=4", "bessel", Fraction(4)),
)

SEQUENCE_IDS: tuple[str, ...] = tuple(s.oeis_id for s in SPECS)
_BY_ID = {s.oeis_id: s for s in SPECS}


def _family_values(family: str, t0: Fraction, nmax: int, method: str) -> list[Fraction]:
    """F_0(t0)..F_nmax(t0) for F = w (family "ig") or y (family "bessel")."""
    if family == "bessel" and method == "closed":
        return [poly_eval(y, t0) for y in bessel_poly(nmax)]
    wmax = nmax + (family == "bessel")
    if method == "closed":
        ws = basic_sequence_closed(CARLITZ, wmax)
    else:
        ws = basic_sequence_generic(DeltaOperator.from_ab(CARLITZ, order=max(wmax, 1)), wmax)
    if family == "ig":
        return [poly_eval(w, t0) for w in ws]
    # y_n(t) = t^{n+1} w_{n+1}(1/t), with w from the generic solver
    return [t0 ** (n + 1) * poly_eval(ws[n + 1], 1 / t0) for n in range(nmax + 1)]


def generate(seq_id: str, count: int, method: str = "closed") -> list[int]:
    """First `count` terms, exactly. Raises if a term fails to be an
    integer, which would mean the construction itself is broken."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if method not in ("closed", "generic"):
        raise ValueError(f"unknown method {method!r}")
    if seq_id not in _BY_ID:
        raise ValueError(f"unknown sequence id {seq_id!r}")
    spec = _BY_ID[seq_id]
    values = _family_values(spec.family, spec.point, count - 1 + spec.shift, method)
    out = []
    for n in range(count):
        v = spec.scale * spec.dilation**n * values[n + spec.shift]
        if v.denominator != 1:
            raise ArithmeticError(f"{seq_id} term {n} is not an integer: {v}")
        out.append(v.numerator)
    return out


def crosscheck(seq_id: str, count: int) -> list[Report]:
    """Exact terms against quadrature moments of the matching law."""
    terms = generate(seq_id, count)
    spec = _BY_ID[seq_id]
    law = LAWS[spec.family](float(spec.point))
    if spec.dilation != 1:
        law = Dilated(law, float(spec.dilation))
    scale = float(spec.scale)
    out = []
    for n in range(count):
        q = moment_quadrature(law, n + spec.shift)
        out.append(make_report("crosscheck", f"{seq_id} n={n}", float(terms[n]),
                               q.value * scale, q.error * scale))
    return out
