"""Command-line interface.

Every subcommand writes one JSON envelope to stdout:

    {"command": ..., "parameters": ..., "result": ..., "diagnostics": ...}

with reals rendered to 17 significant digits as strings, so output is
byte-identical across runs. --format csv swaps the envelope for a flat
table. Exit status: 0 success, 1 a failed check, a quadrature that
refused to converge or a closed stdout, 2 bad arguments or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from .bessel import bessel_egf_check, bessel_poly
from .delta import (
    AbTriple,
    DeltaOperator,
    basic_sequence_closed,
    basic_sequence_generic,
    f_series,
)
from .distributions import (
    LAWS,
    Report,
    convolution_factorization_check,
    kolmogorov_check,
    moment_quadrature,
    semigroup_check,
    worst_abs_dev,
)
from .fuss import fuss_series
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError
from .sequences import SEQUENCE_IDS, generate
from .series import format_rational, poly_to_strings
from .verify import REPORT_TOL, run_all


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # single diagnostic line, no usage dump
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite real: {text!r}")
    return value


def _quad_config(text: str) -> QuadratureConfig:
    try:
        return QuadratureConfig(rel_tol=_real(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {text!r}") from exc


def _real_list(text: str) -> list[float]:
    values = [_real(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"not a nonempty comma-separated list: {text!r}")
    return values


def _fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_value(v):
    if isinstance(v, complex):
        return {"re": _fmt_real(v.real), "im": _fmt_real(v.imag)}
    return _fmt_real(v)


def _echo(v):
    """A parsed option as the envelope's `parameters` shows it."""
    if isinstance(v, list):
        return [_echo(x) for x in v]
    if isinstance(v, float):
        return _fmt_real(v)
    if isinstance(v, Fraction):
        return str(v)
    return v


def _report_dict(r: Report) -> dict:
    return {
        "label": r.label,
        "value_lhs": _fmt_value(r.value_lhs),
        "value_rhs": _fmt_value(r.value_rhs),
        "abs_dev": _fmt_real(r.abs_dev),
        "rel_dev": _fmt_real(r.rel_dev),
        "quad_error": _fmt_real(r.quad_error),
    }


# Each handler maps parsed options to (result, diagnostics, exit code).

def _basic_poly(args):
    abp = AbTriple(args.a, args.b, args.p)
    if args.method == "closed":
        seq = basic_sequence_closed(abp, args.n)
    else:
        seq = basic_sequence_generic(DeltaOperator.from_ab(abp, order=max(args.n, 1)), args.n)
    return {"n": args.n, "coeffs": poly_to_strings(seq[args.n])}, None, 0


def _f_series(args):
    f = f_series(AbTriple(args.a, args.b, args.p), args.order)
    return {"order": args.order, "coeffs": [format_rational(c) for c in f.coeffs]}, None, 0


def _fuss(args):
    fs = fuss_series(args.p, args.order)
    return {"p": args.p, "order": args.order,
            "coeffs": [format_rational(c) for c in fs.series.coeffs]}, None, 0


def _bessel_poly(args):
    return {"n": args.n, "coeffs": poly_to_strings(bessel_poly(args.n)[args.n])}, None, 0


def _egf_check(args):
    holds = bessel_egf_check(args.t, args.order)
    return {"holds": holds}, None, 0 if holds else 1


def _moments(args):
    q = moment_quadrature(LAWS[args.dist](args.t), args.n, args.quad_tol)
    return {"value": _fmt_real(q.value)}, {"quad_error": _fmt_real(q.error)}, 0


def _oeis(args):
    terms = generate(args.id, args.count, method=args.method)
    return {"id": args.id, "terms": [str(v) for v in terms]}, None, 0


def _check(reports_for, keys: dict[str, str], tol_kind: str):
    """Handler of a check subcommand. `reports_for(args, cfg)` returns the
    Report rows; each result key in `keys` carries the worst abs_dev of
    one report kind. --tol bounds `tol_kind`, REPORT_TOL the others."""

    def handler(args):
        reports = reports_for(args, args.quad_tol)
        worst = worst_abs_dev(reports)
        tol = {**REPORT_TOL, tol_kind: args.tol}
        passed = all(worst[kind] < tol[kind] for kind in keys.values())
        result = {"passed": passed}
        result.update((key, _fmt_real(worst[kind])) for key, kind in keys.items())
        return result, {"reports": [_report_dict(r) for r in reports]}, 0 if passed else 1

    return handler


def _verify_all(args):
    results = run_all()
    color = sys.stderr.isatty() and "NO_COLOR" not in os.environ
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        if color:
            tag = f"\x1b[32m{tag}\x1b[0m" if r.passed else f"\x1b[31m{tag}\x1b[0m"
        print(f"{tag} {r.name}: {r.detail}", file=sys.stderr)
    all_passed = all(r.passed for r in results)
    result = {"all_passed": all_passed,
              "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                           for r in results]}
    return result, None, 0 if all_passed else 1


def _required(parse):
    return {"type": parse, "required": True}


def _tol(kind: str) -> tuple:
    return ("--tol", {"type": _real, "default": REPORT_TOL[kind]})


_A_B_P = (("--a", _required(_rational)), ("--b", _required(_rational)),
          ("--p", _required(int)))
_METHOD = ("--method", {"choices": ("closed", "generic"), "default": "closed"})
_QUAD_TOL = ("--quad-tol", {"type": _quad_config, "default": DEFAULT_CONFIG})

# (name, help, handler, options); every option but --quad-tol is echoed
# under "parameters" in declaration order.
_COMMANDS = (
    ("basic-poly", "basic polynomial w_n of a*D - b*D^(p+1)", _basic_poly,
     (*_A_B_P, ("--n", _required(int)), _METHOD)),
    ("f-series", "compositional inverse of a*x - b*x^(p+1)", _f_series,
     (*_A_B_P, ("--order", {"type": int, "default": 32}))),
    ("fuss", "Fuss-Catalan generating function of order p", _fuss,
     (("--p", _required(int)), ("--order", {"type": int, "default": 16}))),
    ("bessel-poly", "Bessel polynomial y_n", _bessel_poly,
     (("--n", _required(int)),)),
    ("egf-check", "Bessel EGF identity at a rational point, exact", _egf_check,
     (("--t", _required(_rational)), ("--order", {"type": int, "default": 12}))),
    ("moments", "n-th moment of a distribution by quadrature", _moments,
     (("--dist", {"choices": sorted(LAWS), "required": True}), ("--t", _required(_real)),
      ("--n", _required(int)), _QUAD_TOL)),
    ("semigroup-check", "inverse-Gaussian convolution semigroup at given points",
     _check(lambda a, cfg: semigroup_check(a.s, a.t, a.points, cfg),
            {"max_abs_dev": "convolution"}, "convolution"),
     (("--s", _required(_real)), ("--t", _required(_real)),
      ("--points", {"type": _real_list, "default": "0.5,1,2,4"}), _tol("convolution"),
      _QUAD_TOL)),
    ("kolmogorov-check", "Kolmogorov representation of 1 - sqrt(1-2ix)",
     _check(lambda a, cfg: kolmogorov_check(a.x, cfg),
            {"identity_abs_dev": "identity", "normalization_abs_dev": "normalization"},
            "identity"),
     (("--x", _required(_real)), _tol("identity"), _QUAD_TOL)),
    ("factorization-check", "Bessel measure = gamma * dilated inverse-Gaussian",
     _check(lambda a, cfg: convolution_factorization_check(a.t, a.x_points, a.u_points, cfg),
            {"char_abs_dev": "char", "density_abs_dev": "convolution"}, "convolution"),
     (("--t", _required(_real)),
      ("--x-points", {"type": _real_list, "default": "-1,-0.3,0.2,0.7,1"}),
      ("--u-points", {"type": _real_list, "default": "0.5,1,2"}), _tol("convolution"),
      _QUAD_TOL)),
    ("oeis", "terms of one of the eight labeled sequences", _oeis,
     (("--id", {"choices": SEQUENCE_IDS, "required": True}), ("--count", _required(int)),
      _METHOD)),
    ("verify-all", "run every acceptance criterion", _verify_all, ()),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="deltapoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        echoed = []
        for flag, kwargs in options:
            dest = p.add_argument(flag, **kwargs).dest
            if flag != "--quad-tol":
                echoed.append(dest)
        p.set_defaults(handler=handler, echoed=echoed)
    return parser


def _csv_cell(v) -> str:
    if isinstance(v, dict):  # complex, {"re": ..., "im": ...}
        sign = "" if v["im"].startswith("-") else "+"
        return f"{v['re']}{sign}{v['im']}j"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_csv(result, diagnostics) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if diagnostics and "reports" in diagnostics:
        header = ("label", "value_lhs", "value_rhs", "abs_dev", "rel_dev", "quad_error")
        writer.writerow(header)
        writer.writerows([_csv_cell(row[k]) for k in header] for row in diagnostics["reports"])
    elif "coeffs" in result:
        writer.writerow(("power", "coefficient"))
        writer.writerows(enumerate(result["coeffs"]))
    elif "terms" in result:
        writer.writerow(("n", "term"))
        writer.writerows(enumerate(result["terms"]))
    elif "criteria" in result:
        writer.writerow(("criterion", "passed", "detail"))
        writer.writerows((row["name"], _csv_cell(row["passed"]), row["detail"])
                         for row in result["criteria"])
    else:
        writer.writerow(("field", "value"))
        for fields in (result, diagnostics or {}):
            writer.writerows((key, _csv_cell(value)) for key, value in fields.items())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result, diagnostics, code = args.handler(args)
    except QuadratureError as exc:
        print(f"deltapoly {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"deltapoly {args.command}: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "csv":
            _emit_csv(result, diagnostics)
        else:
            params = {dest: _echo(getattr(args, dest)) for dest in args.echoed}
            envelope = {"command": args.command, "parameters": params, "result": result}
            if diagnostics is not None:
                envelope["diagnostics"] = diagnostics
            json.dump(envelope, sys.stdout, indent=2)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
