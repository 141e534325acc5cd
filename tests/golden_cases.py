"""Golden CLI outputs: argv, exit code and the exact stdout bytes.

One case per subcommand from the README examples, the generic routes of
`basic-poly` and `oeis`, one CSV per layout, and failing checks. The
pytest wrapper is `test_golden.py`; without pytest, run

    PYTHONPATH=src python tests/golden_cases.py

which exits 1 and names each case whose exit code or stdout changed,
with a unified diff of a changed stdout.
`--write` regenerates the files from the current build; use it only for
an intended output change.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import io
import sys
from pathlib import Path

from deltapoly import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
CASES = {
    "basic-poly": (["basic-poly", "--a", "1", "--b", "1/2", "--p", "1", "--n", "3"], 0),
    "basic-poly-generic": (["basic-poly", "--a=2/3", "--b=-3/5", "--p", "2", "--n", "7",
                            "--method", "generic"], 0),
    "f-series": (["f-series", "--a", "1", "--b", "1/2", "--p", "1", "--order", "8"], 0),
    "fuss": (["fuss", "--p", "3", "--order", "6"], 0),
    "fuss-csv": (["fuss", "--p", "2", "--order", "10", "--format", "csv"], 0),
    "bessel-poly": (["bessel-poly", "--n", "5"], 0),
    "egf-check": (["egf-check", "--t", "2/3"], 0),
    "egf-check-csv": (["egf-check", "--t=-1", "--order", "8", "--format", "csv"], 0),
    "moments": (["moments", "--dist", "ig", "--t", "2", "--n", "5"], 0),
    "moments-quad-tol": (["moments", "--dist", "bessel", "--t", "0.5", "--n", "3",
                          "--quad-tol", "1e-10"], 0),
    "moments-csv": (["moments", "--dist", "gamma", "--t", "1.5", "--n", "2",
                     "--format", "csv"], 0),
    "semigroup-check": (["semigroup-check", "--s", "0.5", "--t", "1",
                         "--points", "0.5,1,2,4"], 0),
    "semigroup-check-fail": (["semigroup-check", "--s", "1", "--t", "2",
                              "--points=-1,1.5", "--tol", "1e-30"], 1),
    "kolmogorov-check": (["kolmogorov-check", "--x", "0.3"], 0),
    "kolmogorov-check-csv": (["kolmogorov-check", "--x", "0.7", "--tol", "1e-6",
                              "--format", "csv"], 0),
    "factorization-check": (["factorization-check", "--t", "2"], 0),
    "factorization-check-fail": (["factorization-check", "--t", "0.5", "--x-points", "0.4",
                                  "--u-points=-1,1", "--tol", "1e-30"], 1),
    "oeis": (["oeis", "--id", "A001515", "--count", "10"], 0),
    "oeis-generic-w": (["oeis", "--id", "A043301", "--count", "10", "--method", "generic"], 0),
    "oeis-generic-y": (["oeis", "--id", "A001518", "--count", "10", "--method", "generic"], 0),
    "oeis-csv": (["oeis", "--id", "A080893", "--count", "8", "--format", "csv"], 0),
    "verify-all": (["verify-all"], 0),
    "verify-all-csv": (["verify-all", "--format", "csv"], 0),
}


def golden_path(name: str) -> Path:
    argv = CASES[name][0]
    return GOLDEN / f"{name}.{'csv' if 'csv' in argv else 'json'}"


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@contextlib.contextmanager
def criteria_run_once():
    """verify-all has a JSON and a CSV case; compute the criteria once."""
    original = cli.run_all
    cli.run_all = functools.cache(original)
    try:
        yield
    finally:
        cli.run_all = original


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    bad = []
    with criteria_run_once():
        for name, (case_argv, want_code) in CASES.items():
            code, out = run(case_argv)
            path = golden_path(name)
            if write:
                GOLDEN.mkdir(exist_ok=True)
                path.write_text(out, encoding="utf-8")
            want_out = path.read_text(encoding="utf-8")
            if code != want_code:
                print(f"{name}: exit {code}, want {want_code}", file=sys.stderr)
            if out != want_out:
                print(f"{name}: stdout differs", file=sys.stderr)
                sys.stderr.writelines(difflib.unified_diff(
                    want_out.splitlines(keepends=True), out.splitlines(keepends=True),
                    f"{path.name} (golden)", f"{path.name} (this build)"))
            if code != want_code or out != want_out:
                bad.append(name)
    print(f"{len(CASES) - len(bad)}/{len(CASES)} golden cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
