#!/usr/bin/env python3
"""deltapoly benchmark: seeded workloads, every output checked, metrics by name.

    python3 bench/run.py --workload exact-algebra --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run builds its workload from the seed, times repeated passes over the
op list for about --seconds, and checks every output against an exact
oracle. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The full run record
(commit, Python, nproc, line counts, failing ops) goes to bench/results/.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("exact-algebra", "quadrature-laws", "verify-all", "cli-mix")
SETUP_REPEATS = (5, 21)  # fresh interpreters per run: at least, at most
SETUP_BUDGET_S = 2.0     # keep adding set-ups past the minimum while under this
IMPORT_PROBE = ("import time; t = time.perf_counter(); import deltapoly.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "goodput_per_s": "ops/s",
                    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

MODULE_LAYERS = ("series", "fuss", "delta", "bessel", "quadrature", "distributions",
                 "sequences", "verify")
CALLS = ("series.poly_mul", "series.fps_mul", "series.poly_eval", "delta.apply_delta",
         "distributions.moment_quadrature", "distributions.density",
         "distributions.bessel_k_quadrature")
SELF_S = CALLS + tuple(f"series.fps_{k}"
                       for k in ("reverse", "recip", "sqrt", "exp", "compose")) + (
    "series.taylor_shift", "delta.basic_sequence_closed", "delta.basic_sequence_generic",
    "delta.binomial_identity_check", "delta.f_series", "fuss.fuss_series",
    "bessel.bessel_poly", "bessel.carlitz_w", "distributions.ig_sample",
    "sequences.generate", "sequences.crosscheck", "cli.main")
CHECKS = ("distributions.semigroup_check", "distributions.kolmogorov_check",
          "distributions.convolution_factorization_check")
CRITERIA = ("delta_action", "closed_equals_generic", "binomial_type", "fuss_inverse",
            "fuss_functional_equation", "bessel_relation_and_egf", "moment_theorems",
            "semigroup_factorization_kolmogorov", "bessel_k_routes", "integer_sequences",
            "sampler_sanity")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(cmd: list[str]) -> tuple[float, str]:
    """Wall time from spawn to exit, and stdout; a failed child fails the run."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=True)
    return time.perf_counter() - t0, proc.stdout


def _repeat(sample) -> list[float]:
    out, spent = [], 0.0
    while len(out) < SETUP_REPEATS[0] or (spent < SETUP_BUDGET_S
                                         and len(out) < SETUP_REPEATS[1]):
        wall, value = sample()
        out.append(value)
        spent += wall
    return out


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that set up and exit. On
    cli-mix the set-up is importing deltapoly.cli."""
    if workload == "cli-mix":
        cmd = [sys.executable, "-c", "import deltapoly.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    def sample():
        wall = _run_child(cmd)[0]
        return wall, wall
    return statistics.median(_repeat(sample))


def measure_import() -> float:
    """Median in-interpreter import time of deltapoly.cli, fresh each time."""
    def sample():
        wall, out = _run_child([sys.executable, "-c", IMPORT_PROBE])
        return wall, float(out)
    return statistics.median(_repeat(sample))


class Stats:
    """Latency and outcome of every op of the passes of one phase."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.latencies: list[float] = []
        self.bits: list[int] = []
        self.attempted = 0
        self.correct = 0
        self.failures: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def run_op(op):
    """(seconds, failure reason or None, output). The op alone is timed; a
    raise or a wrong output fails the op and the run goes on."""
    t0 = time.perf_counter()
    try:
        out = op.fn()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", None
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(out), out
    except Exception as exc:  # noqa: BLE001 - malformed output is a wrong output
        return dt, f"check raised {type(exc).__name__}: {exc}", out


def measure(ops, seconds: float, size=None, after_pass=None) -> Stats:
    """Passes over ops for about `seconds`: at least one, and another only
    while a median pass still fits."""
    stats = Stats()
    t_start = time.perf_counter()
    while True:
        busy, bits = 0.0, 0
        for op in ops:
            dt, reason, out = run_op(op)
            busy += dt
            stats.latencies.append(dt)
            stats.attempted += 1
            if reason is None:
                stats.correct += 1
                bits += size(out) if size else 0
            else:
                stats.failures.setdefault(op.name, reason)
        stats.pass_s.append(busy)
        stats.bits.append(bits)
        if after_pass:
            after_pass()
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(stats.pass_s) > seconds:
            return stats


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    ix = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (ix + 1) / len(ordered), ordered[ix]


def end_to_end(stats: Stats, setup_s: float, rss_mb: float) -> dict:
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(stats.pass_s),
        "goodput_per_s": stats.correct / sum(stats.latencies),
        "op_p50_ms": 1e3 * statistics.median(stats.latencies),
        "op_tail_ms": 1e3 * tail(stats.latencies)[1],
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, traced: Stats, base: Stats, import_s: float, probe_wrong: int) -> dict:
    """Per-pass counts and self times from the spans of the traced passes."""
    k = len(traced.pass_s)
    totals = tracer.totals()

    def get(name, col):
        return totals.get(name, (0, 0.0, 0.0))[col] / k

    m = {}
    for layer in MODULE_LAYERS:
        m[f"{layer}.self_s"] = (sum(v[1] for name, v in totals.items()
                                    if name.startswith(layer + ".")) / k, "s")
    for name in CALLS:
        m[f"{name}.calls"] = (get(name, 0), "count")
    for name in SELF_S:
        m[f"{name}.self_s"] = (get(name, 1), "s")
    m["distributions.checks.self_s"] = (sum(get(name, 1) for name in CHECKS), "s")
    for name in CRITERIA:
        m[f"verify.{name}.total_s"] = (get(f"verify.{name}", 2), "s")
    evals = sum(tracer.evals.values())
    m["quadrature.integrals"] = (tracer.integrals / k, "count")
    m["quadrature.evals"] = (evals / k, "count")
    m["quadrature.evals_per_integral"] = (evals / tracer.integrals if tracer.integrals else 0.0,
                                          "count")
    for kind, n in tracer.evals.items():
        m[f"quadrature.{kind}.evals"] = (n / k, "count")
    m["quadrature.nonzero_eval_frac"] = (tracer.nonzero_evals / evals if evals else 0.0, "ratio")
    m["quadrature.errors"] = (tracer.errors / k, "count")
    m["quadrature.probe_wrong"] = (probe_wrong, "count")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead"] = (statistics.median(traced.pass_s) / statistics.median(base.pass_s),
                           "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def run_probes(probes) -> list[str]:
    """Known-defect probes, untimed and outside the op count: the failures."""
    out = []
    for op in probes:
        reason = run_op(op)[1]
        if reason is not None:
            out.append(f"{op.name}: {reason}")
    return out


def _lines(path: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(path.rglob("*.py")))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def record(args, stats: Stats, extra: dict) -> dict:
    pct, _ = tail(stats.latencies)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _lines(SRC), "tests_lines": _lines(ROOT / "tests"),
        "passes": len(stats.pass_s), "pass_s": stats.pass_s,
        "op_samples": len(stats.latencies), "op_tail_percentile": pct,
        "attempted": stats.attempted, "failed": stats.failed,
        "failed_frac": stats.failed / stats.attempted, "failing_ops": stats.failures,
        **extra,
    }


def run_workload(args) -> int:
    import deltapoly
    import workloads

    setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    extra = {"workload_info": wl.info}
    if args.trace:
        from tracer import Tracer

        import_s = measure_import()
        ops = wl.traced_ops or wl.ops
        base = measure(ops, args.seconds / 2)
        tracer = Tracer(deltapoly)
        marks = []
        tracer.install()
        try:
            stats = measure(ops, args.seconds / 2,
                            after_pass=lambda: marks.append(len(tracer.start)))
        finally:
            tracer.uninstall()
        probe_failures = run_probes(wl.probes)
        metrics = per_layer(tracer, stats, base, import_s, len(probe_failures))
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans, marks[0])
        extra["spans_file"] = str(spans.relative_to(ROOT))
        extra["untraced_pass_s"] = base.pass_s
        stats.attempted += base.attempted
        stats.correct += base.correct
        stats.failures = {**base.failures, **stats.failures}
    else:
        stats = measure(wl.ops, args.seconds, wl.size)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
        metrics = end_to_end(stats, setup_s, resource.getrusage(who).ru_maxrss / 1024)
        probe_failures = run_probes(wl.probes)
        if wl.size:
            extra["computed_bits_per_pass"] = stats.bits
    extra["probes"] = {"attempted": len(wl.probes), "wrong": probe_failures}

    rec = record(args, stats, extra)
    rec["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1) + "\n")
    for name, reason in stats.failures.items():
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    if probe_failures:
        print(f"{len(probe_failures)} of {len(wl.probes)} known-defect probes wrong "
              f"(not counted as ops), e.g. {probe_failures[0]}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:16s} {'failed_frac':48s} {rec['failed_frac']:.6g} ratio "
          f"({stats.failed} of {stats.attempted} ops)")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


def run_every_workload(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            summary[f"{name} trace={trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "deltapoly" / "__init__.py").is_file():
        print(f"error: no deltapoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_every_workload(args)
    if args.setup_only:
        import workloads

        workloads.build(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
