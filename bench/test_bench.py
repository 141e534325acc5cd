"""Smoke test of the benchmark itself: BENCHMARK.json is well formed, every
workload runs once in each mode and prints the result line BENCHMARK.json
describes, and a directory without the sources makes the benchmark fail.

    python3 -m pytest bench/test_bench.py

It takes about a minute; verify-all alone needs one full pass.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1].startswith("bench/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / SPEC["command"][1]), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert m["value"] > 0 or trace


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
