"""The benchmark's own quick test.

Runs every workload at a tiny size, untraced and traced, and checks that
each run is correct and prints exactly the metrics ``BENCHMARK.json``
names; then checks that a checkout without the program's sources fails
loudly instead of printing a result.

Run from the root of a checkout: ``python3 -m pytest e2ebench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("paper-suite", "layout-search", "serve-mixed")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    if trace == "0":
        assert all(0 < m["value"] < float("inf") for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_missing_program_sources_fail_loudly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        tmp_path, "--workload", "paper-suite", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert "program sources missing" in proc.stderr
    assert not proc.stdout.strip()
