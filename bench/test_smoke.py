"""Smoke test of the benchmark: every workload briefly, in both modes.

    python -m pytest bench/test_smoke.py

Checks that each metric BENCHMARK.json names is printed with its unit, that
the verdict shares show the checker's known state, and that the per-layer
counts repeat exactly on the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("lexer.tokens", "parser.annotations", "translate.viper_nodes",
          "permcheck.methods", "permcheck.cap_hits", "permcheck.errors",
          "permcheck.obligations", "permcheck.norm_calls",
          "permcheck.decide_calls", "viper_ast.vpr_bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT,
          seed: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench(workload, trace, seed=seed)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    return out["metrics"]


def assert_named(metrics: dict, spec: list) -> None:
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in metrics.items()}


# Seed-state answers: queue.ml's 7 false alarms make 1 of paper's 5
# verdicts wrong, and branchy files with K >= 6 hit the 32-path cap.
EXPECTED = {
    "paper": (0.8, 1.0),
    "module": (1.0, 1.0),
    "branchy": (1.0, 9 / 21),
    "wide": (1.0, 1.0),
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end(workload):
    metrics = result(workload, 0)
    assert_named(metrics, SPEC["end_to_end"])
    ok, complete = EXPECTED[workload]
    assert metrics["verdict_ok_share"]["value"] == pytest.approx(ok)
    assert metrics["complete_share"]["value"] == pytest.approx(complete)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer(workload):
    metrics = result(workload, 1)
    assert_named(metrics, SPEC["per_layer"])
    capped = metrics["permcheck.cap_hits"]["value"]
    assert (capped > 0) == (workload == "branchy")


def test_branchy_caps_the_same_files_on_another_seed():
    metrics = result("branchy", 0, seed=21)
    assert metrics["complete_share"]["value"] == pytest.approx(9 / 21)


def test_counts_repeat_on_the_same_seed():
    first, second = result("paper", 1, seed=7), result("paper", 1, seed=7)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
