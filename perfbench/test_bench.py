"""The benchmark's own test, on the short ``--smoke`` horizons (about a minute).

    python3 -m pytest perfbench/test_bench.py -q

It checks the result contract, that the exact counts repeat between two
traced runs and match the seed commit's values, and that the benchmark
refuses to run where the kslab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Seed-commit values: FFTs per ETD-RK2 step (3D, 2D) and, per CLI monitor
# sample at k=3 with 8 lattice centers plus the argmax, the moment,
# gradient and cutoff_phi calls and the FFTs behind them.
FFT_PER_STEP = {"headline3d": 19, "monitor2d": 15, "sweep2d": 15}
PER_SAMPLE = {"moment_per_sample": 36, "gradient_per_sample": 30,
              "cutoff_phi_per_sample": 36, "fft_per_sample": 103}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return result, lines


def _counts(lines: list[str]) -> dict:
    line = next(x for x in lines if x.strip().startswith("counts "))
    return json.loads(line.strip()[len("counts "):])


@pytest.mark.parametrize("workload", ["headline3d", "monitor2d", "sweep2d"])
def test_end_to_end_metrics(workload):
    result, lines = _result(_bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(x.strip().startswith("failed_frac") for x in lines)


@pytest.mark.parametrize("workload", ["headline3d", "monitor2d", "sweep2d"])
def test_exact_counts_repeat(workload):
    first, lines_a = _result(_bench(workload, 1))
    _, lines_b = _result(_bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = _counts(lines_a)
    assert counts == _counts(lines_b)
    assert counts["fft_per_step"] == FFT_PER_STEP[workload]
    assert counts["steps"] > 0 and counts["stepper_builds"] > 0
    if workload != "headline3d":
        assert {k: counts[k] for k in PER_SAMPLE} == PER_SAMPLE


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("monitor2d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
