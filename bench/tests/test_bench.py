"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root (they are not part of the tier-1 suite):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

_RUNS: Dict[Tuple[str, int, int], Dict] = {}


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int, run: int = 0) -> Dict:
    """The parsed last stdout line of a tiny run (each run made once)."""
    key = (workload, trace, run)
    if key not in _RUNS:
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def check_summary(summary: Dict, declared) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in summary["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    summary = result(workload, trace=0)
    check_summary(summary, SPEC["end_to_end"])
    for name, metric in summary["metrics"].items():
        assert metric["value"] != 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_model_metrics_repeat_exactly(workload):
    first = result(workload, trace=0, run=0)["metrics"]
    second = result(workload, trace=0, run=1)["metrics"]
    model = [name for name in first if name.startswith("model.")]
    assert len(model) == 5
    assert {name: first[name] for name in model} == {name: second[name] for name in model}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    summary = result(workload, trace=1)
    check_summary(summary, SPEC["per_layer"])
    rejects = summary["metrics"]["controller.queue_rejects_per_kcycle"]["value"]
    if workload == "rng_saturated":
        assert rejects > 0
    else:
        assert rejects == 0
    leases = summary["metrics"]["distributed.lease_grants"]["value"]
    assert (leases > 0) == (workload == "service_submit")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("dualcore_rng", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
