"""End-to-end measurement of the local workloads (untraced runs).

One run, for ``seconds`` of measuring:

1. set-up, repeated: plan every point and build its ``System``;
2. cold passes, repeated: the request into an empty ``ResultCache``,
   each followed by a warm replay of the same request, figure by figure,
   through a fresh ``ResultCache`` over the store the pass filled;
3. more warm replays, until there are enough memoised jobs for a p90
   with at least ten samples beyond it.

Every repetition sits between calibration brackets (see
:mod:`calibration`).  Every pass is checked: the warm export must be
byte-identical to the cold one, and the per-point results and model
metrics must repeat exactly across the run's cold passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from calibration import LONG_SENSITIVITY, Calibrated
from repro import telemetry
from repro.orchestration import ResultCache, dump_json, result_to_dict
from workloads import build_systems

#: Memoised jobs needed so that at least ten samples lie beyond the p90.
MIN_WARM_JOBS = 110

#: Shares of the run's measuring time given to each phase.
SETUP_SHARE = 0.1
COLD_SHARE = 0.65


class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, operation: str, problems: Sequence[str] = ()) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{operation}: {problem}" for problem in problems)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: at least ``1 - share`` of samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def export_bytes(data: Dict, path: Path) -> bytes:
    """The bytes ``repro``'s JSON export writes for ``data``."""
    dump_json(data, path)
    return path.read_bytes()


def results_of(store: ResultCache, keys: Sequence[str]) -> Dict[str, object]:
    results = {}
    for key in keys:
        result = store.get(key)
        if result is None:
            raise RuntimeError(f"point {key[:12]} missing from the store after its pass")
        results[key] = result
    return results


def results_digest(results: Dict[str, object]) -> str:
    digest = hashlib.sha256()
    for key in sorted(results):
        digest.update(key.encode())
        digest.update(json.dumps(result_to_dict(results[key]), sort_keys=True).encode())
    return digest.hexdigest()


def model_metrics(workload, data: Dict, results: Dict[str, object], store) -> Dict[str, float]:
    """Simulated (exact) metrics: totals over the points, gains from the data."""
    cycles = sum(results[key].total_cycles for key in sorted(results))
    instructions = sum(core.instructions for key in sorted(results) for core in results[key].cores)
    core_cycles = sum(core.cycles for key in sorted(results) for core in results[key].cores)
    non_rng, rng, fairness = workload.gains(data, store)
    return {
        "model.sim_cycles": float(cycles),
        "model.ipc": instructions / core_cycles,
        "model.non_rng_gain_pct": non_rng,
        "model.rng_gain_pct": rng,
        "model.fairness_gain_pct": fairness,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdPass:
    """One cold pass: its data, point results, export and simulator rate."""

    def __init__(self, workload, store_dir: Path, cal: Calibrated, name: str = "cold_s") -> None:
        store = ResultCache(store_dir)
        with telemetry.isolated() as registry:
            (data, keys), _ = cal.measure(
                name, lambda: workload.cold(store), LONG_SENSITIVITY
            )
            snapshot = registry.snapshot()
        self.counters = snapshot["counters"]
        run_seconds = snapshot["timers"]["sim.run_seconds"]["total"]
        self.data = data
        self.store = store
        self.results = results_of(store, keys)
        self.digest = results_digest(self.results)
        instructions = sum(
            core.instructions for result in self.results.values() for core in result.cores
        )
        # The simulator's own seconds, normalised like the pass's.
        rep = cal.reps[name][-1]
        self.minstr_per_s = instructions / (run_seconds * rep["value"] / rep["raw_s"]) / 1e6


def warm_pass(workload, store_dir: Path, cal: Calibrated, ledger: Ledger, cold_export: bytes,
              scratch: Path, name: str = "job_warm_s") -> float:
    """Replay the request job by job through one fresh store; return its seconds."""
    store = ResultCache(store_dir)
    data: Dict[str, Dict] = {}
    total = 0.0
    for label, job in workload.warm_jobs(store):
        data[label], seconds = cal.measure(name, job)
        total += seconds
    problems = []
    if store.misses:
        problems.append(f"{store.misses} store misses in a warm replay")
    if export_bytes(data, scratch / "warm.json") != cold_export:
        problems.append("warm export differs from the cold export")
    ledger.record("warm_pass", problems)
    return total


def run_local(workload, seconds: float, work_dir: Path, ledger: Ledger,
              cal: Calibrated) -> Dict[str, float]:
    """Measure one local workload; returns its end-to-end metrics."""
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    while True:
        cal.measure("setup_s", lambda: build_systems(workload.plan()))
        ledger.record("setup")
        if len(cal.values("setup_s")) >= 3 and elapsed() >= SETUP_SHARE * seconds:
            break

    warm_s: List[float] = []
    rates: List[float] = []
    first: Optional[ColdPass] = None
    first_model: Dict[str, float] = {}
    passes = 0
    while True:
        store_dir = work_dir / f"store-{passes}"
        cold = ColdPass(workload, store_dir, cal)
        passes += 1
        rates.append(cold.minstr_per_s)
        export = export_bytes(cold.data, work_dir / "cold.json")
        model = model_metrics(workload, cold.data, cold.results, cold.store)
        problems = []
        if first is None:
            first, first_model, first_export = cold, model, export
        else:
            if cold.digest != first.digest:
                problems.append("per-point results differ from the first cold pass")
            if model != first_model:
                problems.append("model metrics differ from the first cold pass")
            if export != first_export:
                problems.append("cold export differs from the first cold pass")
            shutil.rmtree(work_dir / f"store-{passes - 2}")
        ledger.record("cold_pass", problems)
        warm_s.append(warm_pass(workload, store_dir, cal, ledger, export, work_dir))
        if passes >= 2 and elapsed() >= (SETUP_SHARE + COLD_SHARE) * seconds:
            break

    while len(cal.values("job_warm_s")) < MIN_WARM_JOBS or elapsed() < seconds:
        warm_s.append(warm_pass(workload, store_dir, cal, ledger, first_export, work_dir))

    jobs = cal.values("job_warm_s")
    metrics = {
        "setup_s": cal.median("setup_s"),
        "cold_s": cal.median("cold_s"),
        "warm_s": statistics.median(warm_s),
        "sim_minstr_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        # A local request is one job: its cold pass is the cold job.
        "job_cold_s.p50": cal.median("cold_s"),
        "job_warm_s.p50": statistics.median(jobs),
        "job_warm_s.p90": percentile(jobs, 0.9),
    }
    metrics.update(first_model)
    return metrics
