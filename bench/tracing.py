"""Traced runs: per-layer metrics from spans, a sampler and engine counters.

Three sources, none of them inside the program:

* spans the benchmark records around its own calls into each layer
  (plan, ``System`` build, ``System.run``, store puts and gets, the
  warm replay, service submits), kept in memory and written to the run
  record at the end;
* :class:`LayerSampler`, a thread that reads ``sys._current_frames()``
  and charges each thread's CPU time since the last sample to the
  innermost ``repro.<package>`` frame on its stack;
* the engine's own phase counters, switched on by ``telemetry.profiled()``.

Counts come from the ``SimulationResult``s and the ``System``s of the
planned points.  ``telemetry.trace_overhead_s`` is the traced cold pass
minus an untraced cold pass of the same request in the same run.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from calibration import LONG_SENSITIVITY, SHORT_SENSITIVITY, Calibrated, normalisation
from measure import ColdPass, Ledger, results_digest
from repro import telemetry
from repro.orchestration import ResultCache
from service import run_service
from workloads import build_systems, make_workload

#: Layers the sampler charges: ``repro``'s packages, with the engine
#: split out of ``sim``; ``other`` is everything outside them.
LAYERS = (
    "controller", "core", "cpu", "distributed", "dram", "energy", "experiments",
    "metrics", "orchestration", "sched", "sim", "sim.engine", "telemetry", "trng",
    "workloads", "other",
)

#: Warm service jobs in a traced run (the untraced run measures latency).
TRACED_WARM_JOBS = 20


class Spans:
    """Spans recorded around the benchmark's calls into each layer."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index]["end"] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"] for span in self.records if span["name"] == name]


class LayerSampler:
    """Charges every thread's CPU time to the layer of its innermost ``repro`` frame.

    The sampler can only look when the running thread yields the GIL: at a
    forced switch, or early when it releases the GIL itself (hashing, file
    I/O).  Each sample charges the CPU time since the previous one, so a
    long gap between samples would charge a simulation's time to the
    hashing call that ended it.  While sampling, the switch interval is
    therefore cut to ``interval`` so that every sample covers little CPU.
    """

    def __init__(self, interval: float = 0.0005) -> None:
        self.interval = interval
        self.cpu_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0
        self._root = str(Path(repro.__file__).resolve().parent) + os.sep
        self._layers: Dict[object, str] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name="bench-sampler")
        self._clock: Dict[int, float] = {}
        self._switch_interval = sys.getswitchinterval()

    def _classify(self, filename: str) -> str:
        if not filename.startswith(self._root):
            return ""
        parts = filename[len(self._root):].split(os.sep)
        if len(parts) == 1:
            return "other"
        if parts[:2] == ["sim", "engine.py"]:
            return "sim.engine"
        return parts[0]

    def layer_of(self, frame) -> str:
        while frame is not None:
            code = frame.f_code
            layer = self._layers.get(code)
            if layer is None:
                layer = self._layers[code] = self._classify(code.co_filename)
            if layer:
                return layer
            frame = frame.f_back
        return "other"

    @staticmethod
    def _thread_cpu(ident: int) -> Optional[float]:
        try:
            return time.clock_gettime(time.pthread_getcpuclockid(ident))
        except (OSError, ValueError):
            return None

    def start(self) -> None:
        for ident in sys._current_frames():
            now = self._thread_cpu(ident)
            if now is not None:
                self._clock[ident] = now
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.interval)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            self.samples += 1
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                now = self._thread_cpu(ident)
                if now is None:
                    continue
                before = self._clock.get(ident, 0.0)
                # A thread created since the last sample starts at zero;
                # a smaller reading means a new thread reused the ident.
                delta = now - before if now >= before else now
                self._clock[ident] = now
                if delta > 0:
                    self.cpu_s[self.layer_of(frame)] += delta


def _phase(name: str, fn, spans: Spans, cal: Calibrated,
           sensitivity: float = SHORT_SENSITIVITY):
    with spans.span(name):
        result, _ = cal.measure(name, fn, sensitivity)
    return result


def traced_request(workload, work_dir: Path, ledger: Ledger, cal: Calibrated,
                   spans: Spans) -> Dict[str, float]:
    """Plan, build, run, store, read back, cold pass and replay one request."""
    units = _phase("orchestration.plan", workload.plan, spans, cal)
    systems = _phase("sim.build", lambda: build_systems(units), spans, cal)
    with telemetry.isolated() as registry:
        results = _phase(
            "sim.run",
            lambda: {key: system.run() for key, system in zip(units, systems)},
            spans, cal, LONG_SENSITIVITY,
        )
        counters = registry.snapshot()["counters"]
    put_store = ResultCache(work_dir / "traced-put")
    _phase(
        "orchestration.cache_put",
        lambda: [put_store.put(key, results[key], units[key].figure) for key in results],
        spans, cal,
    )
    get_store = ResultCache(work_dir / "traced-put")
    read = _phase(
        "orchestration.cache_get", lambda: {key: get_store.get(key) for key in results},
        spans, cal,
    )
    with spans.span("cold"):
        cold = ColdPass(workload, work_dir / "traced-cold", cal, name="cold_traced")
    replay_store = ResultCache(work_dir / "traced-cold")
    with telemetry.isolated() as registry:
        with spans.span("experiments.replay"):
            for _, job in workload.warm_jobs(replay_store):
                cal.measure("experiments.replay", job)
        reused = registry.snapshot()["counters"].get("cache.hits", 0)

    problems = []
    if results_digest(read) != results_digest(results):
        problems.append("results read back from the store differ from the simulated ones")
    unplanned = set(cold.results) - set(results)
    if unplanned:
        problems.append(f"the cold pass ran {len(unplanned)} points planning missed")
    elif results_digest(cold.results) != results_digest({k: results[k] for k in cold.results}):
        problems.append("the traced cold pass differs from the directly run systems")
    if replay_store.misses:
        problems.append(f"{replay_store.misses} store misses in the traced replay")
    ledger.record("traced_request", problems)

    cycles = sum(result.total_cycles for result in results.values())
    cores = [core for result in results.values() for core in result.cores]
    rng_cores = [core for core in cores if core.is_rng]
    channels = [channel for result in results.values() for channel in result.channels]
    rejects = sum(
        queue.rejected
        for system in systems for controller in system.controllers
        for queue in (controller.read_queue, controller.write_queue, controller.rng_queue)
        if queue is not None
    )
    dram = [system.dram.total_stats() for system in systems]
    accesses = sum(stats.row_hits + stats.row_closed + stats.row_conflicts for stats in dram)
    predicted = [r for r in results.values() if r.predictor_accuracy is not None]
    predictions = sum(r.predictor_predictions for r in predicted)
    rng_requests = sum(r.rng_requests for r in results.values())
    dispatches = counters.get("engine.profile.dispatch_iterations", 0)

    run_s = cal.median("sim.run")
    return {
        "orchestration.plan_s": cal.median("orchestration.plan"),
        "sim.build_s": cal.median("sim.build"),
        "sim.run_s": run_s,
        "sim.ns_per_cycle": run_s / cycles * 1e9,
        "sim.dispatch_per_kcycle": dispatches / cycles * 1000,
        "sim.single_step_share": (
            counters.get("engine.profile.single_steps", 0) / dispatches if dispatches else 0.0
        ),
        "sim.serve_batches": float(counters.get("engine.profile.serve_batches", 0)),
        "controller.busy_share": (
            sum(c.busy_cycles + c.rng_mode_cycles for c in channels)
            / sum(c.total_cycles for c in channels)
        ),
        "controller.queue_rejects_per_kcycle": rejects / cycles * 1000,
        "dram.row_hit_rate": sum(stats.row_hits for stats in dram) / accesses,
        "cpu.memory_stall_share": (
            sum(c.memory_stall_cycles for c in cores) / sum(c.cycles for c in cores)
        ),
        "core.rng_stall_share": (
            sum(c.rng_stall_cycles for c in rng_cores) / sum(c.cycles for c in rng_cores)
            if rng_cores else 0.0
        ),
        "core.buffer_serve_rate": (
            sum(r.buffer_serves for r in results.values()) / rng_requests
            if rng_requests else 0.0
        ),
        "core.predictor_accuracy": (
            sum(r.predictor_accuracy * r.predictor_predictions for r in predicted) / predictions
            if predictions else 0.0
        ),
        "orchestration.cache_put_s": cal.median("orchestration.cache_put"),
        "orchestration.cache_get_s": cal.median("orchestration.cache_get"),
        "orchestration.points_planned": float(len(units)),
        "orchestration.points_executed": float(cold.counters.get("sim.runs", 0)),
        "orchestration.points_reused": float(reused),
        "orchestration.cache_bytes": float(ResultCache(work_dir / "traced-cold").stats()
                                           ["total_bytes"]),
        "experiments.replay_s": sum(cal.values("experiments.replay")),
    }


def overhead_pair(workload, work_dir: Path, cal: Calibrated, index: int) -> None:
    """One untraced and one traced cold pass of the request."""
    ColdPass(workload, work_dir / f"untraced-{index}", cal, name="cold_untraced")
    sampler = LayerSampler()
    sampler.start()
    try:
        with telemetry.profiled():
            ColdPass(workload, work_dir / f"traced-{index}", cal, name="cold_traced")
    finally:
        sampler.stop()


def run_traced(name: str, size: str, seed: int, seconds: float, work_dir: Path,
               ledger: Ledger, cal: Calibrated) -> Tuple[Dict[str, float], Dict]:
    """The traced run of one workload; returns its per-layer metrics and record extras."""
    started = time.perf_counter()
    workload = make_workload(name, size, seed)
    # Untraced reference for the overhead, before the sampler starts.
    ColdPass(workload, work_dir / "untraced-cold", cal, name="cold_untraced")

    spans = Spans()
    sampler = LayerSampler()
    sampler.start()
    sampling = time.perf_counter()
    try:
        with telemetry.profiled():
            metrics = traced_request(workload, work_dir, ledger, cal, spans)
        jobs: List[Dict] = []
        events: List[Dict] = []
        if name == "service_submit":
            with spans.span("service"):
                _, extra, events = run_service(
                    size, seed, 0.0, work_dir, ledger, cal, spans=spans,
                    min_fleets=1, min_warm_jobs=TRACED_WARM_JOBS,
                )
            jobs = extra["service"]["jobs"]
    finally:
        sampler.stop()
    sampled_s = time.perf_counter() - sampling
    # More overhead pairs while the run has time: the overhead is a small
    # difference of two noisy cold passes.
    pairs = 0
    while time.perf_counter() - started < seconds:
        overhead_pair(workload, work_dir, cal, pairs)
        pairs += 1

    # Host seconds at reference speed, scaled by the run's median bracket.
    scale = normalisation(statistics.median(cal.scores()), LONG_SENSITIVITY)
    for layer, cpu in sampler.cpu_s.items():
        metrics[f"{layer}.self_s"] = cpu * scale
    metrics["telemetry.trace_overhead_s"] = (
        cal.median("cold_traced") - cal.median("cold_untraced")
    )
    metrics.update(distributed_metrics(spans, jobs, events, scale))
    extra = {
        "spans": spans.records,
        "sampler": {"samples": sampler.samples, "seconds": sampled_s, "cpu_s": sampler.cpu_s},
        "overhead_pairs": pairs + 1,
    }
    return metrics, extra


def distributed_metrics(spans: Spans, jobs: List[Dict], events: List[Dict],
                        scale: float) -> Dict[str, float]:
    """Service-side latencies of the cold jobs and counts from the watch feed."""

    def median_of(values: List[float]) -> float:
        return statistics.median(values) * scale if values else 0.0

    cold = [job for job in jobs if job["kind"] == "cold"]
    return {
        "distributed.submit_rpc_s": median_of(spans.durations("distributed.submit_rpc")),
        "distributed.queue_wait_s": median_of(
            [job["queue_wait_s"] for job in cold if job["queue_wait_s"] is not None]
        ),
        "distributed.commit_to_done_s": median_of(
            [job["commit_to_done_s"] for job in cold if job["commit_to_done_s"] is not None]
        ),
        "distributed.lease_grants": float(sum(e["kind"] == "lease.grant" for e in events)),
        "distributed.requeues": float(sum(e["kind"] == "point.requeue" for e in events)),
    }
