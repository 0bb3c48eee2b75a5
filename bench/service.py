"""The ``service_submit`` workload: one client, closed loop, against a sweep service.

The service runs in this process (``SweepService`` over a
``ResultCache``) with one ``repro worker`` subprocess.  The request is
fig6 and fig9 (in seed order).  A few fleets start in turn, each over
an empty store, and the client sends each one cold job; the last fleet
then takes a run of memoised resubmits of the same request.  Each job is
timed from just before its submit RPC to the ``ts`` of its terminal
``job.state`` event on a ``WatchClient`` feed, so no polling interval
enters the latency.

Every job must end ``done`` with an export byte-identical to an
in-process ``sweep_experiments`` of the same request; those in-process
references are also the workload's cold and warm passes.
"""

from __future__ import annotations

import queue
import shutil
import statistics
import subprocess
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from calibration import LONG_SENSITIVITY, WORKER_SENSITIVITY, Calibrated
from measure import (
    MIN_WARM_JOBS,
    ColdPass,
    Ledger,
    export_bytes,
    model_metrics,
    peak_rss_mb,
    percentile,
    warm_pass,
)
from repro.distributed import SweepClient, SweepService, WatchClient, spawn_local_worker
from repro.orchestration import ResultCache
from workloads import make_workload

#: Share of the run's measuring time spent starting fleets and their cold jobs.
SERVICE_COLD_SHARE = 0.5

#: In-process cold passes per fleet; they are the workload's ``cold_s``
#: samples (a pass is ~0.2 s) and the reference each job must match.
REFERENCE_PASSES = 3

#: One in-process warm replay (a ``warm_s`` sample) per this many service jobs.
WARM_REPLAY_EVERY = 5

TERMINAL_STATES = ("done", "failed", "cancelled")

#: Seconds a job or handshake may take before the run fails.
WAIT_TIMEOUT = 120.0


class EventFeed:
    """Collects a service's watch feed on a background thread."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.events: List[Dict] = []
        self._arrivals: "queue.Queue[Optional[Dict]]" = queue.Queue()
        self._client = WatchClient(address)
        self._thread = threading.Thread(target=self._pump, daemon=True, name="bench-watch")
        self._thread.start()

    def _pump(self) -> None:
        for event in self._client.events():
            self._arrivals.put(event)
        self._arrivals.put(None)

    def wait_for(self, matches: Callable[[Dict], bool], since: int = 0) -> Dict:
        """The first event at index ``since`` or later that ``matches``."""
        for event in self.events[since:]:
            if matches(event):
                return event
        deadline = time.monotonic() + WAIT_TIMEOUT
        while True:
            try:
                event = self._arrivals.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError("no matching service event in time") from None
            if event is None:
                raise RuntimeError("the service's event feed closed")
            self.events.append(event)
            if matches(event):
                return event

    def close(self) -> None:
        self._client.close()
        self._thread.join(timeout=10.0)


class Fleet:
    """A started service, its event feed and its one worker process."""

    def __init__(self, store_dir: Path) -> None:
        self.service = SweepService(ResultCache(store_dir))
        self.address = self.service.start()
        self.feed = EventFeed(self.address)
        self.worker = spawn_local_worker(*self.address)
        try:
            self.feed.wait_for(
                lambda event: event["kind"] == "worker.connect" and event.get("role") == "worker"
            )
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        self.service.stop()
        try:
            self.worker.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.feed.close()


def submit_and_wait(client: SweepClient, feed: EventFeed, request, spans) -> Dict:
    """One job, submit to terminal event; returns its timings and events."""
    since = len(feed.events)
    submitted = time.time()
    with spans.span("distributed.submit_rpc"):
        job = client.submit(request)
    final = feed.wait_for(
        lambda event: event["kind"] == "job.state" and event.get("job") == job
        and event.get("state") in TERMINAL_STATES,
        since,
    )
    own = [event for event in feed.events[since:] if event.get("job") == job]
    grants = [event["ts"] for event in own if event["kind"] == "lease.grant"]
    commits = [event["ts"] for event in own if event["kind"] == "point.commit"]
    return {
        "job": job,
        "state": final.get("state"),
        "latency_s": final["ts"] - submitted,
        "queue_wait_s": grants[0] - submitted if grants else None,
        "commit_to_done_s": final["ts"] - commits[-1] if commits else None,
    }


def check_job(client: SweepClient, timing: Dict, reference: bytes, scratch: Path) -> List[str]:
    if timing["state"] != "done":
        return [f"job {timing['job']} ended {timing['state']}"]
    data = client.results(timing["job"])
    if export_bytes(data, scratch / "job.json") != reference:
        return [f"job {timing['job']} export differs from the in-process sweep"]
    return []


def run_service(size: str, seed: int, seconds: float, work_dir: Path, ledger: Ledger,
                cal: Calibrated, spans=None, min_fleets: int = 3,
                min_warm_jobs: int = MIN_WARM_JOBS) -> Tuple[Dict[str, float], Dict, List[Dict]]:
    """Measure the service workload; returns its metrics, record extras and feed events.

    Each fleet (service, feed, worker) is one set-up sample and serves one
    cold job of the request into its empty store; the last fleet then
    serves the memoised resubmits.
    """
    spans = spans if spans is not None else _NoSpans()
    start = time.perf_counter()
    workload = make_workload("service_submit", size, seed)
    request = workload.request()
    timings: List[Dict] = []
    warm_s: List[float] = []
    first: Optional[ColdPass] = None
    rates: List[float] = []
    fleets = 0
    while True:
        fleet, _ = cal.measure(
            "setup_s", lambda: Fleet(work_dir / f"service-{fleets}"), LONG_SENSITIVITY
        )
        client = SweepClient(fleet.address, tenant="bench")
        try:
            for index in range(REFERENCE_PASSES):
                reference_dir = work_dir / f"reference-{fleets}-{index}"
                cold = ColdPass(workload, reference_dir, cal)
                rates.append(cold.minstr_per_s)
                reference = export_bytes(cold.data, work_dir / "reference.json")
                problems = []
                if first is None:
                    first, first_reference = cold, reference
                elif cold.digest != first.digest or reference != first_reference:
                    problems.append("in-process cold pass differs from the first one")
                ledger.record("reference_cold_pass", problems)
                if index + 1 < REFERENCE_PASSES:
                    shutil.rmtree(reference_dir)
            timing = submit_and_wait(client, fleet.feed, request, spans)
            cal.add("job_cold_s", timing["latency_s"], WORKER_SENSITIVITY)
            timings.append(dict(timing, kind="cold"))
            ledger.record("cold_job", check_job(client, timing, reference, work_dir))
        except BaseException:
            client.close()
            fleet.stop()
            raise
        fleets += 1
        if fleets >= min_fleets and time.perf_counter() - start >= SERVICE_COLD_SHARE * seconds:
            break
        client.close()
        fleet.stop()
        shutil.rmtree(reference_dir)

    try:
        while (len(cal.values("job_warm_s")) < min_warm_jobs
               or time.perf_counter() - start < seconds):
            timing = submit_and_wait(client, fleet.feed, request, spans)
            cal.add("job_warm_s", timing["latency_s"])
            timings.append(dict(timing, kind="warm"))
            ledger.record("warm_job", check_job(client, timing, reference, work_dir))
            if len(timings) % WARM_REPLAY_EVERY == 0:
                warm_s.append(warm_pass(
                    workload, reference_dir, cal, ledger, reference, work_dir, name="warm_s"
                ))
    finally:
        client.close()
        fleet.stop()

    jobs = cal.values("job_warm_s")
    metrics = {
        "setup_s": cal.median("setup_s"),
        "cold_s": cal.median("cold_s"),
        "warm_s": statistics.median(warm_s),
        "sim_minstr_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "job_cold_s.p50": cal.median("job_cold_s"),
        "job_warm_s.p50": statistics.median(jobs),
        "job_warm_s.p90": percentile(jobs, 0.9),
    }
    metrics.update(model_metrics(workload, first.data, first.results, first.store))
    extra = {"jobs": timings, "warm_job_samples": len(jobs)}
    return metrics, {"service": extra}, list(fleet.feed.events)


class _NoSpans:
    def span(self, name: str):
        return nullcontext()
