"""Pinned pure-Python calibration loop and calibrated repetition timing.

The host's speed drifts within and between processes on small shared
VMs (wall time tracks process CPU time, so it is not steal or waiting).
Every timed repetition is therefore bracketed by a fixed pure-Python
loop, and host-time metrics are reported as seconds at the loop's
reference speed:

    normalised = raw_seconds * (REFERENCE_LOOP_S / loop_seconds) ** sensitivity

where ``loop_seconds`` is the mean of the brackets before and after the
repetition.  Raw seconds, the bracket score and the normalised value of
every repetition go to the run record.

The sensitivities are measured: each is the one that gave the smallest
run-to-run spread (IQR over median of five runs' medians per workload)
on the reference host.

* Short repetitions in this process (set-ups, warm replays, memoised
  jobs) run at the speed a bracket measures: full correction cut the
  spread of set-ups from 25-54% raw to 6-8%.
* A cold pass lasts seconds, longer than the host's speed swings, and
  sees their average.  Spreads of ``cold_s`` for dualcore, multicore,
  saturated and service: 9/6/19/12% at 0.5, 6/5/12/12% at 0.75,
  8/12/8/16% at 1.0.  The service's set-up, half of it spent spawning
  the worker process, also does best at 0.75 (8-19% against 10-30% raw
  and 11-30% at 1.0 over two batches).
* The service's cold jobs are dominated by the worker process's
  simulation and its lease-poll timer, which this process's loop does
  not see: 2-4% spread raw, 13-26% at 1.0.

Each metric's sensitivity is fixed by what it times, never by a measured
duration, so a change that makes a pass faster cannot move it to another
basis.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

#: Median seconds of one :func:`calibration_loop` on the reference host
#: (2 vCPU Intel Xeon VM, CPython 3.11.7; pooled over 13 processes).  A
#: host that runs the loop in half this time reports short repetitions at
#: twice their raw seconds, so figures from different machines compare.
REFERENCE_LOOP_S = 0.0014

#: Iterations of the pinned loop body; 1-1.8 ms on the reference host.
LOOP_ITERATIONS = 4000

#: Loops per bracket; the bracket score is their median, which discards
#: the odd interrupted or turbo-boosted loop.
LOOPS_PER_BRACKET = 5

#: How strongly a repetition's seconds follow the loop's speed (see above).
SHORT_SENSITIVITY = 1.0
LONG_SENSITIVITY = 0.75
WORKER_SENSITIVITY = 0.0


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """Fixed integer, dict and list work in the interpreter's common opcodes."""
    acc = 0
    table: Dict[int, int] = {}
    items: List[int] = []
    for i in range(iterations):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        slot = acc & 63
        table[slot] = table.get(slot, 0) + 1
        if acc & 3:
            items.append(slot)
        elif items:
            items.pop()
    return acc + len(items)


def bracket_score() -> float:
    """Median seconds of one pinned loop, measured now."""
    samples = []
    for _ in range(LOOPS_PER_BRACKET):
        start = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def normalisation(loop_seconds: float, sensitivity: float = SHORT_SENSITIVITY) -> float:
    """Factor turning raw host seconds into seconds at the reference speed."""
    return (REFERENCE_LOOP_S / loop_seconds) ** sensitivity


class Calibrated:
    """Times repetitions between calibration brackets.

    Consecutive repetitions share a bracket: the loop after one is the
    loop before the next, so N repetitions cost N + 1 brackets.
    """

    def __init__(self) -> None:
        self.reps: Dict[str, List[Dict[str, float]]] = {}
        self._last = bracket_score()

    def measure(self, name: str, fn: Callable[[], object],
                sensitivity: float = SHORT_SENSITIVITY) -> Tuple[object, float]:
        """Run ``fn`` once; return its result and its normalised seconds."""
        start = time.perf_counter()
        result = fn()
        return result, self.add(name, time.perf_counter() - start, sensitivity)

    def add(self, name: str, raw: float, sensitivity: float = SHORT_SENSITIVITY) -> float:
        """Record a duration measured since the latest bracket; return it normalised."""
        before = self._last
        self._last = bracket_score()
        score = (before + self._last) / 2
        value = raw * normalisation(score, sensitivity)
        self.reps.setdefault(name, []).append({"raw_s": raw, "loop_s": score, "value": value})
        return value

    def values(self, name: str) -> List[float]:
        return [rep["value"] for rep in self.reps.get(name, [])]

    def median(self, name: str) -> float:
        return statistics.median(self.values(name))

    def scores(self) -> List[float]:
        return [rep["loop_s"] for reps in self.reps.values() for rep in reps]
