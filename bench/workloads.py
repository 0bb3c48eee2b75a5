"""The benchmark's workloads, each driven through ``repro``'s public entry points.

A workload is a request (the experiments or design comparison it runs)
plus the three things the benchmark does with it:

* ``plan`` — enumerate the simulation points without simulating,
* ``cold`` — run the request into a result store that may be empty,
* ``warm_jobs`` — replay the request job by job from a filled store.

The seed only orders the request's experiments (for ``rng_saturated``
it also seeds trace generation), so the work a run measures is the same
for every seed of the sweep workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.controller.config import ControllerConfig
from repro.orchestration import (
    CacheServingBackend,
    PlanningBackend,
    ResultCache,
    SimulationUnit,
    SweepRequest,
    installed_backend,
    plan_experiment,
    sweep_experiments,
)
from repro.sim import System, baseline_config, compare_designs, drstrange_config
from repro.sim.runner import AloneRunCache
from repro.workloads.mixes import four_core_group_mixes, multi_core_group_mixes
from repro.workloads.spec import WorkloadMix, standard_rng_benchmark
from repro.workloads.suites import applications_by_category

#: One job of a warm replay: its label and a call returning its data dict.
Job = Tuple[str, Callable[[], Dict]]


def _average(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _pct(gain: float) -> float:
    return 100.0 * gain


@dataclass
class SweepWorkload:
    """A set of paper figures run through ``sweep_experiments``."""

    name: str
    experiments: Tuple[str, ...]
    instructions: int
    run_kwargs: Dict = field(default_factory=dict)
    seed: int = 0

    @property
    def order(self) -> Tuple[str, ...]:
        order = list(self.experiments)
        random.Random(self.seed).shuffle(order)
        return tuple(order)

    def request(self) -> SweepRequest:
        return SweepRequest(experiments=self.order, instructions=self.instructions)

    def plan(self) -> Dict[str, SimulationUnit]:
        units: Dict[str, SimulationUnit] = {}
        for label in self.order:
            for unit in plan_experiment(
                label, label=label, instructions=self.instructions, **self.run_kwargs
            ):
                units.setdefault(unit.key, unit)
        return units

    def cold(self, store: ResultCache) -> Tuple[Dict, List[str]]:
        result = sweep_experiments(self.request(), store=store, **self.run_kwargs)
        return dict(result), sorted(result.stats.points)

    def warm_jobs(self, store: ResultCache) -> List[Job]:
        """One memoised job per figure, all through the same fresh store."""

        def job(label: str) -> Dict:
            result = sweep_experiments(
                SweepRequest(experiments=(label,), instructions=self.instructions),
                store=store,
                **self.run_kwargs,
            )
            return result[label]

        return [(label, lambda label=label: job(label)) for label in self.order]

    def gains(self, data: Dict, store: ResultCache) -> Tuple[float, float, float]:
        """(non-RNG, RNG, fairness) gain of DR-STRaNGe over RNG-oblivious, in %."""
        raise NotImplementedError


class DualCoreWorkload(SweepWorkload):
    def gains(self, data: Dict, store: ResultCache) -> Tuple[float, float, float]:
        fig6 = data["fig6"]["improvements"]
        return (
            _pct(fig6["non_rng_improvement"]),
            _pct(fig6["rng_improvement"]),
            _pct(data["fig9"]["fairness_improvement_vs_baseline"]),
        )


class MultiCoreWorkload(SweepWorkload):
    def gains(self, data: Dict, store: ResultCache) -> Tuple[float, float, float]:
        rows = data["fig7"]["four_core_groups"] + data["fig7"]["multi_core_groups"]
        non_rng = _average([row["normalized_weighted_speedup"]["dr-strange"] for row in rows]) - 1
        rng_rows = data["fig8"]["four_core_groups"] + data["fig8"]["multi_core_groups"]
        rng = 1 - _average([row["rng_slowdown"]["dr-strange"] for row in rng_rows]) / _average(
            [row["rng_slowdown"]["rng-oblivious"] for row in rng_rows]
        )
        # Figures 7 and 8 report no fairness; evaluate fig7's own mixes
        # from the filled store (every point is a store hit).
        per_group = self.run_kwargs["workloads_per_group"]
        groups = dict(four_core_group_mixes(workloads_per_group=per_group))
        groups.update(multi_core_group_mixes(8, workloads_per_group=per_group))
        configs = {"rng-oblivious": baseline_config(), "dr-strange": drstrange_config()}
        unfairness: Dict[str, List[float]] = {label: [] for label in configs}
        with installed_backend(CacheServingBackend(store)):
            for mixes in groups.values():
                for mix in mixes:
                    evaluations = compare_designs(
                        mix, configs, instructions=self.instructions, cache=AloneRunCache()
                    )
                    for label, evaluation in evaluations.items():
                        unfairness[label].append(evaluation.unfairness)
        fairness = 1 - _average(unfairness["dr-strange"]) / _average(unfairness["rng-oblivious"])
        return _pct(non_rng), _pct(rng), _pct(fairness)


@dataclass
class SaturatedWorkload:
    """RNG demand above what the TRNG channels serve, behind shallow queues.

    Each mix is four 20 Gb/s RNG cores beside two memory-intensive
    applications, with read and RNG queues of four entries, under
    RNG-oblivious and DR-STRaNGe.  No paper figure reaches the RNG
    subsystem's retry path; these mixes do on every cycle of contention.

    The seed orders the mixes.  Their traces have fixed seeds: under
    saturation the simulated work moves with the traces (seeded traces
    changed the request's simulated cycles by up to 57% between run seeds), and
    a run's seed must not change how much work it measures.
    """

    name: str
    instructions: int
    seed: int = 0
    mixes: int = 2
    queue_capacity: int = 4
    rng_cores: int = 4
    rng_mbps: float = 20_000.0

    @property
    def order(self) -> Tuple[str, ...]:
        labels = [f"mix{index}" for index in range(self.mixes)]
        random.Random(self.seed).shuffle(labels)
        return tuple(labels)

    def _mix(self, label: str) -> WorkloadMix:
        index = int(label[len("mix"):])
        apps = applications_by_category()["H"][2 * index:2 * index + 2]
        rng = [standard_rng_benchmark(self.rng_mbps)] * self.rng_cores
        return WorkloadMix(name=label, slots=list(apps) + rng)

    def _configs(self) -> Dict:
        controller = ControllerConfig(
            read_queue_capacity=self.queue_capacity, rng_queue_capacity=self.queue_capacity
        )
        return {
            "rng-oblivious": baseline_config(controller=controller),
            "dr-strange": drstrange_config(controller=controller),
        }

    def _evaluate(self, label: str) -> Dict:
        evaluations = compare_designs(
            self._mix(label), self._configs(), instructions=self.instructions,
            seed=int(label[len("mix"):]), cache=AloneRunCache(),
        )
        return {
            design: {
                "non_rng_slowdown": evaluation.non_rng_slowdown,
                "rng_slowdown": evaluation.rng_slowdown,
                "unfairness": evaluation.unfairness,
                "buffer_serve_rate": evaluation.buffer_serve_rate,
                "total_cycles": evaluation.result.total_cycles,
            }
            for design, evaluation in evaluations.items()
        }

    def plan(self) -> Dict[str, SimulationUnit]:
        backend = PlanningBackend(label=self.name)
        with installed_backend(backend):
            for label in self.order:
                self._evaluate(label)
        return dict(backend.units)

    def cold(self, store: ResultCache) -> Tuple[Dict, List[str]]:
        backend = CacheServingBackend(store)
        with installed_backend(backend):
            data = {self.name: {label: self._evaluate(label) for label in self.order}}
        return data, sorted(backend.points)

    def warm_jobs(self, store: ResultCache) -> List[Job]:
        """The whole comparison is one memoised job (a mix alone is a few ms)."""

        def job() -> Dict:
            with installed_backend(CacheServingBackend(store)):
                return {label: self._evaluate(label) for label in self.order}

        return [(self.name, job)]

    def gains(self, data: Dict, store: ResultCache) -> Tuple[float, float, float]:
        mixes = data[self.name]

        def mean(design: str, key: str) -> float:
            return _average([mixes[label][design][key] for label in sorted(mixes)])

        return tuple(
            _pct(1 - mean("dr-strange", key) / mean("rng-oblivious", key))
            for key in ("non_rng_slowdown", "rng_slowdown", "unfairness")
        )


def build_systems(units: Dict[str, SimulationUnit]) -> List[System]:
    """``System`` construction for every planned point (the rest of set-up)."""
    return [System(unit.traces, unit.config) for unit in units.values()]


#: Per-size parameters: ``full`` is what the benchmark measures; ``tiny``
#: keeps the benchmark's own tests to seconds.
SIZES = {
    "full": {"dual": 12_000, "multi": 10_000, "saturated": 4_000, "service": 10_000},
    "tiny": {"dual": 2_000, "multi": 2_000, "saturated": 1_000, "service": 2_000},
}


def make_workload(name: str, size: str, seed: int):
    sizes = SIZES[size]
    if name == "dualcore_rng":
        return DualCoreWorkload(
            name, ("fig6", "fig9", "fig10", "fig11", "fig12", "fig13"), sizes["dual"],
            seed=seed,
        )
    if name == "multicore_dense":
        return MultiCoreWorkload(
            name, ("fig7", "fig8", "fig18"), sizes["multi"],
            {"workloads_per_group": 1, "categories": ("M", "H")}, seed=seed,
        )
    if name == "rng_saturated":
        return SaturatedWorkload(name, sizes["saturated"], seed=seed)
    if name == "service_submit":
        # The service's request; fig9 reuses every fig6 point.
        return DualCoreWorkload(name, ("fig6", "fig9"), sizes["service"], seed=seed)
    raise KeyError(name)
