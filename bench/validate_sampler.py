"""Compare the layer sampler's split with cProfile's on a dualcore_rng cold pass.

    python3 bench/validate_sampler.py [--seed N]

Runs the workload's cold pass twice into empty stores: once under
:class:`tracing.LayerSampler`, once under ``cProfile``.  cProfile's self
time of a function outside ``repro`` (a builtin, the standard library,
numpy) is charged to its callers in proportion to the time each caller
spent in it, recursively, which is the sampler's innermost-``repro``-frame
rule.  Prints each layer's share under both and the largest difference.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from repro.orchestration import ResultCache  # noqa: E402
from tracing import LAYERS, LayerSampler  # noqa: E402
from workloads import make_workload  # noqa: E402


def shares(seconds: Dict[str, float]) -> Dict[str, float]:
    total = sum(seconds.values())
    return {layer: seconds.get(layer, 0.0) / total for layer in LAYERS}


def timed_cold(workload, store_dir: Path) -> float:
    start = time.perf_counter()
    workload.cold(ResultCache(store_dir))
    return time.perf_counter() - start


def sampler_split(workload, store_dir: Path) -> Tuple[Dict[str, float], float]:
    sampler = LayerSampler()
    sampler.start()
    try:
        seconds = timed_cold(workload, store_dir)
    finally:
        sampler.stop()
    return shares(sampler.cpu_s), seconds


def cprofile_split(workload, store_dir: Path) -> Tuple[Dict[str, float], float]:
    profile = cProfile.Profile()
    profile.enable()
    seconds = timed_cold(workload, store_dir)
    profile.disable()
    stats = pstats.Stats(profile).stats
    classify = LayerSampler()._classify
    memo: Dict[tuple, Dict[str, float]] = {}

    def split(func, seen=frozenset()) -> Dict[str, float]:
        """The layers ``func``'s self time belongs to, as fractions."""
        layer = classify(func[0])
        if layer:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if caller in stats and caller not in seen}
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, fraction in split(caller, seen | {func}).items():
                out[name] = out.get(name, 0.0) + fraction * weight / total
        memo[func] = out
        return out

    layer_seconds: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, fraction in split(func).items():
            layer_seconds[layer] = layer_seconds.get(layer, 0.0) + tottime * fraction
    return shares(layer_seconds), seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = make_workload("dualcore_rng", "full", args.seed)
    work_root = BENCH_DIR.parent / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as scratch:
        plain = timed_cold(workload, Path(scratch) / "plain")
        sampled, sampled_s = sampler_split(workload, Path(scratch) / "sampled")
        profiled, profiled_s = cprofile_split(workload, Path(scratch) / "profiled")
    print(f"cold pass: {plain:.2f} s plain, {sampled_s:.2f} s sampled, "
          f"{profiled_s:.2f} s under cProfile")
    print(f"{'layer':<14} {'sampler %':>10} {'cProfile %':>11}")
    for layer in LAYERS:
        print(f"{layer:<14} {100 * sampled[layer]:>10.1f} {100 * profiled[layer]:>11.1f}")
    worst = max(LAYERS, key=lambda layer: abs(sampled[layer] - profiled[layer]))
    print(f"largest difference: {worst}, "
          f"{100 * abs(sampled[worst] - profiled[worst]):.1f} percentage points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
