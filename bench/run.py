"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload dualcore_rng --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the benchmark imports
``repro`` from ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the traced procedure and prints the per-layer
metrics.  The run record (every repetition's raw seconds, calibration
score and normalised value, plus the traced run's spans) is written to
``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("dualcore_rng", "multicore_dense", "service_submit", "rng_saturated")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    os.chdir(ROOT)
    started = time.perf_counter()

    from calibration import REFERENCE_LOOP_S, Calibrated
    from measure import Ledger, run_local
    from service import run_service
    from tracing import run_traced
    from workloads import make_workload

    imports_s = time.perf_counter() - started
    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    ledger = Ledger()
    cal = Calibrated()
    extra: dict = {}
    try:
        if args.trace:
            metrics, extra = run_traced(
                args.workload, args.size, args.seed, args.seconds, work_dir, ledger, cal
            )
        elif args.workload == "service_submit":
            metrics, extra, _ = run_service(
                args.size, args.seed, args.seconds, work_dir, ledger, cal
            )
        else:
            workload = make_workload(args.workload, args.size, args.seed)
            metrics = run_local(workload, args.seconds, work_dir, ledger, cal)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = sorted(metric["name"] for metric in declared)
    if sorted(metrics) != names:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    units = {metric["name"]: metric["unit"] for metric in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "imports_s": imports_s,
        "wall_s": time.perf_counter() - started,
        "reference_loop_s": REFERENCE_LOOP_S,
        "repetitions": cal.reps,
        "failures": ledger.failures,
        "metrics": metrics,
    }
    record.update(extra)
    records = work_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in ledger.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)

    summary = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
