"""The repo's benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, run from the root of a checkout.

A run repeats whole rounds of its workload for ``--seconds`` seconds of
measurement, checks the program's outputs against independent references,
and prints one JSON line last::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with all
instrumentation off.  ``--trace 1`` spends half the time on untraced rounds
and half on traced ones, and reports the per-layer metrics of the traced
rounds (see README.md).  The full run record -- machine block, seed,
per-operation counts, every check -- is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

import advisor
import batch
from common import OUT, BenchError, machine_block, require_program

WORKLOADS = {
    "mc-cell": batch.McCell,
    "regime-map-mc": batch.RegimeMapMc,
    "figure7-validate": batch.Figure7Validate,
    "advisor-replay": advisor.AdvisorReplay,
}


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with (OUT.parent / "BENCHMARK.json").open() as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, traced: bool, first_index: int) -> int:
    """Whole rounds for about ``seconds``: at least one, and no further
    round once another as long as the last would end past ``seconds`` by
    over 10%."""
    index = first_index
    began = time.monotonic()
    while True:
        started = time.monotonic()
        workload.round(index, traced)
        index += 1
        finished = time.monotonic()
        if finished - began + (finished - started) > 1.1 * seconds:
            return index


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    units = metric_units(args.trace)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Read before a workload narrows this process's CPU affinity.
    machine = machine_block()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        index = measure(workload, args.seconds / 2, False, 0)
        measure(workload, args.seconds / 2, True, index)
    else:
        measure(workload, args.seconds, False, 0)
    workload.probe_setups()
    workload.check()
    checks = workload.checks

    figures = workload.per_layer() if args.trace else workload.end_to_end()
    metrics = {
        name: {"value": float(figures.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": checks.correct and workload.ops.failed == 0,
        "attempted": workload.ops.attempted,
        "failed": workload.ops.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "operations": workload.ops.counts,
        "rounds": workload.describe(),
        "checks": checks.results,
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"perfbench: run record written to {record_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    # Unwind through the workloads' cleanup, which stops their servers.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
