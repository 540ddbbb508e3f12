"""Benchmark gate for the storage axis (PR 10): lowering must be free.

The storage axis lowers every ``CheckpointStorage`` stack into effective
scalar ``(C, R)`` inside ``ResilienceParameters`` -- once, at construction
time -- so the engines never see the stack.  This module enforces that
contract on the clock:

1. **Overhead gate**: a 100k-trial vectorized sweep point whose parameters
   were lowered from a multi-level storage stack must run within 10% of the
   identical sweep point built from flat scalars equal to the stack's own
   lowered costs.  Anything slower means storage objects leaked into the
   hot path.
2. **Bit-identity**: the gated runs double as correctness checks -- the
   storage-lowered table is compared ``==`` to the flat-scalar table, and
   the sharded process-pool run is compared ``==`` to the serial run (the
   transport pickles storage-carrying parameters).

The measured cell -- seconds per side, the ratio, and the lowered costs --
is written to the git-ignored ``.bench_build/BENCH_STORAGE.json`` (path
overridable via ``REPRO_BENCH_STORAGE_PATH``) and uploaded by the CI bench
job as a workflow artifact.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the cell to 20k trials; the
10% gate still holds there because both sides shrink together.

Run with::

    pytest benchmarks/test_bench_storage.py -q
    REPRO_BENCH_QUICK=1 pytest benchmarks/test_bench_storage.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import ShardedVectorizedExecutor
from repro.checkpointing import (
    LocalStorage,
    MultiLevelStorage,
    RemoteFileSystemStorage,
    StorageStack,
)
from repro.core.registry import resolve_protocol
from repro.simulation.vectorized import VectorizedPhasedSimulator
from repro.utils import DAY, GB, MINUTE, TB

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
TRIALS = 20_000 if QUICK else 100_000
SEED = 2014
#: storage-lowered parameters may cost at most 10% over flat scalars.
OVERHEAD_CEILING = 1.10
TRAJECTORY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_STORAGE_PATH",
        Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_STORAGE.json",
    )
)


def _storage_stack() -> StorageStack:
    storage = MultiLevelStorage(
        LocalStorage(node_write_bandwidth=5 * GB),
        RemoteFileSystemStorage(write_bandwidth=100 * GB),
        remote_fraction=0.25,
        remote_read_fraction=0.25,
    )
    return StorageStack(storage, data_bytes=64 * TB, node_count=1000)


def _storage_parameters() -> ResilienceParameters:
    return ResilienceParameters.from_storage(
        platform_mtbf=120 * MINUTE,
        storage=_storage_stack(),
        downtime=60.0,
        library_fraction=0.8,
    )


def _flat_parameters(lowered: ResilienceParameters) -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=lowered.full_checkpoint,
        recovery=lowered.full_recovery,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8)


def _engine(parameters: ResilienceParameters) -> VectorizedPhasedSimulator:
    return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        parameters, _workload()
    )


def _time_run(engine, trials: int) -> float:
    start = time.perf_counter()
    engine.run_trials(trials, seed=SEED)
    return time.perf_counter() - start


def _measure() -> dict:
    storage_params = _storage_parameters()
    flat_params = _flat_parameters(storage_params)
    storage_engine = _engine(storage_params)
    flat_engine = _engine(flat_params)
    # Bit-identity first (and warm-up): both sides produce the same table.
    storage_table = storage_engine.run_trials(TRIALS, seed=SEED)
    flat_table = flat_engine.run_trials(TRIALS, seed=SEED)
    assert storage_table == flat_table
    # Pair the timed runs round for round so machine drift cancels: the
    # gated ratio is the best storage/flat ratio of any round, which only
    # stays above the ceiling if storage is *consistently* slower.
    flat_times, storage_times = [], []
    for _ in range(5):
        flat_times.append(_time_run(flat_engine, TRIALS))
        storage_times.append(_time_run(storage_engine, TRIALS))
    ratio = min(s / f for f, s in zip(flat_times, storage_times))
    flat_seconds = min(flat_times)
    storage_seconds = min(storage_times)
    return {
        "trials": TRIALS,
        "flat_seconds": flat_seconds,
        "storage_seconds": storage_seconds,
        "ratio": ratio,
        "lowered_checkpoint_seconds": storage_params.full_checkpoint,
        "lowered_recovery_seconds": storage_params.full_recovery,
    }


# --------------------------------------------------------------------- #
# Gate: lowered storage runs within 10% of flat scalars, bit-identically.
# --------------------------------------------------------------------- #
@pytest.mark.perf
def test_storage_cell_within_flat_overhead_ceiling():
    cell = _measure()
    print(
        f"\nstorage cell ({cell['trials']} trials): flat "
        f"{cell['flat_seconds']:.2f}s, storage-lowered "
        f"{cell['storage_seconds']:.2f}s, ratio {cell['ratio']:.3f}x"
    )
    assert cell["ratio"] <= OVERHEAD_CEILING, (
        f"storage-lowered parameters cost {cell['ratio']:.2f}x the flat "
        f"baseline on a {cell['trials']}-trial sweep point (ceiling: "
        f"{OVERHEAD_CEILING:.2f}x); storage objects are leaking into the "
        "hot path"
    )

    payload = {
        "description": (
            "Storage-axis overhead cell: seconds for a PurePeriodicCkpt "
            "vectorized sweep point with parameters lowered from a "
            "multi-level storage stack vs the identical point built from "
            "flat scalars, plus the lowered (C, R). The gate fails above a "
            "1.10x ratio. Written by benchmarks/test_bench_storage.py and "
            "uploaded by the CI bench job as a workflow artifact."
        ),
        "quick_mode": QUICK,
        "seed": SEED,
        "overhead_ceiling": OVERHEAD_CEILING,
        "trials": cell["trials"],
        "flat_seconds": round(cell["flat_seconds"], 3),
        "storage_seconds": round(cell["storage_seconds"], 3),
        "ratio": round(cell["ratio"], 3),
        "lowered_checkpoint_seconds": round(
            cell["lowered_checkpoint_seconds"], 3
        ),
        "lowered_recovery_seconds": round(cell["lowered_recovery_seconds"], 3),
    }
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRAJECTORY_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"storage overhead cell written to {TRAJECTORY_PATH}")


def test_storage_cell_shards_bit_identically():
    engine = _engine(_storage_parameters())
    runs = 5_000 if QUICK else 20_000
    serial = engine.run_trials(runs, seed=SEED)
    sharded = ShardedVectorizedExecutor(workers=2).run(
        engine, runs=runs, seed=SEED
    )
    assert sharded == serial


# --------------------------------------------------------------------- #
# BENCH trajectory: absolute storage-lowered timing via pytest-benchmark.
# --------------------------------------------------------------------- #
def test_bench_storage_lowered_engine(benchmark):
    engine = _engine(_storage_parameters())
    table = benchmark.pedantic(
        engine.run_trials,
        args=(TRIALS,),
        kwargs={"seed": SEED},
        iterations=1,
        rounds=2,
    )
    assert table.runs == TRIALS
