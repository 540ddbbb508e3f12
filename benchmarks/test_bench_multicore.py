"""Benchmark + scaling gates for the multicore sharded engine (PR 8).

This module records the multicore trajectory of the vectorized engine and
enforces the sharding acceptance floors:

1. **Scaling floors**: on a 100k-trial ``PurePeriodicCkpt`` sweep point,
   ``ShardedVectorizedExecutor`` must beat the serial vectorized engine by
   at least 1.7x with 2 workers and 3x with 4 workers.  The gates skip on
   machines with fewer cores than workers (``os.cpu_count()``) -- a 1-core
   container cannot demonstrate scaling -- but the trajectory below is
   written regardless so under-provisioned runs are still visible as data.
2. **Bit-identity under sharding**: the gated runs double as correctness
   checks -- every sharded table is compared ``==`` to the serial table.
3. **Trace-replay vectorization**: the trace law must run through the
   vectorized engine with no ``backend='auto'`` obstacle and beat the
   per-trial event replay by at least 3x on the sweep point.

The trajectory -- per-worker-count seconds and speedups over the serial
vectorized run, plus the trace law's event/vectorized rates -- is written
to the git-ignored ``.bench_build/BENCH_PR8.json`` (path overridable via
``REPRO_BENCH_PR8_PATH``) and uploaded by the CI bench job as a workflow
artifact.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the event-backend reference
timings; the sharded scaling cell stays at 100k trials because the floors
are defined on that cell and the vectorized engine clears it in seconds.

Run with::

    pytest benchmarks/test_bench_multicore.py -q
    REPRO_BENCH_QUICK=1 pytest benchmarks/test_bench_multicore.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import ShardedVectorizedExecutor
from repro.core.protocols import PurePeriodicCkptSimulator
from repro.core.registry import resolve_protocol
from repro.failures import TraceFailureModel
from repro.simulation.rng import RandomStreams
from repro.simulation.vectorized import (
    VectorizedPhasedSimulator,
    vectorized_backend_obstacle,
)
from repro.utils import DAY, MINUTE

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
#: The scaling cell the acceptance floors are defined on.  Not shrunk in
#: quick mode: the floors are meaningless on a smaller cell (per-shard
#: fixed costs dominate) and the serial run clears it in a few seconds.
SHARD_TRIALS = 100_000
SEED = 2014
WORKER_COUNTS = (1, 2, 4, 8)
#: speedup floors over the serial vectorized engine, per worker count.
SCALING_FLOORS = {2: 1.7, 4: 3.0}
TRAJECTORY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_PR8_PATH",
        Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_PR8.json",
    )
)


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8)


def _engine() -> VectorizedPhasedSimulator:
    return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        _parameters(), _workload()
    )


def _trace_model() -> TraceFailureModel:
    # Interarrivals around the 2-hour MTBF with recorded-log burstiness.
    return TraceFailureModel([900.0, 5200.0, 1700.0, 12000.0, 400.0, 8100.0])


def _time_serial(engine, trials: int) -> float:
    start = time.perf_counter()
    engine.run_trials(trials, seed=SEED)
    return time.perf_counter() - start


def _time_sharded(engine, trials: int, workers: int) -> float:
    executor = ShardedVectorizedExecutor(workers=workers)
    start = time.perf_counter()
    executor.run(engine, runs=trials, seed=SEED)
    return time.perf_counter() - start


# --------------------------------------------------------------------- #
# Gate 1: scaling floors on the 100k-trial cell (with bit-identity).
# --------------------------------------------------------------------- #
@pytest.mark.perf
@pytest.mark.parametrize("workers", sorted(SCALING_FLOORS))
def test_sharded_speedup_floor(workers):
    cores = os.cpu_count() or 1
    if cores < workers:
        pytest.skip(
            f"machine has {cores} cores; cannot demonstrate {workers}-worker "
            "scaling"
        )
    engine = _engine()
    # The gated run doubles as a correctness check on the real pool.
    serial_table = engine.run_trials(SHARD_TRIALS, seed=SEED)
    sharded_table = ShardedVectorizedExecutor(workers=workers).run(
        engine, runs=SHARD_TRIALS, seed=SEED
    )
    assert sharded_table == serial_table
    serial_seconds = min(_time_serial(engine, SHARD_TRIALS) for _ in range(3))
    sharded_seconds = min(
        _time_sharded(engine, SHARD_TRIALS, workers) for _ in range(3)
    )
    speedup = serial_seconds / sharded_seconds
    floor = SCALING_FLOORS[workers]
    print(
        f"\nsharded sweep point ({SHARD_TRIALS} trials, {workers} workers): "
        f"serial {serial_seconds:.2f}s, sharded {sharded_seconds:.2f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= floor, (
        f"{workers}-worker sharded run is only {speedup:.2f}x faster than "
        f"the serial vectorized engine on a {SHARD_TRIALS}-trial sweep point "
        f"(acceptance floor: {floor:.1f}x)"
    )


# --------------------------------------------------------------------- #
# Gate 2: trace replay runs vectorized -- no obstacle, and a real win.
# --------------------------------------------------------------------- #
def test_trace_law_vectorizes_without_obstacle():
    obstacle = vectorized_backend_obstacle(
        "PurePeriodicCkpt", "trace", type(_trace_model())
    )
    assert obstacle is None, obstacle


def test_trace_vectorized_beats_event_replay():
    parameters = _parameters()
    workload = _workload()
    model = _trace_model()
    event_runs = 150 if QUICK else 400
    simulator = PurePeriodicCkptSimulator(
        parameters, workload, failure_model=model
    )
    streams = RandomStreams(SEED)
    start = time.perf_counter()
    for trial in range(event_runs):
        simulator.simulate(streams.generator_for_trial(trial))
    event_seconds = time.perf_counter() - start
    engine = resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        parameters, workload, failure_model=model
    )
    vectorized_trials = 2000 if QUICK else 10000
    start = time.perf_counter()
    engine.run_trials(vectorized_trials, seed=SEED)
    vectorized_seconds = time.perf_counter() - start
    event_rate = event_runs / event_seconds
    vectorized_rate = vectorized_trials / vectorized_seconds
    ratio = vectorized_rate / event_rate
    print(
        f"\ntrace replay: event {event_rate:.0f} trials/s, vectorized "
        f"{vectorized_rate:.0f} trials/s, ratio {ratio:.1f}x"
    )
    assert ratio >= 3.0, (
        f"vectorized trace replay is only {ratio:.1f}x the event replay "
        "(acceptance floor: 3x)"
    )


# --------------------------------------------------------------------- #
# Trajectory: per-worker scaling curve + trace ratio -> BENCH_PR8.json.
# --------------------------------------------------------------------- #
def test_write_multicore_trajectory():
    engine = _engine()
    serial_seconds = min(_time_serial(engine, SHARD_TRIALS) for _ in range(2))
    curve = {}
    for workers in WORKER_COUNTS:
        sharded_seconds = min(
            _time_sharded(engine, SHARD_TRIALS, workers) for _ in range(2)
        )
        curve[str(workers)] = {
            "seconds": round(sharded_seconds, 3),
            "speedup_vs_serial_vectorized": round(
                serial_seconds / sharded_seconds, 2
            ),
        }

    parameters = _parameters()
    workload = _workload()
    model = _trace_model()
    event_runs = 150 if QUICK else 400
    simulator = PurePeriodicCkptSimulator(
        parameters, workload, failure_model=model
    )
    streams = RandomStreams(SEED)
    start = time.perf_counter()
    for trial in range(event_runs):
        simulator.simulate(streams.generator_for_trial(trial))
    event_seconds = time.perf_counter() - start
    trace_engine = resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        parameters, workload, failure_model=model
    )
    vectorized_trials = 2000 if QUICK else 10000
    start = time.perf_counter()
    trace_engine.run_trials(vectorized_trials, seed=SEED)
    vectorized_seconds = time.perf_counter() - start
    event_rate = event_runs / event_seconds
    vectorized_rate = vectorized_trials / vectorized_seconds

    payload = {
        "description": (
            "Multicore trajectory of the sharded vectorized engine: seconds "
            "and speedup over the serial vectorized run per worker count on "
            "the 100k-trial PurePeriodicCkpt sweep point, plus the trace "
            "replay law's event vs vectorized rates. Written by "
            "benchmarks/test_bench_multicore.py and uploaded by the CI "
            "bench job as a workflow artifact. Interpret the curve against "
            "cpu_count: counts above the core count measure oversubscription."
        ),
        "quick_mode": QUICK,
        "cpu_count": os.cpu_count(),
        "shard_trials": SHARD_TRIALS,
        "seed": SEED,
        "serial_vectorized_seconds": round(serial_seconds, 3),
        "workers": curve,
        "trace_replay": {
            "event_trials_per_sec": round(event_rate, 1),
            "vectorized_trials_per_sec": round(vectorized_rate, 1),
            "speedup": round(vectorized_rate / event_rate, 2),
        },
    }
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRAJECTORY_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nmulticore trajectory written to {TRAJECTORY_PATH}")


# --------------------------------------------------------------------- #
# BENCH trajectory: absolute sharded timing tracked by pytest-benchmark.
# --------------------------------------------------------------------- #
def test_bench_sharded_engine(benchmark):
    engine = _engine()
    executor = ShardedVectorizedExecutor(workers="auto")
    table = benchmark.pedantic(
        executor.run,
        args=(engine,),
        kwargs={"runs": SHARD_TRIALS, "seed": SEED},
        iterations=1,
        rounds=2,
    )
    assert table.runs == SHARD_TRIALS
