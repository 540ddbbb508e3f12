"""Property tests: serial/parallel Monte-Carlo seed-equivalence.

The campaign executor's contract is that for a given root seed the parallel
path reproduces the serial :func:`run_monte_carlo` *exactly* -- bit-identical
summary statistics for any worker count.  These tests assert
``==`` on every field of the summaries, never approximate equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import ParallelMonteCarloExecutor, ShardedVectorizedExecutor
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    PurePeriodicCkptSimulator,
)
from repro.simulation import run_monte_carlo
from repro.simulation.trace import ExecutionTrace, TimeBreakdown
from repro.utils import HOUR, MINUTE
from repro import ApplicationWorkload, ResilienceParameters


def _toy_simulation(rng: np.random.Generator) -> ExecutionTrace:
    """Toy stochastic run (module-level so process pools can pickle it)."""
    extra = float(rng.exponential(25.0))
    return ExecutionTrace(
        protocol="toy",
        application_time=100.0,
        makespan=100.0 + extra,
        failure_count=int(extra > 25.0),
        breakdown=TimeBreakdown(useful_work=100.0, lost_work=extra),
    )


def _paper_simulator(protocol_cls):
    params = ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )
    workload = ApplicationWorkload.single_epoch(24 * HOUR, 0.8, library_fraction=0.8)
    return protocol_cls(params, workload)


def _assert_identical(serial, parallel):
    """Every aggregate field must match exactly -- no tolerance."""
    assert parallel.protocol == serial.protocol
    assert parallel.runs == serial.runs
    assert parallel.application_time == serial.application_time
    for name in ("waste", "makespan", "failures"):
        a = getattr(serial, name)
        b = getattr(parallel, name)
        assert b == a, f"{name} summaries differ: {a} vs {b}"


class TestSeedEquivalence:
    """Random (seed, runs, workers) draws: parallel == serial exactly."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        runs=st.integers(min_value=1, max_value=60),
        workers=st.integers(min_value=1, max_value=9),
    )
    def test_serial_backend_bit_identical(self, seed, runs, workers, inline_pool):
        serial = run_monte_carlo(_toy_simulation, runs=runs, seed=seed)
        executor = ParallelMonteCarloExecutor(workers=workers)
        with inline_pool():
            parallel = executor.run(_toy_simulation, runs=runs, seed=seed)
        _assert_identical(serial, parallel)
        assert parallel.table == serial.table

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_process_backend_bit_identical(self, workers):
        serial = run_monte_carlo(_toy_simulation, runs=50, seed=20140527)
        parallel = ParallelMonteCarloExecutor(workers=workers).run(
            _toy_simulation, runs=50, seed=20140527
        )
        _assert_identical(serial, parallel)

    @pytest.mark.parametrize(
        "protocol_cls",
        [PurePeriodicCkptSimulator, BiPeriodicCkptSimulator, AbftPeriodicCkptSimulator],
        ids=lambda cls: cls.__name__,
    )
    def test_protocol_simulators_bit_identical(self, protocol_cls):
        simulator = _paper_simulator(protocol_cls)
        serial = run_monte_carlo(simulator.simulate_once, runs=30, seed=42)
        parallel = ParallelMonteCarloExecutor(workers=3).run(
            simulator.simulate_once, runs=30, seed=42
        )
        _assert_identical(serial, parallel)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        workers=st.integers(min_value=2, max_value=4),
    )
    def test_traces_preserved_in_trial_order(self, seed, workers, inline_pool):
        # The sharded table's rows follow the kept traces in trial order.
        serial = run_monte_carlo(
            _toy_simulation, runs=20, seed=seed, keep_traces=True
        )
        with inline_pool():
            parallel = ParallelMonteCarloExecutor(workers=workers).run(
                _toy_simulation, runs=20, seed=seed
            )
        assert parallel.table.data["makespan"].tolist() == [
            t.makespan for t in serial.traces
        ]

    def test_different_seeds_still_differ(self, inline_pool):
        executor = ParallelMonteCarloExecutor(workers=2)
        with inline_pool():
            a = executor.run(_toy_simulation, runs=40, seed=1)
            b = executor.run(_toy_simulation, runs=40, seed=2)
        assert a.mean_waste != b.mean_waste


class TestChunking:
    @settings(max_examples=25, deadline=None)
    @given(
        runs=st.integers(min_value=1, max_value=500),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_chunks_partition_the_trial_range(self, runs, workers):
        executor = ShardedVectorizedExecutor(workers=workers)
        chunks = executor.shard_ranges(runs)
        covered = [i for start, stop in chunks for i in range(start, stop)]
        assert covered == list(range(runs))
