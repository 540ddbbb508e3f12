"""Batches of campaigns on one pool: ``ShardedVectorizedExecutor.run_many``.

A batch with at least as many campaigns as workers runs each campaign
whole in one worker; a smaller batch cuts each campaign into contiguous
shards.  Either way every campaign's table must equal its own serial
``run_trial_range(0, runs, seed)`` with ``==``, the whole batch must start
one process pool, and that pool's workers must be gone when the batch ends
-- also when a unit raises or the caller stops early.
"""

from __future__ import annotations

import contextlib
import multiprocessing

import pytest

import repro.obs as obs
from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import SweepCache, SweepJob, SweepRunner
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.core.registry import resolve_protocol
from repro.failures import ExponentialFailureModel, TraceFailureModel
from repro.optimize import RegimeMapSpec, compute_regime_map
from repro.simulation.vectorized import VectorizedPhasedSimulator
from repro.utils import DAY, HOUR, MINUTE, YEAR

MTBF = 45 * MINUTE
TRACE = (1500.0, 4100.0, 900.0, 7300.0, 2600.0, 3300.0)


@pytest.fixture(autouse=True)
def metrics_on():
    """Count pool starts; leave the process's instrumentation as found."""
    was_enabled, was_tracing = obs.enabled(), obs.tracing()
    obs.reset()
    obs.configure(metrics=True)
    yield
    obs.configure(trace=was_tracing, metrics=was_enabled)
    obs.reset()


def _pool_starts() -> float:
    return obs.catalog.family("repro_executor_pool_starts_total").value()


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=MTBF,
        checkpoint=10 * MINUTE,
        recovery=1 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _engine(protocol: str, kind: str, law: str):
    entry = resolve_protocol(protocol)
    cls = entry.vectorized_cls if kind == "vectorized" else entry.simulator_cls
    model = (
        ExponentialFailureModel(MTBF) if law == "exponential" else TraceFailureModel(TRACE)
    )
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    return cls(_parameters(), workload, failure_model=model, max_slowdown=4.0)


#: Event and vectorized engines, exponential and trace laws, campaigns
#: both smaller and larger than every worker count tested.
MIXED = (
    (_engine("PurePeriodicCkpt", "vectorized", "exponential"), 17, 3),
    (_engine("BiPeriodicCkpt", "event", "trace"), 1, 4),
    (_engine("ABFT&PeriodicCkpt", "vectorized", "trace"), 2, 5),
    (_engine("PurePeriodicCkpt", "event", "exponential"), 9, None),
    (_engine("ABFT&PeriodicCkpt", "event", "exponential"), 23, 6),
    (_engine("BiPeriodicCkpt", "vectorized", "exponential"), 5, 7),
)


def _own_tables(batch):
    return [engine.run_trial_range(0, runs, seed) for engine, runs, seed in batch]


# "serial" runs the same plan with every unit in this process (the
# in-process pool stand-in), "process" on real worker processes.
@pytest.mark.parametrize("pool", ["serial", "process"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, len(MIXED)])
def test_run_many_equals_each_campaigns_own_trial_range(
    pool, workers, size, inline_pool
):
    batch = [c for c in MIXED[:size] if c[2] is not None]
    executor = ShardedVectorizedExecutor(workers=workers)
    with inline_pool() if pool == "serial" else contextlib.nullcontext():
        assert list(executor.run_many(batch)) == _own_tables(batch)
    assert multiprocessing.active_children() == []


def test_unseeded_campaigns_keep_their_shape(inline_pool):
    engine, runs, _ = MIXED[0]
    executor = ShardedVectorizedExecutor(workers=2)
    with inline_pool():
        [table] = executor.run_many([(engine, runs, None)])
    assert table.runs == runs


class TestPlan:
    def test_batches_at_least_as_large_as_the_pool_run_campaigns_whole(self):
        executor = ShardedVectorizedExecutor(workers=2)
        assert executor.shard_ranges(1000, campaigns=136) == [(0, 1000)]
        assert executor.shard_ranges(1000, campaigns=2) == [(0, 1000)]

    def test_smaller_batches_cut_each_campaign_to_fill_the_pool(self):
        executor = ShardedVectorizedExecutor(workers=4)
        assert executor.shard_ranges(10, campaigns=3) == [(0, 5), (5, 10)]
        assert executor.shard_ranges(10) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert executor.shard_ranges(1, campaigns=2) == [(0, 1)]

    def test_one_pool_per_batch(self):
        executor = ShardedVectorizedExecutor(workers=2)
        batch = [c for c in MIXED if c[2] is not None]
        list(executor.run_many(batch))
        assert _pool_starts() == 1.0
        list(executor.run_many([]))
        ShardedVectorizedExecutor(workers=1).run(MIXED[0][0], runs=9, seed=1)
        assert _pool_starts() == 1.0

    def test_invalid_campaigns_fail_before_any_work(self):
        executor = ShardedVectorizedExecutor(workers=2)
        with pytest.raises(ValueError, match="runs"):
            executor.run_many([(MIXED[0][0], 3, 1), (MIXED[0][0], 0, 1)])
        assert _pool_starts() == 0.0


class TestInFlight:
    @pytest.fixture(autouse=True)
    def pools(self, inline_pool):
        with inline_pool() as pool_cls:
            yield pool_cls

    def test_never_more_than_twice_the_pool_in_flight(self, pools):
        engine = MIXED[0][0]
        batch = [(engine, 4, seed) for seed in range(11)]
        executor = ShardedVectorizedExecutor(workers=2)
        tables = executor.run_many(batch)
        first = next(tables)
        [pool] = pools.made
        assert pool.max_workers == 2
        assert pool.in_flight <= 2 * 2
        assert [first, *tables] == _own_tables(batch)
        assert pool.peak == 2 * 2
        assert pool.shut_down

    def test_lone_campaign_shards_stay_bounded(self, pools):
        engine = MIXED[4][0]
        executor = ShardedVectorizedExecutor(workers=3)
        assert executor.run(engine, runs=23, seed=6) == engine.run_trial_range(0, 23, 6)
        [pool] = pools.made
        assert pool.peak == 3
        assert pool.shut_down

    def test_closing_early_shuts_the_pool_down(self, pools):
        engine = MIXED[0][0]
        tables = ShardedVectorizedExecutor(workers=2).run_many(
            [(engine, 4, seed) for seed in range(9)]
        )
        next(tables)
        tables.close()
        [pool] = pools.made
        assert pool.shut_down


def test_closing_early_joins_the_workers():
    engine = MIXED[0][0]
    tables = ShardedVectorizedExecutor(workers=2).run_many(
        [(engine, 40, seed) for seed in range(8)]
    )
    assert next(tables) == engine.run_trial_range(0, 40, 0)
    tables.close()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------- #
# Callers hand their campaigns over in one batch
# ---------------------------------------------------------------------- #
def _map_spec(**changes) -> RegimeMapSpec:
    fields = dict(
        node_counts=(1_000, 100_000),
        node_mtbf_values=(5 * YEAR, 125 * YEAR),
        checkpoint_costs=(10 * MINUTE,),
        abft_overheads=(1.03,),
        application_time=1 * DAY,
        simulate=True,
        simulation_runs=12,
        seed=2014,
        backend="auto",
    )
    fields.update(changes)
    return RegimeMapSpec(**fields)


def test_regime_map_starts_one_pool_and_matches_one_worker(tmp_path):
    spec = _map_spec()
    sharded = compute_regime_map(spec, workers=2, cache_dir=tmp_path / "two")
    assert _pool_starts() == 1.0
    assert multiprocessing.active_children() == []
    serial = compute_regime_map(spec, workers=1, cache_dir=tmp_path / "one")
    assert _pool_starts() == 1.0
    assert sharded.to_json() == serial.to_json()
    resumed = compute_regime_map(spec, workers=2, cache_dir=tmp_path / "two")
    assert resumed.computed_cells == 0
    assert _pool_starts() == 1.0  # nothing to simulate, no pool


def test_sweep_starts_one_pool_and_leaves_no_workers(tmp_path):
    job = SweepJob(
        parameters=_parameters(),
        application_time=2 * HOUR,
        mtbf_values=(MTBF, 2 * MTBF),
        alpha_values=(0.5, 0.8),
        simulate=True,
        simulation_runs=10,
        seed=11,
        backend="auto",
    )
    pooled = SweepRunner(workers=2).run(job)
    assert _pool_starts() == 1.0
    assert multiprocessing.active_children() == []
    assert pooled.points == SweepRunner(workers=1).run(job).points


def test_failing_campaign_keeps_finished_cells_and_leaves_no_workers(
    tmp_path, monkeypatch
):
    spec = _map_spec(protocols=("PurePeriodicCkpt",), backend="vectorized")
    coordinates = list(spec.coordinates())
    doomed = spec.parameters_at(*coordinates[2]).platform_mtbf
    original = VectorizedPhasedSimulator.run_trial_range

    def run_trial_range(self, start, stop, seed=None):
        if self._model.mtbf == doomed:
            raise RuntimeError("campaign failed")
        return original(self, start, stop, seed)

    # Pool workers are forked after the patch, so they run it too.
    monkeypatch.setattr(VectorizedPhasedSimulator, "run_trial_range", run_trial_range)
    with pytest.raises(RuntimeError, match="campaign failed"):
        compute_regime_map(spec, workers=2, cache_dir=tmp_path)
    assert _pool_starts() == 1.0
    assert multiprocessing.active_children() == []
    cache = SweepCache(tmp_path)
    stored = [cache.load(spec.cell_key(*coords)) is not None for coords in coordinates]
    assert stored == [True, True, False, False]
