"""Unit tests for the campaign subsystem (executor, cache, sweep runner)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import (
    ParallelMonteCarloExecutor,
    ShardedVectorizedExecutor,
    SweepCache,
    SweepJob,
    SweepRunner,
    canonical_digest,
    resolve_worker_count,
)
from repro.core.parameters import ResilienceParameters
from repro.core.registry import resolve_protocol
from repro.simulation import run_monte_carlo
from repro.simulation.trace import ExecutionTrace, TimeBreakdown
from repro.utils import HOUR, MINUTE


def _fake_simulation(rng: np.random.Generator) -> ExecutionTrace:
    extra = float(rng.exponential(10.0))
    return ExecutionTrace(
        protocol="toy",
        application_time=100.0,
        makespan=100.0 + extra,
        failure_count=int(extra > 10.0),
        breakdown=TimeBreakdown(useful_work=100.0, lost_work=extra),
    )


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


class TestExecutorValidation:
    def test_invalid_backend(self):
        # The executor has no execution-backend option: worker processes
        # run whenever more than one worker has work.
        with pytest.raises(TypeError, match="backend"):
            ParallelMonteCarloExecutor(backend="serial")

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelMonteCarloExecutor(workers=0)

    def test_invalid_runs(self):
        executor = ParallelMonteCarloExecutor(workers=2)
        with pytest.raises(ValueError, match="runs"):
            executor.run(_fake_simulation, runs=0)

    def test_serial_backend_matches_run_monte_carlo(self, inline_pool):
        serial = run_monte_carlo(_fake_simulation, runs=25, seed=3)
        executor = ParallelMonteCarloExecutor(workers=4)
        with inline_pool():
            result = executor.run(_fake_simulation, runs=25, seed=3)
        assert result.waste == serial.waste

    def test_single_worker_short_circuits_to_serial(self):
        serial = run_monte_carlo(_fake_simulation, runs=10, seed=5)
        executor = ParallelMonteCarloExecutor(workers=1)
        assert executor.run(_fake_simulation, runs=10, seed=5).waste == serial.waste


def _vector_engine():
    from repro import ApplicationWorkload

    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        _parameters(), workload, period=1800.0
    )


class TestResolveWorkerCount:
    def test_explicit_count_passes_through(self):
        assert resolve_worker_count(3, 1000) == 3

    def test_capped_by_trial_count(self):
        assert resolve_worker_count(8, 5) == 5

    def test_auto_resolves_to_at_least_one(self):
        assert resolve_worker_count("auto", 10**6) >= 1
        assert resolve_worker_count(None, 10**6) >= 1

    def test_auto_capped_by_trial_count(self):
        assert resolve_worker_count("auto", 1) == 1

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_worker_count(0, 10)
        with pytest.raises(ValueError, match="workers"):
            resolve_worker_count(-2, 10)

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError, match="trials"):
            resolve_worker_count(2, 0)


class TestShardedVectorizedExecutor:
    def test_invalid_backend(self):
        with pytest.raises(TypeError, match="backend"):
            ShardedVectorizedExecutor(backend="serial")

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedVectorizedExecutor(workers=0)

    def test_invalid_runs(self):
        executor = ShardedVectorizedExecutor(workers=2)
        with pytest.raises(ValueError, match="runs"):
            executor.run(_vector_engine(), runs=0)

    def test_shard_ranges_cover_contiguously(self):
        executor = ShardedVectorizedExecutor(workers=4)
        assert executor.shard_ranges(10) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        # More workers than trials: one single-trial shard per trial.
        assert executor.shard_ranges(2) == [(0, 1), (1, 2)]

    def test_single_shard_short_circuits(self):
        engine = _vector_engine()
        serial = engine.run_trials(6, seed=9)
        executor = ShardedVectorizedExecutor(workers=1)
        assert executor.run(engine, runs=6, seed=9) == serial

    def test_serial_backend_is_bit_identical(self, inline_pool):
        engine = _vector_engine()
        serial = engine.run_trials(11, seed=3)
        for workers in (2, 3, 5, 11, 50):
            executor = ShardedVectorizedExecutor(workers=workers)
            with inline_pool():
                assert executor.run(engine, runs=11, seed=3) == serial, workers

    def test_two_process_shards_equal_serial_on_a_100k_trial_cell(self):
        # The correctness half of the multicore speedup benchmark, on its
        # cell: two real worker processes, shard boundary mid-chunk.
        from repro import ApplicationWorkload
        from repro.utils import DAY

        engine = resolve_protocol("PurePeriodicCkpt").vectorized_cls(
            _parameters(),
            ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8),
        )
        sharded = ShardedVectorizedExecutor(workers=2).run(
            engine, runs=100_000, seed=2014
        )
        assert sharded == engine.run_trials(100_000, seed=2014)

    def test_unseeded_shards_are_still_deterministic_per_seedless_run(
        self, inline_pool
    ):
        # seed=None derives fresh entropy per RandomStreams, so two unseeded
        # campaigns differ; but a sharded unseeded run must still produce a
        # well-formed table of the requested length.
        engine = _vector_engine()
        with inline_pool():
            table = ShardedVectorizedExecutor(workers=3).run(engine, runs=7)
        assert len(table.data) == 7


class TestMonteCarloRunnerParallel:
    """The ``simulate_once`` executor on real worker processes equals the
    in-process ``run_monte_carlo``."""

    def test_parallel_runner_matches_serial_runner(self):
        serial = run_monte_carlo(_fake_simulation, runs=30, seed=11)
        parallel = ParallelMonteCarloExecutor(workers=2).run(
            _fake_simulation, runs=30, seed=11
        )
        assert parallel.waste == serial.waste
        assert parallel.makespan == serial.makespan
        assert parallel.failures == serial.failures
        assert parallel.table == serial.table

    def test_parallel_run_many_matches_serial(self):
        # Several campaigns through one executor, each on its own seed.
        executor = ParallelMonteCarloExecutor(workers=2)
        for seed in (4, 5, 6):
            serial = run_monte_carlo(_fake_simulation, runs=15, seed=seed)
            parallel = executor.run(_fake_simulation, runs=15, seed=seed)
            assert parallel.waste == serial.waste

    def test_workers_validated_eagerly(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelMonteCarloExecutor(workers=0)

    def test_parallel_runner_keeps_traces_in_trial_order(self):
        # The traces run_monte_carlo keeps line up, in trial order, with
        # the rows the sharded executor gathers.
        serial = run_monte_carlo(_fake_simulation, runs=12, seed=6, keep_traces=True)
        parallel = ParallelMonteCarloExecutor(workers="auto").run(
            _fake_simulation, runs=12, seed=6
        )
        assert parallel.table.data["makespan"].tolist() == [
            t.makespan for t in serial.traces
        ]


class TestSweepCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = {"mtbf": 3600.0, "alpha": 0.5, "protocols": ["A", "B"]}
        value = {"model_waste": {"A": 0.25}}
        cache.store(key, value)
        assert cache.contains(key)
        assert cache.load(key) == value

    def test_missing_key_returns_none(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        assert cache.load({"mtbf": 1.0}) is None
        assert not cache.contains({"mtbf": 1.0})

    def test_corrupt_entry_is_ignored(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = {"mtbf": 1.0}
        path = cache.store(key, {"model_waste": {}})
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.load(key) is None

    def test_wrong_schema_is_ignored(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = {"mtbf": 1.0}
        path = cache.store(key, {"model_waste": {}})
        entry = json.loads(path.read_text())
        entry["schema"] = -1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        for i in range(3):
            cache.store({"mtbf": float(i)}, {"model_waste": {}})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_digest_is_order_insensitive_and_value_sensitive(self):
        a = canonical_digest({"x": 1, "y": 2.5})
        b = canonical_digest({"y": 2.5, "x": 1})
        c = canonical_digest({"x": 1, "y": 2.5000001})
        assert a == b
        assert a != c


class TestSweepJob:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocols"):
            SweepJob(
                parameters=_parameters(),
                application_time=1 * HOUR,
                mtbf_values=(3600.0,),
                alpha_values=(0.5,),
                protocols=("CarbonCopyCkpt",),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepJob(
                parameters=_parameters(),
                application_time=1 * HOUR,
                mtbf_values=(),
                alpha_values=(0.5,),
            )

    def test_key_excludes_simulation_settings_when_not_simulating(self):
        job = SweepJob(
            parameters=_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(3600.0,),
            alpha_values=(0.5,),
        )
        key = job.point_key(3600.0, 0.5)
        assert "simulation_runs" not in key
        assert "seed" not in key

    def test_key_differs_per_point(self):
        job = SweepJob(
            parameters=_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(3600.0, 7200.0),
            alpha_values=(0.5,),
        )
        assert canonical_digest(job.point_key(3600.0, 0.5)) != canonical_digest(
            job.point_key(7200.0, 0.5)
        )


class TestSweepRunnerWithoutCache:
    def test_runs_without_cache_dir(self):
        job = SweepJob(
            parameters=_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(3600.0, 7200.0),
            alpha_values=(0.2, 0.8),
        )
        result = SweepRunner().run(job)
        assert result.computed_points == 4
        assert result.cached_points == 0
        assert result.waste_grid("PurePeriodicCkpt")[(3600.0, 0.2)] > 0.0

    def test_simulated_waste_grid(self):
        job = SweepJob(
            parameters=_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(7200.0,),
            alpha_values=(0.5,),
            protocols=("PurePeriodicCkpt",),
            simulate=True,
            simulation_runs=5,
            seed=1,
        )
        result = SweepRunner().run(job)
        grid = result.waste_grid("PurePeriodicCkpt", simulated=True)
        assert set(grid) == {(7200.0, 0.5)}
        assert 0.0 <= grid[(7200.0, 0.5)] <= 1.0


class TestSweepCacheConcurrency:
    def test_racing_writers_never_publish_partial_entries(self, tmp_path):
        # The advisor service's background jobs share one cache directory
        # with CLI sweeps, so writers racing on the same key must only ever
        # publish complete entries (write-temp-then-rename): a reader sees
        # one of the competing values in full, never a torn file.
        import threading

        cache = SweepCache(tmp_path / "c")
        key = {"mtbf": 3600.0, "alpha": 0.8}
        payloads = [
            {"model_waste": {"A": float(i)}, "padding": "x" * 4096}
            for i in range(8)
        ]
        barrier = threading.Barrier(len(payloads))
        problems: list = []

        def writer(payload: dict) -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    cache.store(key, payload)
                    loaded = cache.load(key)
                    if loaded is None or loaded not in payloads:
                        problems.append(loaded)
            except Exception as exc:  # pragma: no cover - surfaced below
                problems.append(exc)

        threads = [
            threading.Thread(target=writer, args=(p,)) for p in payloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not problems
        assert cache.load(key) in payloads
        # One published entry, zero leaked staging files.
        assert len(cache) == 1
        leftovers = [
            p.name
            for p in (tmp_path / "c").iterdir()
            if p.suffix != ".json"
        ]
        assert leftovers == []

    def test_racing_writers_on_distinct_keys_all_publish(self, tmp_path):
        import threading

        cache = SweepCache(tmp_path / "c")
        barrier = threading.Barrier(6)
        problems: list = []

        def writer(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_number in range(20):
                    cache.store(
                        {"writer": index, "round": round_number},
                        {"model_waste": {"A": float(index)}},
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                problems.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not problems
        assert len(cache) == 6 * 20
        for index in range(6):
            assert cache.load({"writer": index, "round": 0}) == {
                "model_waste": {"A": float(index)}
            }
