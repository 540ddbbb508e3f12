"""Test coverage for the ``max_slowdown`` truncation path.

In infeasible regimes (e.g. the checkpoint cost exceeds the MTBF) a
simulated execution essentially never finishes; the ``max_slowdown`` cap
turns it into a truncated trace whose waste is ~1.  These tests pin the
whole reporting chain: the trace metadata flag, the ``TrialTable`` column,
the campaign summaries (serial, parallel and vectorized) and the sweep
point summaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import ParallelMonteCarloExecutor, SweepJob, SweepRunner
from repro.core.protocols import (
    NoFaultToleranceSimulator,
    PurePeriodicCkptSimulator,
)
from repro.core.registry import resolve_protocol
from repro.simulation import run_monte_carlo
from repro.utils import HOUR, MINUTE

#: Parameters in a hopeless regime: the 200-minute checkpoint dwarfs the
#: 2-minute MTBF, so no chunk (work + checkpoint) ever completes -- the
#: probability of a failure-free segment is ~e^-100.
MAX_SLOWDOWN = 3.0
SEED = 31
RUNS = 12


def _infeasible_parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=2 * MINUTE,
        checkpoint=200 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(1 * HOUR, 0.8, library_fraction=0.8)


@pytest.fixture()
def simulator() -> PurePeriodicCkptSimulator:
    return PurePeriodicCkptSimulator(
        _infeasible_parameters(), _workload(), max_slowdown=MAX_SLOWDOWN
    )


class TestTraceTruncation:
    def test_trace_flagged_truncated(self, simulator):
        trace = simulator.simulate(seed=SEED)
        assert trace.metadata["truncated"] is True

    def test_waste_clamped_near_one(self, simulator):
        trace = simulator.simulate(seed=SEED)
        # Truncated at makespan > max_slowdown * T0, so the waste is at
        # least 1 - 1/max_slowdown and approaches 1 with the cap.
        assert trace.waste >= 1.0 - 1.0 / MAX_SLOWDOWN
        assert trace.waste < 1.0

    def test_makespan_just_past_cap(self, simulator):
        trace = simulator.simulate(seed=SEED)
        assert trace.makespan > MAX_SLOWDOWN * _workload().total_time

    def test_feasible_run_not_flagged(self):
        feasible = NoFaultToleranceSimulator(
            ResilienceParameters.from_scalars(
                platform_mtbf=1000 * HOUR,
                checkpoint=10 * MINUTE,
                recovery=10 * MINUTE,
                downtime=60.0,
                library_fraction=0.8,
            ),
            _workload(),
        )
        trace = feasible.simulate(seed=SEED)
        assert trace.metadata["truncated"] is False


class TestCampaignTruncation:
    def test_trial_table_flags_every_truncated_trial(self, simulator):
        result = run_monte_carlo(simulator.simulate_once, runs=RUNS, seed=SEED)
        assert result.table.truncated_count == RUNS
        assert bool(np.all(result.table.truncated))
        assert result.truncated == RUNS

    def test_parallel_campaign_reports_same_truncated_count(self, simulator):
        serial = run_monte_carlo(simulator.simulate_once, runs=RUNS, seed=SEED)
        parallel = ParallelMonteCarloExecutor(workers=3, backend="thread").run(
            simulator.simulate_once, runs=RUNS, seed=SEED
        )
        assert parallel.truncated == serial.truncated == RUNS
        assert parallel.waste == serial.waste

    def test_vectorized_backend_flags_identically(self, simulator):
        table = resolve_protocol("PurePeriodicCkpt").vectorized_cls(
            _infeasible_parameters(), _workload(), max_slowdown=MAX_SLOWDOWN
        ).run_trials(RUNS, seed=SEED)
        event = run_monte_carlo(simulator.simulate_once, runs=RUNS, seed=SEED)
        assert table.truncated_count == event.table.truncated_count
        assert bool(np.all(table.makespans == event.table.makespans))

    def test_mean_waste_clamped_near_one(self, simulator):
        result = run_monte_carlo(simulator.simulate_once, runs=RUNS, seed=SEED)
        assert result.mean_waste >= 1.0 - 1.0 / MAX_SLOWDOWN


class TestSweepTruncation:
    def _job(self, backend: str) -> SweepJob:
        # The low truncation cap keeps the hopeless walk affordable (each
        # trial grinds through ~90 failures before hitting it, not ~300k).
        return SweepJob(
            parameters=_infeasible_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(2 * MINUTE,),
            alpha_values=(0.8,),
            protocols=("PurePeriodicCkpt",),
            simulate=True,
            simulation_runs=RUNS,
            seed=SEED,
            backend=backend,
            max_slowdown=MAX_SLOWDOWN,
        )

    @pytest.mark.parametrize("backend", ["event", "vectorized"])
    def test_point_summary_reports_truncated_trials(self, backend):
        result = SweepRunner().run(self._job(backend))
        point = result.points[0]
        summary = point.simulated["PurePeriodicCkpt"]
        assert summary["truncated"] == RUNS
        assert point.truncated_trials("PurePeriodicCkpt") == RUNS
        assert summary["waste_mean"] >= 1.0 - 1.0 / MAX_SLOWDOWN

    def test_truncated_count_survives_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        SweepRunner(cache_dir=cache_dir).run(self._job("event"))
        resumed = SweepRunner(cache_dir=cache_dir).run(self._job("event"))
        assert resumed.computed_points == 0
        assert resumed.points[0].truncated_trials("PurePeriodicCkpt") == RUNS
