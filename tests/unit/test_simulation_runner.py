"""Unit tests for the Monte-Carlo runner, ``run_monte_carlo``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ParallelMonteCarloExecutor
from repro.simulation import run_monte_carlo
from repro.simulation.trace import ExecutionTrace, TimeBreakdown


def _fake_simulation(rng: np.random.Generator) -> ExecutionTrace:
    """A toy stochastic 'simulation': makespan = 100 + Exp(10)."""
    extra = float(rng.exponential(10.0))
    return ExecutionTrace(
        protocol="toy",
        application_time=100.0,
        makespan=100.0 + extra,
        failure_count=int(extra > 10.0),
        breakdown=TimeBreakdown(useful_work=100.0, lost_work=extra),
    )


class TestRunMonteCarlo:
    def test_basic_aggregation(self):
        result = run_monte_carlo(_fake_simulation, runs=200, seed=1)
        assert result.runs == 200
        assert result.protocol == "toy"
        assert result.application_time == 100.0
        assert 0.0 < result.mean_waste < 0.5
        assert result.waste.count == 200

    def test_reproducible_with_seed(self):
        a = run_monte_carlo(_fake_simulation, runs=50, seed=7)
        b = run_monte_carlo(_fake_simulation, runs=50, seed=7)
        assert a.mean_waste == b.mean_waste
        assert a.mean_makespan == b.mean_makespan

    def test_different_seeds_differ(self):
        a = run_monte_carlo(_fake_simulation, runs=50, seed=1)
        b = run_monte_carlo(_fake_simulation, runs=50, seed=2)
        assert a.mean_waste != b.mean_waste

    def test_keep_traces(self):
        result = run_monte_carlo(_fake_simulation, runs=10, seed=1, keep_traces=True)
        assert len(result.traces) == 10

    def test_traces_not_kept_by_default(self):
        result = run_monte_carlo(_fake_simulation, runs=10, seed=1)
        assert result.traces == ()

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            run_monte_carlo(_fake_simulation, runs=0)

    def test_mean_waste_matches_expectation(self):
        # E[waste] = E[1 - 100/(100+X)] with X ~ Exp(10); estimate loosely.
        result = run_monte_carlo(_fake_simulation, runs=3000, seed=3)
        assert result.mean_waste == pytest.approx(0.085, abs=0.02)


class TestMonteCarloRunner:
    """The campaign result ``run_monte_carlo`` returns."""

    def test_runner_run(self):
        result = run_monte_carlo(_fake_simulation, runs=20, seed=5)
        assert result.runs == 20
        assert result.table.runs == 20

    def test_invalid_runs(self):
        with pytest.raises(ValueError, match="runs"):
            run_monte_carlo(_fake_simulation, runs=0, seed=5)

    def test_properties(self):
        result = run_monte_carlo(_fake_simulation, runs=7, seed=9)
        assert result.runs == 7
        assert result.mean_waste == result.waste.mean
        assert result.mean_makespan == result.makespan.mean
        assert result.mean_failures == result.failures.mean
        assert result.truncated == 0


class TestRunManySeedPolicy:
    """Without a root seed every campaign draws fresh OS entropy: campaigns
    are independent but not reproducible."""

    def test_seed_none_campaigns_are_independent(self):
        a = run_monte_carlo(_fake_simulation, runs=30, seed=None)
        b = run_monte_carlo(_fake_simulation, runs=30, seed=None)
        # Entropy-seeded campaigns must not accidentally share streams.
        assert a.mean_waste != b.mean_waste

    def test_seed_none_reruns_differ(self):
        # The same holds through the sharded executor's single-trial face.
        executor = ParallelMonteCarloExecutor(workers=1)
        first = executor.run(_fake_simulation, runs=30)
        second = executor.run(_fake_simulation, runs=30)
        assert first.mean_waste != second.mean_waste
