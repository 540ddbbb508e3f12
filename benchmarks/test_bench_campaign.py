"""Benchmark: serial vs parallel Monte-Carlo campaign execution.

Tracks the cost of one Figure 7 validation campaign through the serial
runner and through :class:`repro.campaign.ParallelMonteCarloExecutor`, so
the campaign subsystem's overhead/speed-up stays visible in the bench
trajectory.  (On a single-core runner the process pool only adds overhead;
the point of tracking both is exactly to see that crossover.)  Also times
the vectorised analytical grid against the per-point scalar sweep.
"""

from __future__ import annotations

import pytest

from repro.campaign import ParallelMonteCarloExecutor, SweepJob, SweepRunner
from repro.core.protocols import AbftPeriodicCkptSimulator
from repro.core.registry import resolve_protocol
from repro.simulation import run_monte_carlo
from repro.utils.units import MINUTE

RUNS = 60
SEED = 2014


@pytest.fixture(scope="module")
def campaign_simulator(paper_parameters, paper_workload):
    return AbftPeriodicCkptSimulator(paper_parameters, paper_workload)


def test_campaign_serial(benchmark, campaign_simulator):
    result = benchmark(
        run_monte_carlo, campaign_simulator.simulate_once, runs=RUNS, seed=SEED
    )
    assert result.runs == RUNS


def test_campaign_parallel_processes(benchmark, campaign_simulator):
    executor = ParallelMonteCarloExecutor(workers=2)
    result = benchmark(
        executor.run, campaign_simulator.simulate_once, runs=RUNS, seed=SEED
    )
    assert result.runs == RUNS
    # The perf may differ; the statistics must not.
    serial = run_monte_carlo(campaign_simulator.simulate_once, runs=RUNS, seed=SEED)
    assert result.waste == serial.waste


def _analytical_grid_job(paper_parameters) -> SweepJob:
    return SweepJob(
        parameters=paper_parameters,
        application_time=paper_parameters.platform_mtbf * 100,
        mtbf_values=tuple(float(m) * MINUTE for m in range(60, 241, 10)),
        alpha_values=tuple(i / 20 for i in range(21)),
    )


def _scalar_grid(job):
    """The grid from per-point model objects: the reference the
    one-pass grid replaces."""
    return [
        {
            name: resolve_protocol(name)
            .model_cls(job.parameters.with_mtbf(mtbf))
            .waste(job.workload(alpha))
            for name in job.protocols
        }
        for mtbf, alpha in job.grid()
    ]


@pytest.mark.parametrize("path", ["vectorized", "scalar"])
def test_analytical_sweep(benchmark, paper_parameters, path):
    job = _analytical_grid_job(paper_parameters)
    if path == "vectorized":
        points = benchmark(SweepRunner().run, job).points
        wastes = [point.model_waste for point in points]
    else:
        wastes = benchmark(_scalar_grid, job)
    assert len(wastes) == len(job.mtbf_values) * len(job.alpha_values)
