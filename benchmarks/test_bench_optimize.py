"""Benchmark + timing guard for the strategy advisor (repro.optimize).

Regime maps call the analytical period optimizer once per (protocol, cell)
-- a 20 x 20 x 4 x 4 map over four protocols is 25,600 optimizations -- so
the optimizer's hot loop (bracket scan + Brent refinement, pure Python over
the closed-form models) must stay cheap.  This module tracks it two ways:

1. ``pytest-benchmark`` timings of one optimization and of a small regime
   map, keeping the advisor's cost visible in the bench trajectory;
2. a **timing guard**: one ``PurePeriodicCkpt`` optimization must finish
   within a generous wall-clock budget (milliseconds, measured against a
   baseline of ~1 ms on the dev machine; the guard only trips on an
   order-of-magnitude regression, e.g. an accidental per-evaluation model
   rebuild of the whole sweep grid or an unbounded coordinate loop) and a
   bounded number of model evaluations, which is machine-independent.

Run with::

    pytest benchmarks/test_bench_optimize.py -q
"""

from __future__ import annotations

import time

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.optimize import compute_regime_map, optimize_period, RegimeMapSpec
from repro.utils import DAY, MINUTE, YEAR

#: Model-evaluation ceiling per optimization: one bracket scan (48 samples)
#: plus Brent refinement per tunable period, with slack for the coordinate
#: rounds.  Machine-independent -- trips if the search loop regresses.
MAX_EVALUATIONS_PER_PERIOD = 400

#: Wall-clock ceiling for ONE analytical optimization (seconds).  ~1 ms on a
#: dev machine; two orders of magnitude of slack absorb CI-runner noise
#: while still catching an accidentally quadratic hot loop.
SINGLE_OPTIMIZATION_BUDGET = 0.25


def _paper_point() -> tuple[ResilienceParameters, ApplicationWorkload]:
    parameters = ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
    )
    workload = ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8)
    return parameters, workload


def test_optimize_period_hot_loop(benchmark):
    parameters, workload = _paper_point()
    optimum = benchmark(
        optimize_period, "PurePeriodicCkpt", parameters, workload
    )
    assert optimum.feasible
    assert optimum.relative_error("period") < 1e-3


def test_optimize_period_evaluation_budget():
    parameters, workload = _paper_point()
    for protocol, knobs in (
        ("PurePeriodicCkpt", 1),
        ("BiPeriodicCkpt", 2),
        ("ABFT&PeriodicCkpt", 1),
    ):
        optimum = optimize_period(protocol, parameters, workload)
        assert optimum.evaluations <= MAX_EVALUATIONS_PER_PERIOD * knobs, (
            f"{protocol} spent {optimum.evaluations} model evaluations "
            f"(budget {MAX_EVALUATIONS_PER_PERIOD * knobs}); the optimizer "
            "hot loop regressed"
        )


@pytest.mark.perf
def test_optimize_period_timing_guard():
    parameters, workload = _paper_point()
    optimize_period("PurePeriodicCkpt", parameters, workload)  # warm imports
    start = time.perf_counter()
    optimize_period("PurePeriodicCkpt", parameters, workload)
    elapsed = time.perf_counter() - start
    assert elapsed < SINGLE_OPTIMIZATION_BUDGET, (
        f"one analytical optimization took {elapsed:.3f}s "
        f"(budget {SINGLE_OPTIMIZATION_BUDGET}s)"
    )


def test_regime_map_analytical(benchmark):
    spec = RegimeMapSpec(
        node_counts=(1_000, 10_000, 100_000),
        node_mtbf_values=(5 * YEAR, 25 * YEAR, 125 * YEAR),
        checkpoint_costs=(1 * MINUTE, 10 * MINUTE),
        abft_overheads=(1.03,),
        application_time=1 * DAY,
    )
    regime_map = benchmark(compute_regime_map, spec)
    assert len(regime_map.cells) == 18
    assert sum(regime_map.winner_counts().values()) == 18
