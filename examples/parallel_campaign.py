#!/usr/bin/env python
"""Running campaigns at scale: sharded Monte-Carlo + resumable sweeps.

The paper's validation averages 1000 independent simulated executions per
parameter point and sweeps the whole (MTBF, alpha) plane for the Figure 7
heatmaps.  This example shows the two campaign primitives that make that
tractable:

1. :class:`repro.campaign.ShardedVectorizedExecutor` splits the trials of
   one Monte-Carlo campaign into one contiguous shard per worker process
   and runs either engine on them -- here the event simulator, through its
   ``run_trial_range``.  Trial ``i`` derives its random stream from
   ``SeedSequence(entropy=seed, spawn_key=(i, 0))`` -- exactly as the serial
   runner does -- so the same root seed produces a bit-identical table for
   any worker count (verified below).  :class:`repro.ParallelMonteCarloExecutor`
   is the same executor for any ``simulate_once`` callable, returning a
   summarised result.

2. :class:`repro.SweepRunner` materialises an (MTBF, alpha) grid as a
   resumable job.  Every completed grid point is stored as one JSON file in
   a cache directory, keyed by the parameters, the point coordinates, the
   protocol list and the simulation settings; rerunning the job (after a
   crash, or to extend the grid) recomputes only the missing points.  When
   no simulation is requested, the analytical heatmaps are evaluated in one
   vectorised NumPy pass.

Run with::

    python examples/parallel_campaign.py
"""

from __future__ import annotations

import tempfile

from repro import (
    ApplicationWorkload,
    PurePeriodicCkptSimulator,
    ResilienceParameters,
    SweepJob,
    SweepRunner,
    run_monte_carlo,
)
from repro.campaign import ShardedVectorizedExecutor
from repro.utils import DAY, MINUTE


def main() -> None:
    parameters = ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )
    workload = ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8)

    # ------------------------------------------------------------------ #
    # 1. Sharded Monte-Carlo campaign: bit-identical to the serial path.
    # ------------------------------------------------------------------ #
    simulator = PurePeriodicCkptSimulator(parameters, workload)
    serial = run_monte_carlo(simulator.simulate_once, runs=200, seed=2014)
    executor = ShardedVectorizedExecutor(workers=4)
    sharded = executor.run(simulator, runs=200, seed=2014)
    print("Monte-Carlo campaign, 200 runs, seed 2014")
    print(f"  serial  mean waste : {serial.waste.mean!r}")
    print(f"  sharded mean waste : {sharded.summarize('waste').mean!r}")
    print(f"  bit-identical      : {sharded == serial.table}")

    # ------------------------------------------------------------------ #
    # 2. Resumable sweep with an on-disk cache.
    # ------------------------------------------------------------------ #
    job = SweepJob(
        parameters=parameters,
        application_time=1 * DAY,
        mtbf_values=(60 * MINUTE, 120 * MINUTE, 240 * MINUTE),
        alpha_values=(0.0, 0.4, 0.8),
        simulate=True,          # also run a small simulation per point
        simulation_runs=50,
        seed=2014,
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        first = SweepRunner(cache_dir=cache_dir, workers=4).run(job)
        print("\nSweep, first run (cold cache)")
        print(f"  computed points : {first.computed_points}")
        print(f"  cached points   : {first.cached_points}")

        # A second runner -- think "restarted after a crash" -- finds every
        # point in the cache and recomputes nothing.
        resumed = SweepRunner(cache_dir=cache_dir, workers=4).run(job)
        print("Sweep, resumed run (warm cache)")
        print(f"  computed points : {resumed.computed_points}")
        print(f"  cached points   : {resumed.cached_points}")
        print(f"  identical data  : {resumed.points == first.points}")

    print("\nWaste at (MTBF=120 min, alpha=0.8):")
    for name in job.protocols:
        point = next(
            p for p in first.points if p.mtbf == 120 * MINUTE and p.alpha == 0.8
        )
        print(
            f"  {name:<20} model {point.model_waste[name]:.4f}"
            f"  simulated {point.simulated_waste[name]:.4f}"
        )


if __name__ == "__main__":
    main()
