"""Campaign execution: sharded Monte-Carlo campaigns and resumable sweeps.

The paper's evaluation is built from *campaigns* -- 1000 independent
simulated executions per parameter point (Section V-A), swept over the
(MTBF, alpha) plane for the Figure 7 heatmaps.  This package scales that
structure up:

* :mod:`repro.campaign.executor` -- :class:`ShardedVectorizedExecutor`
  splits the trial range of one campaign into one contiguous shard per
  worker process and runs either Monte-Carlo engine (event simulator or
  vectorized) on it through ``run_trial_range``; each trial's RNG is
  derived exactly as the serial runner derives it, so the same root seed
  produces a bit-identical table for any worker count.
  :class:`ParallelMonteCarloExecutor` is its ``simulate_once ->
  MonteCarloResult`` face for any single-trial callable;
* :mod:`repro.campaign.cache` -- :class:`SweepCache`, a crash-tolerant
  one-JSON-file-per-point result store;
* :mod:`repro.campaign.sweep_runner` -- :class:`SweepRunner` /
  :class:`SweepJob`, which materialise (MTBF, alpha) grids as resumable
  jobs: cached points are never recomputed, and the analytical wastes of
  uncached points are evaluated in one vectorised NumPy pass
  (:mod:`repro.core.analytical.grid`).

The experiment harness (``run_figure7``, the ``campaign`` CLI subcommand)
and the benchmarks are built on these primitives.
"""

from repro.campaign.cache import SweepCache, canonical_digest
from repro.campaign.executor import (
    ParallelMonteCarloExecutor,
    ShardedVectorizedExecutor,
    resolve_worker_count,
)
from repro.campaign.sweep_runner import (
    CAMPAIGN_PROTOCOLS,
    GridPoint,
    SweepJob,
    SweepResult,
    SweepRunner,
)

__all__ = [
    "SweepCache",
    "canonical_digest",
    "ParallelMonteCarloExecutor",
    "ShardedVectorizedExecutor",
    "resolve_worker_count",
    "CAMPAIGN_PROTOCOLS",
    "GridPoint",
    "SweepJob",
    "SweepResult",
    "SweepRunner",
]
