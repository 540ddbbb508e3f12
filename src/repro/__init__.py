"""repro: a reproduction of "Assessing the Impact of ABFT and Checkpoint
Composite Strategies" (Bosilca, Bouteiller, Herault, Robert, Dongarra --
APDCM / IPDPSW 2014).

The package provides, from scratch and in pure Python + NumPy:

* the paper's analytical performance model for the PurePeriodicCkpt,
  BiPeriodicCkpt and ABFT&PeriodicCkpt protocols (:mod:`repro.core.analytical`);
* a discrete-event simulator of the same protocols used to validate the
  model (:mod:`repro.core.protocols`, :mod:`repro.simulation`);
* the substrates those depend on: failure models (:mod:`repro.failures`),
  application phase models (:mod:`repro.application`) and checkpoint storage
  cost models (:mod:`repro.checkpointing`);
* an actual ABFT-protected dense linear-algebra layer demonstrating the
  mechanism the model abstracts (:mod:`repro.abft`);
* the experiment harness regenerating every figure of the evaluation section
  (:mod:`repro.experiments`, also exposed through ``python -m repro.cli``);
* a campaign-execution subsystem for running the validation at scale
  (:mod:`repro.campaign`);
* the unified Scenario API (:mod:`repro.scenario`): declarative,
  JSON-serializable experiment specs -- protocol set x failure law x
  platform x workload x sweep axes -- consumed by the registry, the
  simulators, the campaign layer and the ``scenario`` CLI subcommands;
* the strategy advisor (:mod:`repro.optimize`): numeric period optimization
  (validated against the Equation 11 closed forms), simulation-backed
  refinement, and regime maps naming the winning protocol per platform
  cell (``python -m repro.cli optimize {period,compare,map}``).

Running campaigns at scale
--------------------------
The paper averages 1000 simulated executions per parameter point and sweeps
the whole (MTBF, alpha) plane.  :mod:`repro.campaign` makes that tractable:

* :class:`~repro.campaign.ShardedVectorizedExecutor` runs batches of
  Monte-Carlo campaigns on one process pool, each campaign whole or (when
  the batch is smaller than the pool) cut into contiguous trial shards, on
  either engine (event simulator or vectorized).  Trial
  ``i`` draws from the generator of ``SeedSequence(entropy=seed,
  spawn_key=(i, 0))`` (the first child of the ``i``-th child of the root)
  exactly like the serial runner, and the shard tables are concatenated in
  trial order, so the same root seed yields **bit-identical** results for
  any worker count.
* :class:`~repro.campaign.SweepRunner` materialises (MTBF, alpha) grids as
  resumable jobs.  Completed points are stored one-JSON-file-per-point in a
  cache directory, keyed by the parameter scalars, the point's coordinates,
  the protocol list and the simulation settings; an interrupted or repeated
  sweep recomputes only missing points.  When no simulation is requested the
  analytical heatmaps are evaluated in a single vectorised NumPy pass
  (:mod:`repro.core.analytical.grid`), bit-identical to the scalar models.

See ``examples/parallel_campaign.py`` for a worked example, or run
``python -m repro.cli campaign --reduced --cache-dir ./cache --resume``.

Quickstart
----------
>>> from repro import quick_waste_comparison
>>> from repro.utils import MINUTE, WEEK
>>> table = quick_waste_comparison(
...     application_time=1 * WEEK, alpha=0.8, mtbf=120 * MINUTE,
...     checkpoint=10 * MINUTE, downtime=1 * MINUTE)
>>> sorted(table) == ['ABFT&PeriodicCkpt', 'BiPeriodicCkpt', 'PurePeriodicCkpt']
True
>>> table['ABFT&PeriodicCkpt'] < table['PurePeriodicCkpt']
True
"""

from __future__ import annotations

from repro.core import (
    AbftPeriodicCkptModel,
    AbftPeriodicCkptSimulator,
    AnalyticalModel,
    BiPeriodicCkptModel,
    BiPeriodicCkptSimulator,
    ModelPrediction,
    NoFaultToleranceModel,
    NoFaultToleranceSimulator,
    ProtocolSimulator,
    PurePeriodicCkptModel,
    PurePeriodicCkptSimulator,
    ResilienceParameters,
)
from repro.application import ApplicationWorkload, DatasetPartition, Epoch
from repro.checkpointing import (
    BuddyStorage,
    CheckpointCostModel,
    CheckpointCosts,
    CheckpointStorage,
    FlatStorage,
    IncrementalCheckpointing,
    LocalStorage,
    MultiLevelStorage,
    RemoteFileSystemStorage,
    StorageStack,
)
from repro.campaign import (
    ParallelMonteCarloExecutor,
    SweepJob,
    SweepResult,
    SweepRunner,
)
from repro.failures import ExponentialFailureModel, FailureTimeline, Platform
from repro.optimize import (
    PeriodOptimum,
    RegimeMap,
    RegimeMapSpec,
    compute_regime_map,
    optimize_period,
    refine_period,
)
from repro.scenario import (
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    optimize_scenario,
    run_scenario,
)
from repro.simulation import (
    MonteCarloResult,
    TrialTable,
    run_monte_carlo,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Parameters and workloads
    "ResilienceParameters",
    "ApplicationWorkload",
    "DatasetPartition",
    "Epoch",
    "CheckpointCosts",
    "CheckpointCostModel",
    # Checkpoint storage zoo (lowered into scalar costs by the parameters)
    "CheckpointStorage",
    "StorageStack",
    "FlatStorage",
    "RemoteFileSystemStorage",
    "LocalStorage",
    "BuddyStorage",
    "MultiLevelStorage",
    "IncrementalCheckpointing",
    "Platform",
    "ExponentialFailureModel",
    "FailureTimeline",
    # Analytical models
    "AnalyticalModel",
    "ModelPrediction",
    "NoFaultToleranceModel",
    "PurePeriodicCkptModel",
    "BiPeriodicCkptModel",
    "AbftPeriodicCkptModel",
    # Simulators
    "ProtocolSimulator",
    "NoFaultToleranceSimulator",
    "PurePeriodicCkptSimulator",
    "BiPeriodicCkptSimulator",
    "AbftPeriodicCkptSimulator",
    "run_monte_carlo",
    "MonteCarloResult",
    "TrialTable",
    # Campaign execution
    "ParallelMonteCarloExecutor",
    "SweepJob",
    "SweepResult",
    "SweepRunner",
    # Scenario API
    "Scenario",
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    # Strategy advisor (numeric optimization and regime maps)
    "PeriodOptimum",
    "optimize_period",
    "refine_period",
    "optimize_scenario",
    "RegimeMap",
    "RegimeMapSpec",
    "compute_regime_map",
    # Convenience
    "quick_waste_comparison",
]


def quick_waste_comparison(
    *,
    application_time: float,
    alpha: float,
    mtbf: float,
    checkpoint: float,
    recovery: float | None = None,
    downtime: float = 60.0,
    library_fraction: float = 0.8,
    abft_overhead: float = 1.03,
    abft_reconstruction: float = 2.0,
) -> dict[str, float]:
    """Predicted waste of the three protocols for a single-epoch application.

    A convenience wrapper around the analytical models for the most common
    question: *given my application and platform, which protocol wastes the
    least platform time?*  All durations are in seconds.

    Returns a mapping ``{protocol name: waste}``.
    """
    params = ResilienceParameters.from_scalars(
        platform_mtbf=mtbf,
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=downtime,
        library_fraction=library_fraction,
        abft_overhead=abft_overhead,
        abft_reconstruction=abft_reconstruction,
    )
    workload = ApplicationWorkload.single_epoch(
        application_time, alpha, library_fraction=library_fraction
    )
    models = (
        PurePeriodicCkptModel(params),
        BiPeriodicCkptModel(params),
        AbftPeriodicCkptModel(params),
    )
    return {model.name: model.evaluate(workload).waste for model in models}
