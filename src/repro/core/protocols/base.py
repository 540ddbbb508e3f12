"""Shared machinery of the protocol simulators.

Every protocol simulator is a *time-walking state machine*: starting from a
protected state, it attempts segments of execution (a chunk of work followed
by a checkpoint, an un-checkpointed phase, an ABFT-protected stretch, a
recovery, ...) against a :class:`~repro.failures.timeline.FailureTimeline`.
If the next failure falls after the segment, the segment completes and its
cost is accounted; otherwise the failure is recorded, the time already spent
is charged to the appropriate waste category, the configured recovery
sequence is performed (itself restartable if further failures strike), and
the protocol decides where execution resumes (last checkpoint, phase start,
or -- for ABFT -- the exact point of interruption).

A concrete protocol does not hand-write that walk: it implements
:meth:`ProtocolSimulator.compile_schedule` (usually by delegating to its
module's registered ``compile_schedule()`` function), and
:meth:`ProtocolSimulator._run` executes the compiled
:class:`~repro.simulation.schedule.Schedule` through
:class:`~repro.simulation.schedule.ScheduleInterpreter`.  A simulator's
behaviour therefore comes only from its compiled schedule; the walk's
building blocks are the ``run_*`` functions of
:mod:`repro.simulation.schedule`.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from repro.application.workload import ApplicationWorkload
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.obs import log
from repro.failures.base import FailureModel
from repro.failures.exponential import ExponentialFailureModel
from repro.failures.timeline import FailureTimeline
from repro.simulation.runner import simulate_trial_range
from repro.simulation.schedule import (
    Schedule,
    ScheduleInterpreter,
    SimulationHorizonExceeded,
)
from repro.simulation.table import TrialTable
from repro.simulation.trace import ExecutionTrace, TraceRecorder

__all__ = ["ProtocolSimulator", "SimulationHorizonExceeded"]


def _note_scalar_cost_api(simulator: str) -> None:
    """Emit the one structured note about the legacy scalar-cost API.

    Constructing a simulator from bare ``checkpoint``/``recovery`` scalars
    keeps working (it is exactly a flat storage stack), but the storage
    axis is the first-class spelling now.  One deduplicated ``obs.log``
    note -- counted in ``repro_log_events_total`` on every construction,
    printed once per process -- instead of a ``DeprecationWarning`` spray.
    """
    log(
        "note",
        "scalar-cost-api",
        dedupe="scalar-cost-api",
        simulator=simulator,
        hint="pass storage=StorageStack(...) or parameters.with_storage(...)",
    )


class ProtocolSimulator:
    """Base class for the discrete-event protocol simulators.

    Parameters
    ----------
    parameters:
        The resilience parameter bundle (MTBF, costs, ABFT parameters).
    workload:
        The application to protect.
    failure_model:
        The failure law driving the simulation.  ``None`` (default) uses the
        paper's memoryless law,
        :class:`~repro.failures.exponential.ExponentialFailureModel` at the
        parameters' platform MTBF; any other
        :class:`~repro.failures.base.FailureModel` (Weibull, log-normal,
        trace replay, ...) is accepted, which is how the scenario layer
        studies non-exponential failure laws.
    record_events:
        Store individual events in the resulting trace (off by default; the
        aggregate time breakdown is always recorded).
    max_slowdown:
        Safety cap: the simulation is truncated once the makespan exceeds
        ``max_slowdown * T0`` (the trace is flagged ``truncated=True`` in its
        metadata and its waste is effectively 1).
    storage:
        Optional :class:`~repro.checkpointing.stack.StorageStack`.  When
        given, the parameters are re-lowered from it
        (``parameters.with_storage(storage)``), so the protocol checkpoints
        at the stack's effective write/read costs.  When neither this nor
        ``parameters.storage`` is set, the simulator runs on the legacy
        scalar costs -- exactly an implicit flat storage -- and a single
        deduplicated ``obs.log`` note records the legacy-API use.
    """

    #: Human-readable protocol name (set by subclasses).
    name: str = "protocol"

    #: The engine a campaign span names (the across-trials engine says
    #: "vectorized").
    engine_kind = "event"

    #: Whether the protocol writes checkpoints at all.  NoFT sets this to
    #: ``False``: it neither accepts a storage stack nor triggers the
    #: legacy scalar-cost note.
    supports_storage: bool = True

    def __init__(
        self,
        parameters: ResilienceParameters,
        workload: ApplicationWorkload,
        *,
        failure_model: Optional["FailureModel"] = None,
        record_events: bool = False,
        max_slowdown: float = 1e4,
        storage: Optional[StorageStack] = None,
    ) -> None:
        if max_slowdown <= 1.0:
            raise ValueError(f"max_slowdown must be > 1, got {max_slowdown}")
        if storage is not None:
            if not self.supports_storage:
                raise ValueError(
                    f"{type(self).__name__} does not checkpoint and "
                    "accepts no storage stack"
                )
            parameters = parameters.with_storage(storage)
        elif parameters.storage is None and self.supports_storage:
            _note_scalar_cost_api(type(self).__name__)
        self._params = parameters
        self._workload = workload
        self._failure_model = failure_model
        self._record_events = bool(record_events)
        self._max_makespan = float(max_slowdown) * workload.total_time
        self._schedule_cache: Optional[Schedule] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def parameters(self) -> ResilienceParameters:
        """The resilience parameter bundle."""
        return self._params

    @property
    def workload(self) -> ApplicationWorkload:
        """The protected application."""
        return self._workload

    @property
    def failure_model(self) -> Optional[FailureModel]:
        """The configured failure law (``None`` means exponential)."""
        return self._failure_model

    def simulate(
        self,
        rng: Optional[np.random.Generator] = None,
        *,
        timeline: Optional[FailureTimeline] = None,
        seed: Optional[int] = None,
    ) -> ExecutionTrace:
        """Simulate one execution and return its trace.

        Exactly one source of randomness is used: an explicit ``timeline``
        (for scripted scenarios), an explicit ``rng``, or a fresh generator
        built from ``seed``.
        """
        if timeline is None:
            if rng is None:
                rng = np.random.default_rng(seed)
            model = self._failure_model
            if model is None:
                model = ExponentialFailureModel(self._params.platform_mtbf)
            elif hasattr(model, "spawn"):
                # Stateful models (trace replay) return a private, rewound
                # clone sharing the immutable bulk data: every run replays
                # the trace from the start, and concurrent runs sharing one
                # simulator (thread pools) never advance each other's
                # cursor.  Stateless models return themselves, so this is
                # free on the common path.
                model = model.spawn()
            elif hasattr(model, "reset"):
                # Third-party stateful models predating the spawn() protocol
                # still get the (slow) deep-copy isolation.
                model = copy.deepcopy(model)
                model.reset()
            timeline = FailureTimeline(model, rng)
        recorder = TraceRecorder(
            self.name,
            self._workload.total_time,
            record_events=self._record_events,
        )
        truncated = False
        try:
            makespan = self._run(timeline, recorder)
        except SimulationHorizonExceeded as exc:
            makespan = exc.time
            truncated = True
        metadata = dict(self._metadata())
        metadata["truncated"] = truncated
        return recorder.finish(makespan, metadata=metadata)

    def simulate_once(self, rng: np.random.Generator) -> ExecutionTrace:
        """Adapter matching :func:`repro.simulation.runner.run_monte_carlo`."""
        return self.simulate(rng=rng)

    @property
    def protocol(self) -> str:
        """Protocol name stamped on traces and result tables."""
        return self.name

    def run_trial_range(
        self, start: int, stop: int, seed: Optional[int] = None
    ) -> TrialTable:
        """Simulate the contiguous campaign slice ``[start, stop)``.

        The across-trials engine's entry point, walked one trial at a time:
        trial ``i`` runs on ``RandomStreams(seed).generator_for_trial(i)``,
        so :class:`~repro.campaign.executor.ShardedVectorizedExecutor`
        shards either engine into the same bit-identical table.
        """
        table, _ = simulate_trial_range(
            self.simulate_once, seed=seed, start=start, stop=stop
        )
        return table

    # ------------------------------------------------------------------ #
    # To be provided by concrete protocols
    # ------------------------------------------------------------------ #
    def compile_schedule(self) -> Schedule:
        """Compile this configuration into its segment schedule.

        Concrete protocols implement this (usually by delegating to their
        module's ``register_protocol(name, kind="schedule")`` compiler); the
        default :meth:`_run` executes the compiled object.  The schedule may
        only depend on the configuration, never on the failure draws, so one
        compilation serves every trial.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines neither compile_schedule() nor _run()"
        )

    def _compiled_schedule(self) -> Schedule:
        """The compiled schedule, cached across trials."""
        if self._schedule_cache is None:
            self._schedule_cache = self.compile_schedule()
        return self._schedule_cache

    def _run(self, timeline: FailureTimeline, recorder: TraceRecorder) -> float:
        """Execute the protected application; return the makespan.

        Interprets the compiled segment schedule.
        """
        interpreter = ScheduleInterpreter(max_makespan=self._max_makespan)
        return interpreter.run(self._compiled_schedule(), timeline, recorder)

    def _metadata(self) -> dict:
        """Protocol-specific metadata stored in every trace."""
        return {}
