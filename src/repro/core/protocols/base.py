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

Since the segment-schedule IR (:mod:`repro.simulation.schedule`), a concrete
protocol no longer hand-writes that walk: it implements
:meth:`ProtocolSimulator.compile_schedule` (usually by delegating to its
module's registered ``compile_schedule()`` function) and the default
:meth:`ProtocolSimulator._run` executes the compiled
:class:`~repro.simulation.schedule.Schedule` through
:class:`~repro.simulation.schedule.ScheduleInterpreter`.  The historical
building-block helpers below (``_periodic_section``, ``_abft_section``, ...)
are kept as thin wrappers over the canonical walk functions in
:mod:`repro.simulation.schedule`, so subclasses that still override ``_run``
imperatively (reference implementations in the test suite, downstream
protocol prototypes) keep working bit for bit.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from repro.application.workload import ApplicationWorkload
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.obs import log
from repro.failures.base import FailureModel
from repro.failures.exponential import ExponentialFailureModel
from repro.failures.timeline import FailureTimeline
from repro.simulation.schedule import (
    Schedule,
    ScheduleInterpreter,
    SimulationHorizonExceeded,
    run_abft_section,
    run_atomic_segment,
    run_checkpoint,
    run_periodic_section,
    run_restart,
)
from repro.simulation.schedule import (
    _account_abft_progress as _schedule_account_abft_progress,
)
from repro.simulation.runner import simulate_trial_range
from repro.simulation.schedule import periodic_chunk_size
from repro.simulation.table import TrialTable
from repro.simulation.trace import ExecutionTrace, TraceRecorder

__all__ = ["ProtocolSimulator", "SimulationHorizonExceeded"]

#: Categories used when a restart sequence is interrupted mid-way.
RestartStages = Sequence[tuple[str, float]]


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

        The default implementation interprets the compiled segment schedule;
        subclasses may still override it with a hand-written walk (the
        building-block helpers below preserve the historical semantics).
        """
        interpreter = ScheduleInterpreter(max_makespan=self._max_makespan)
        return interpreter.run(self._compiled_schedule(), timeline, recorder)

    def _metadata(self) -> dict:
        """Protocol-specific metadata stored in every trace."""
        return {}

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    # Thin wrappers over the canonical walk functions in
    # repro.simulation.schedule, kept so hand-written _run overrides (test
    # reference implementations, protocol prototypes) compose the same
    # bit-exact building blocks the interpreter executes.
    def _check_cap(self, time: float) -> None:
        if time > self._max_makespan:
            raise SimulationHorizonExceeded(time)

    def _restart(
        self,
        time: float,
        timeline: FailureTimeline,
        recorder: TraceRecorder,
        stages: RestartStages,
    ) -> float:
        """Perform a restart sequence (downtime, recovery, ...), restartable.

        See :func:`repro.simulation.schedule.run_restart`.
        """
        return run_restart(
            time, timeline, recorder, stages, check_cap=self._check_cap
        )

    def _rollback_stages(self, recovery_cost: float) -> RestartStages:
        """Downtime + full rollback recovery (the checkpointing protocols)."""
        return (
            ("downtime", self._params.downtime),
            ("recovery", recovery_cost),
        )

    def _abft_restart_stages(self) -> RestartStages:
        """Downtime + REMAINDER reload + ABFT reconstruction (LIBRARY phase)."""
        return (
            ("downtime", self._params.downtime),
            ("recovery", self._params.remainder_recovery_cost),
            ("abft_recovery", self._params.abft_reconstruction),
        )

    # .................................................................. #
    def _periodic_section(
        self,
        time: float,
        work: float,
        timeline: FailureTimeline,
        recorder: TraceRecorder,
        *,
        checkpoint_cost: float,
        recovery_cost: float,
        period: float,
        trailing_checkpoint: bool,
    ) -> float:
        """Execute ``work`` seconds of work under periodic checkpointing.

        See :func:`repro.simulation.schedule.run_periodic_section`; the
        period-to-chunk mapping (an invalid period means a single chunk) is
        :func:`repro.simulation.schedule.periodic_chunk_size`.
        """
        return run_periodic_section(
            time,
            work,
            timeline,
            recorder,
            chunk_size=periodic_chunk_size(period, checkpoint_cost, work),
            checkpoint_cost=checkpoint_cost,
            trailing_checkpoint=trailing_checkpoint,
            restart_stages=self._rollback_stages(recovery_cost),
            check_cap=self._check_cap,
        )

    # .................................................................. #
    def _unprotected_section(
        self,
        time: float,
        work: float,
        timeline: FailureTimeline,
        recorder: TraceRecorder,
        *,
        recovery_cost: float,
        checkpoint_cost: float = 0.0,
    ) -> float:
        """Execute ``work`` + an optional trailing checkpoint atomically.

        See :func:`repro.simulation.schedule.run_atomic_segment`.
        """
        return run_atomic_segment(
            time,
            work,
            timeline,
            recorder,
            checkpoint_cost=checkpoint_cost,
            restart_stages=self._rollback_stages(recovery_cost),
            check_cap=self._check_cap,
        )

    # .................................................................. #
    def _checkpoint(
        self,
        time: float,
        timeline: FailureTimeline,
        recorder: TraceRecorder,
        *,
        checkpoint_cost: float,
        restart_stages: RestartStages,
        redo_on_failure: bool = True,
    ) -> float:
        """Write one checkpoint, handling failures during the write.

        See :func:`repro.simulation.schedule.run_checkpoint`.
        """
        return run_checkpoint(
            time,
            timeline,
            recorder,
            checkpoint_cost=checkpoint_cost,
            restart_stages=restart_stages,
            redo_on_failure=redo_on_failure,
            check_cap=self._check_cap,
        )

    # .................................................................. #
    def _abft_section(
        self,
        time: float,
        work: float,
        timeline: FailureTimeline,
        recorder: TraceRecorder,
        *,
        exit_checkpoint_cost: float,
    ) -> float:
        """Execute ``work`` seconds of computation under ABFT protection.

        See :func:`repro.simulation.schedule.run_abft_section`.
        """
        return run_abft_section(
            time,
            work,
            timeline,
            recorder,
            phi=self._params.phi,
            restart_stages=self._abft_restart_stages(),
            exit_checkpoint_cost=exit_checkpoint_cost,
            check_cap=self._check_cap,
        )

    @staticmethod
    def _account_abft_progress(
        recorder: TraceRecorder, elapsed: float, phi: float
    ) -> None:
        """Split ABFT-protected wall-clock time into progress and overhead."""
        _schedule_account_abft_progress(recorder, elapsed, phi)
