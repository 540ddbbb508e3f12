"""Vectorized across-trials Monte-Carlo engine.

The event-driven simulators (:mod:`repro.core.protocols`) walk one trial at
a time through a Python state machine.  Their walks are compositions of a
small set of deterministic building blocks -- periodically checkpointed
sections, atomic (unprotected or checkpoint-only) segments, ABFT-protected
stretches and restartable recovery sequences -- scheduled in an order that
depends only on the configuration, never on the failure draws.  That makes
them batchable: :class:`VectorizedPhasedSimulator` keeps one NumPy state
vector per quantity (clock, progress, failure cursor, schedule cursor,
mode) and advances **all trials simultaneously**, round by round, through
any compiled :class:`~repro.simulation.schedule.Schedule` of periodic /
atomic / ABFT segments.  Every protocol with a registered schedule compiler
gets this engine without further code:
:attr:`repro.core.registry.ProtocolEntry.vectorized_cls` compiles the
schedule and builds the engine.

Rounds
------
One round of the execute loop is one pass over a chunk's live trials:

* **Live-trial arrays.**  The per-trial state (clock ``t``, progress ``w``,
  failure cursor, schedule cursor, mode, failure count and only the waste
  categories the schedule can touch) lives in dense arrays holding the
  trials still running.  A trial that finishes or passes the cap is written
  to the output columns by its index in the chunk, and the arrays are
  compacted, so later rounds touch only live trials in contiguous memory.
* **One failure gather per round.**  Each trial's block of failure times is
  a row of one array with a ``-inf`` sentinel column, and its cursor is a
  flat index into it: one gather reads every live trial's next failure.  A
  trial that failed steps its cursor by one at once, so only the rare
  trials whose gathered failure is not strictly after ``t`` (equal failure
  times, or the sentinel at the end of a block, which refills the row) take
  the slow path -- the event walk's ``next_failure_after``.
* **Dispatch from a compile-time table.**  Only the segment kinds the
  schedule contains run, a one-kind schedule needs no kind mask and a
  one-segment schedule reads its parameters as scalars; restart stage sets
  are split only when the schedule has more than one.  Updates are
  ``np.where`` over the dense arrays.
* **Folded rounds.**  A restart that ends strictly before the trial's next
  failure goes on into its segment body in the same round, and a periodic
  segment takes up to :data:`CHUNKS_PER_ROUND` successive chunks against
  the same next failure.

Each trial still performs the event walk's IEEE-754 sequence.  A trial's
``t += step`` and ``acc += amount`` are done one at a time, in its own
order; a masked-out trial adds ``+0.0`` (exact on a non-negative sum) or
keeps its value through ``np.where``.  A fold is taken only where the walk
would take the same step: the next failure is the same because it is
strictly after the new clock, and the cap check runs first.  A step that
ends exactly on the next failure stops the trial's round, so its cursor
moves past that failure exactly as ``next_failure_after`` would.

Bit-identical contract
----------------------
The engine is not an approximation: for a given root seed it reproduces
the event backend **trial for trial, bit for bit** -- same makespan, waste,
failure count and per-category waste breakdown.  Two properties make this
possible:

* failure times are drawn in exactly the block pattern of
  :class:`~repro.failures.timeline.FailureTimeline` (``batch_size``
  inter-arrivals per refill, clamped, ``last + cumsum(block)``), from the
  same per-trial generator (``RandomStreams(seed).generator_for_trial(i)``)
  and the same failure-law model, through the model's
  :meth:`~repro.failures.base.FailureModel.trial_block_sampler`.  Laws
  whose block sampling is a pure function of the generator qualify
  directly (exponential, Weibull, log-normal), and trace replay qualifies
  through its vectorized sampler (per-trial rewindable cursors over one
  shared trace array) -- the registry flags all of them with
  ``register_failure_model(vectorized=True)``.  Subclasses of the flagged
  classes (whose overridden sampling the engine could not honour) fall
  back to the event backend;
* every arithmetic operation of the event walk (segment sums, partial
  restart accounting, ABFT progress splits, cap checks) is replayed with
  the same IEEE-754 operations in the same per-trial order, just batched
  across trials.

Two more properties matter at campaign scale:

* repeated runs of a compiled :class:`~repro.simulation.schedule.Schedule`
  execute as a loop over the *compressed* block -- the per-segment tables
  are sized by the unique lowered segments, so a 1000-epoch weak-scaling
  workload costs the same setup and memory as a single epoch;
* :meth:`VectorizedPhasedSimulator.run_trial_range` simulates any
  contiguous ``[start, stop)`` slice of a campaign with the per-trial
  generators derived from the *absolute* indices -- the entry point the
  event simulators share -- so
  :class:`~repro.campaign.executor.ShardedVectorizedExecutor`, the one
  campaign executor, fans either engine over worker processes and
  reassembles bit-identical results;
* the same shard-boundary contract bounds memory: a range runs in chunks
  of :data:`TRIAL_CHUNK` trials, each with its own failure sampler and
  generators (built from the chunk's state rows, see
  :class:`~repro.simulation.rng.TrialStreams`), so only one chunk's
  generators, refill blocks and state vectors are alive at a time.

The cross-validation tests assert exact ``==`` on every column, and the
sweep cache deliberately uses the same keys for both backends -- entries
are interchangeable.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

import repro.obs as _obs

from repro.failures.base import FailureModel
from repro.failures.exponential import ExponentialFailureModel
from repro.failures.timeline import DEFAULT_BATCH_SIZE
from repro.simulation.rng import TrialStreams
from repro.simulation.schedule import (
    WORK_EPSILON as _WORK_EPSILON,
    AbftSegment,
    AtomicSegment,
    PeriodicSegment,
    RestartStages,
    Schedule,
    Segment,
    periodic_chunk_size,
)
from repro.simulation.table import TrialTable
from repro.simulation.trace import CATEGORIES

__all__ = [
    "ENGINE_BACKENDS",
    "VectorizedBackendError",
    "VectorizedPhasedSimulator",
    "PeriodicSegment",
    "AtomicSegment",
    "AbftSegment",
    "Segment",
    "periodic_chunk_size",
    "vectorized_failure_model_or_raise",
    "vectorized_backend_obstacle",
    "note_backend_fallback",
]

#: Monte-Carlo engine backends selectable in the campaign/scenario layers.
#: ``"event"`` is the per-trial state-machine walk, ``"vectorized"`` the
#: across-trials engine of this module, ``"auto"`` picks the vectorized
#: engine whenever the (protocol, failure law) pair supports it.
ENGINE_BACKENDS = ("event", "vectorized", "auto")

#: Trials advanced together by one pass of the execute loop.  A trial range
#: runs in chunks of this size and concatenates them, which is bit-identical
#: because trials never interact; only one chunk's generators and refill
#: temporaries are alive at a time.  Re-measured with the dense loop on a
#: 2-vCPU container (8 alternating in-process rotations, seeds 1-8): on the
#: 100k-trial reference cell the median execute time read 0.561 s at 4096,
#: 0.488 s at 8192 and 0.474 s at 16384, with peak RSS 68, 78 and 99 MB;
#: the regime map's 1000-trial ABFT&PeriodicCkpt campaigns fit in one chunk
#: at every size (0.261 / 0.262 / 0.267 s).  16384 won no clear majority
#: and costs 27% more memory, so 8192 stays.
TRIAL_CHUNK = 8192

#: Periodic chunks a trial may complete in one round against the same next
#: failure (see Rounds above).  Measured like :data:`TRIAL_CHUNK`, over 1-4:
#: median execute time 0.465 / 0.467 / 0.493 / 0.506 s on the reference
#: cell and 0.258 / 0.259 / 0.273 / 0.281 s on the regime map's
#: ABFT&PeriodicCkpt campaigns, with no value fastest in every rotation and
#: equal peak RSS.  Inside that noise the value of the first measurement, 3,
#: stays.  At seed 1 it runs the reference cell in 710 rounds and 2.95M
#: trial-rounds against 1140 and 6.04M at 1; the time does not follow
#: because every extra chunk step is computed over all live trials.  Every
#: value gives the same table.
CHUNKS_PER_ROUND = 3


class VectorizedBackendError(ValueError):
    """The vectorized backend cannot run the requested configuration.

    Raised with an actionable message naming the unsupported protocol or
    failure law and the supported alternatives, so a scenario author can fix
    the spec (or fall back to ``backend="event"``).
    """


def vectorized_backend_obstacle(
    protocol: str, law: str = "exponential", law_cls: Optional[type] = None
) -> Optional[str]:
    """Why the across-trials engine cannot run ``protocol`` under ``law``.

    The one eligibility rule every backend-selecting layer consults (the
    campaign runner behind sweeps, refinement, regime maps and the service,
    and :class:`~repro.scenario.spec.ScenarioSpec` validation): the
    protocol has a registered schedule compiler, and the failure law's
    class ``law_cls`` is an *exact* class registered with
    ``register_failure_model(vectorized=True)`` (subclasses may override
    the sampling the engine could not honour).  ``law_cls=None`` is the
    simulators' default exponential law.

    Returns ``None`` when the engine can run the configuration, else a
    human-readable detail naming the obstacle.  Both supported lists are
    derived from the registry, not hard-coded.
    """
    from repro.core.registry import resolve_protocol, vectorized_protocol_names

    entry = resolve_protocol(protocol)
    if not entry.has_schedule:
        return (
            f"protocol {entry.name!r} has no vectorized engine (no schedule "
            f"compiler registered; available: {sorted(vectorized_protocol_names())})"
        )
    return _law_obstacle(law, law_cls)


def _law_obstacle(law: Optional[str], law_cls: Optional[type]) -> Optional[str]:
    """The failure-law half of :func:`vectorized_backend_obstacle`."""
    from repro.core.registry import vectorized_law_classes, vectorized_law_names

    if law_cls is None or law_cls in vectorized_law_classes():
        return None
    name = f"{law!r} ({law_cls.__name__})" if law else law_cls.__name__
    return (
        f"failure law {name} has no vectorized block sampling "
        f"(vectorized laws: {sorted(vectorized_law_names())})"
    )


def note_backend_fallback(detail: Optional[str]) -> None:
    """Report (once, to stderr) that ``backend='auto'`` chose the event engine.

    ``detail`` is the :func:`vectorized_backend_obstacle` message; ``None``
    is a no-op so call sites can pass the obstacle through unconditionally.
    Deduplicated on the message text via the structured-log helper's shared
    dedupe set (:func:`repro.obs.log`) -- a campaign sweeping hundreds of
    grid points over an unsupported (protocol, law) pair emits a single
    line, not one per point.  Diagnostics go to stderr: stdout stays
    machine-parseable.
    """
    if detail is None:
        return
    _obs.log(
        "note",
        "backend-fallback",
        dedupe=f"backend-fallback:{detail}",
        backend="auto",
        engine="event",
        detail=detail,
    )


def vectorized_failure_model_or_raise(
    failure_model: Optional[FailureModel],
    default_mtbf: float,
    *,
    protocol: str,
) -> FailureModel:
    """The failure model to drive the across-trials engine with.

    ``None`` (the simulators' default) builds the paper's exponential law at
    the platform MTBF; an exact instance of any registry-flagged vectorized
    law (see :func:`repro.core.registry.vectorized_law_names` -- this
    includes trace replay, which batches through per-trial cursors) is
    passed through.  Anything else -- *subclasses* of the flagged classes,
    whose overridden sampling the engine could not honour, or laws never
    flagged vectorized -- raises :class:`VectorizedBackendError` naming the
    supported laws.
    """
    if failure_model is None:
        return ExponentialFailureModel(float(default_mtbf))
    obstacle = _law_obstacle(None, type(failure_model))
    if obstacle is not None:
        raise VectorizedBackendError(
            f"protocol {protocol!r}: {obstacle}; use backend='event' for this law"
        )
    return failure_model


# --------------------------------------------------------------------- #
# Segment dispatch kinds
# --------------------------------------------------------------------- #
# The segment types (PeriodicSegment / AtomicSegment / AbftSegment) and the
# run-length-compressed Schedule container live in
# :mod:`repro.simulation.schedule`; this module re-exports them for
# compatibility and executes them across trials.

_KIND_PERIODIC = 0
_KIND_ATOMIC = 1
_KIND_ABFT = 2


class VectorizedPhasedSimulator:
    """Across-trials engine for phase-structured protocol schedules.

    Parameters
    ----------
    protocol:
        Protocol name stamped on the resulting :class:`TrialTable`.
    application_time:
        Fault-free duration ``T0`` (the waste baseline), seconds.
    segments:
        The deterministic segment schedule: a compiled
        :class:`~repro.simulation.schedule.Schedule` (the usual case --
        both backends execute the same compiled object) or any iterable of
        :class:`PeriodicSegment` / :class:`AtomicSegment` /
        :class:`AbftSegment`, in execution order.  The schedule may only
        depend on the configuration -- never on the failure draws -- which
        is exactly the property ``compile_schedule()`` functions have.
    failure_model:
        The inter-arrival law driving the failure streams.  Bit-identity
        requires a model whose ``sample_interarrivals`` is a pure function
        of the generator; ``ProtocolEntry.vectorized_cls`` enforces the
        registry's vectorized-law rule via
        :func:`vectorized_failure_model_or_raise`.
    max_makespan:
        Truncation cap, strictly greater than ``application_time`` (i.e.
        ``max_slowdown * T0`` with ``max_slowdown > 1``): trials whose clock
        exceeds it are flagged ``truncated`` with their waste ~1, exactly
        like the event backend's
        :class:`~repro.core.protocols.base.SimulationHorizonExceeded`.
    batch_size:
        Failure-stream block size; must match the event backend's
        (:data:`~repro.failures.timeline.DEFAULT_BATCH_SIZE`) for the
        bit-identical contract to hold.
    """

    #: The engine a campaign span names (the event simulators say "event").
    engine_kind = "vectorized"

    def __init__(
        self,
        *,
        protocol: str,
        application_time: float,
        segments: Iterable[Segment],
        failure_model: FailureModel,
        max_makespan: float,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        compile_start = time.perf_counter() if _obs.enabled() else None
        if application_time <= 0:
            raise ValueError(f"application_time must be > 0, got {application_time}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._protocol = str(protocol)
        self._application_time = float(application_time)
        if not max_makespan > self._application_time:
            raise ValueError(
                "max_makespan must exceed the fault-free application time "
                f"(max_slowdown must be > 1), got {max_makespan} "
                f"for T0={self._application_time}"
            )
        self._max_makespan = float(max_makespan)
        self._model = failure_model
        self._block = int(batch_size)

        # Normalise the schedule, dropping zero-duration segments exactly
        # where the event walk early-returns, and collect per-segment
        # parallel arrays for the execute loop's dispatch.
        kinds: List[int] = []
        works: List[float] = []
        chunks: List[float] = []
        ckpts: List[float] = []
        trailings: List[bool] = []
        durations: List[float] = []
        init_w: List[float] = []
        phis: List[float] = []
        stage_sets: List[Tuple[Tuple[str, float], ...]] = []
        stage_ids: List[int] = []

        def stage_id(stages: RestartStages) -> int:
            normalized = tuple((str(c), float(d)) for c, d in stages)
            for category, duration in normalized:
                if category not in CATEGORIES:
                    raise KeyError(f"unknown restart category {category!r}")
                if duration < 0:
                    raise ValueError(f"restart duration must be >= 0, got {duration}")
            try:
                return stage_sets.index(normalized)
            except ValueError:
                stage_sets.append(normalized)
                return len(stage_sets) - 1

        def append(
            kind: int,
            *,
            work: float = 0.0,
            chunk: float = 0.0,
            ckpt: float = 0.0,
            trailing: bool = False,
            duration: float = 0.0,
            init: float = 0.0,
            phi: float = 1.0,
            stages: RestartStages = (),
        ) -> None:
            kinds.append(kind)
            works.append(work)
            chunks.append(chunk)
            ckpts.append(ckpt)
            trailings.append(trailing)
            durations.append(duration)
            init_w.append(init)
            phis.append(phi)
            stage_ids.append(stage_id(stages))

        def lower(segment: Segment) -> None:
            if isinstance(segment, PeriodicSegment):
                work = float(segment.work)
                ckpt = float(segment.checkpoint_cost)
                if work <= 0.0:
                    # _periodic_section(work <= 0): a lone trailing
                    # checkpoint, or nothing.
                    if segment.trailing and ckpt > 0.0:
                        append(
                            _KIND_ATOMIC,
                            duration=0.0 + ckpt,
                            ckpt=ckpt,
                            stages=segment.stages,
                        )
                    return
                chunk = float(segment.chunk_size)
                if math.isnan(chunk) or chunk <= 0.0:
                    chunk = work
                append(
                    _KIND_PERIODIC,
                    work=work,
                    chunk=chunk,
                    ckpt=ckpt,
                    trailing=bool(segment.trailing),
                    stages=segment.stages,
                )
            elif isinstance(segment, AtomicSegment):
                work = float(segment.work)
                ckpt = float(segment.checkpoint_cost)
                # Same addition as _unprotected_section's ``segment = work
                # + checkpoint_cost``.
                duration = work + ckpt
                if duration <= 0.0:
                    return
                append(
                    _KIND_ATOMIC,
                    work=work,
                    ckpt=ckpt,
                    duration=duration,
                    stages=segment.stages,
                )
            elif isinstance(segment, AbftSegment):
                work = float(segment.work)
                phi = float(segment.phi)
                scaled = work * phi
                if scaled > _WORK_EPSILON:
                    append(
                        _KIND_ABFT,
                        work=work,
                        init=scaled,
                        phi=phi,
                        stages=segment.stages,
                    )
                # The exit partial checkpoint executes atomically with the
                # same restart sequence (run_checkpoint with
                # redo_on_failure), so it lowers to an ATOMIC segment with
                # zero work -- the same 0.0 + cost duration sum.
                exit_ckpt = float(segment.exit_checkpoint_cost)
                if exit_ckpt > 0.0:
                    append(
                        _KIND_ATOMIC,
                        duration=0.0 + exit_ckpt,
                        ckpt=exit_ckpt,
                        stages=segment.stages,
                    )
            else:
                raise TypeError(
                    f"unknown segment type {type(segment).__name__}; expected "
                    "PeriodicSegment, AtomicSegment or AbftSegment"
                )

        # Lower each compressed run's segment block ONCE: the per-segment
        # arrays are sized by the *unique* segments, and repeated runs
        # execute as a (segment, repetition) loop over the compressed block.
        # A 1000-epoch weak-scaling schedule whose epochs compile identically
        # therefore costs one block of segments, not thousands.  Plain segment
        # iterables are RLE-compressed here, so both construction styles
        # share the compact layout.
        schedule = (
            segments
            if isinstance(segments, Schedule)
            else Schedule.from_segments(segments)
        )
        run_starts: List[int] = []
        run_lens: List[int] = []
        run_counts: List[int] = []
        for run in schedule.runs:
            start = len(kinds)
            for segment in run.segments:
                lower(segment)
            length = len(kinds) - start
            if length == 0:
                # Every segment of the block was degenerate (the event walk
                # early-returns on all of them); drop the whole run.
                continue
            run_starts.append(start)
            run_lens.append(length)
            run_counts.append(int(run.count))

        self._nseg = len(kinds)
        self._run_start = np.asarray(run_starts, dtype=np.int64)
        self._run_len = np.asarray(run_lens, dtype=np.int64)
        self._run_count = np.asarray(run_counts, dtype=np.int64)
        self._nruns = len(run_starts)
        self._kind = np.asarray(kinds, dtype=np.int8)
        self._work = np.asarray(works, dtype=float)
        self._chunk = np.asarray(chunks, dtype=float)
        self._ckpt = np.asarray(ckpts, dtype=float)
        self._trailing = np.asarray(trailings, dtype=bool)
        self._duration = np.asarray(durations, dtype=float)
        self._init_w = np.asarray(init_w, dtype=float)
        self._phi = np.asarray(phis, dtype=float)
        self._stage_id = np.asarray(stage_ids, dtype=np.int64)
        totals = []
        for stages in stage_sets:
            # Python float summation order matches the event backend's
            # ``sum(duration for _, duration in stages)``.
            total = 0.0
            for _, duration in stages:
                total += duration
            totals.append(total)
        self._has_restart = np.asarray(totals, dtype=float)[self._stage_id] > 0.0
        # The execute loop's dispatch table.  The event walk accounts only
        # positive amounts, so the atomic and checkpoint charges are clamped
        # at 0.0 (adding +0.0 to a non-negative sum is exact), and a stage of
        # zero duration, which charges nothing whether its restart ends or
        # is cut short, is dropped.  ``_slack`` is the walk's final-chunk
        # bound ``work - WORK_EPSILON``.  The cursor tables give each
        # segment its block's end, the block's first segment and the run's
        # repeat count, so finishing a segment is a table lookup.
        self._paid_work = np.maximum(self._work, 0.0)
        self._paid_ckpt = np.maximum(self._ckpt, 0.0)
        self._slack = self._work - _WORK_EPSILON
        self._run_first = np.repeat(self._run_start, self._run_len)
        self._run_reps = np.repeat(self._run_count, self._run_len)
        self._block_end = np.zeros(self._nseg, dtype=bool)
        self._block_end[self._run_start + self._run_len - 1] = True
        self._kinds = frozenset(kinds)
        self._restart_sets = tuple(
            (sid, tuple((c, d) for c, d in stage_sets[sid] if d > 0.0), totals[sid])
            for sid in sorted(set(self._stage_id[self._has_restart].tolist()))
        )
        touched = {"useful_work"}
        if self._kinds & {_KIND_PERIODIC, _KIND_ATOMIC}:
            touched |= {"checkpointing", "lost_work"}
        if _KIND_ABFT in self._kinds:
            touched.add("abft_overhead")
        for _, stages, _ in self._restart_sets:
            touched.update(category for category, _ in stages)
        self._touched = tuple(c for c in CATEGORIES if c in touched)
        if compile_start is not None:
            # The "compile" engine phase: schedule normalisation + lowering
            # to the parallel segment arrays above.
            _obs.catalog.family("repro_engine_phase_seconds_total").inc(
                time.perf_counter() - compile_start,
                phase="compile",
                protocol=self._protocol,
            )

    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> str:
        """Protocol name stamped on result tables."""
        return self._protocol

    @property
    def segment_count(self) -> int:
        """Number of (non-degenerate) rounds the *expanded* schedule executes.

        Repeated runs count every repetition, matching the historical
        flattened layout; the stored arrays are sized by
        :attr:`unique_round_count` instead.
        """
        return int(np.sum(self._run_len * self._run_count)) if self._nruns else 0

    @property
    def unique_round_count(self) -> int:
        """Number of unique rounds actually stored (the RLE-compressed size).

        Bounded by the compiled schedule's compressed run structure, not by
        the epoch count: a 1000-epoch workload with identical epochs stores
        one epoch's rounds.
        """
        return self._nseg

    def run_trials(self, runs: int, seed: Optional[int] = None) -> TrialTable:
        """Simulate ``runs`` independent trials and return their table.

        Trial ``i`` consumes ``RandomStreams(seed).generator_for_trial(i)``
        exactly as the serial event runner does, so results are reproducible
        and bit-identical to the event backend for any ``runs``.
        """
        if runs <= 0:
            raise ValueError(f"runs must be a positive integer, got {runs}")
        return self.run_trial_range(0, int(runs), seed=seed)

    def run_trial_range(
        self, start: int, stop: int, seed: Optional[int] = None
    ) -> TrialTable:
        """Simulate the contiguous campaign slice ``[start, stop)``.

        Trial generators are derived from the *absolute* trial indices
        (``RandomStreams(seed).generator_for_trial(i)`` for ``i`` in
        ``start..stop-1``), exactly like
        :func:`repro.simulation.runner.simulate_trial_range`, so a campaign
        split into contiguous shards -- at any boundaries -- concatenates to
        the bit-identical serial table.  This is the worker-side entry point
        of :class:`~repro.campaign.executor.ShardedVectorizedExecutor`, as
        the event simulators' ``run_trial_range`` is.  The
        range itself runs in chunks of :data:`TRIAL_CHUNK` trials under the
        same contract; instrumented, it still counts as one engine run.
        """
        if start < 0 or stop <= start:
            raise ValueError(
                f"need 0 <= start < stop, got start={start}, stop={stop}"
            )
        start, stop = int(start), int(stop)
        if not _obs.enabled():
            # The no-op fast path: the disabled-instrumentation overhead is
            # this one flag check (gated at <= 2% by
            # benchmarks/test_bench_obs.py; the observed cost is far below
            # measurement noise).
            return self._run_chunks(start, stop, seed)
        phases = dict.fromkeys(("derive", "sample", "execute", "gather"), 0.0)
        counts = dict.fromkeys(("rounds", "trial_rounds"), 0)
        if _obs.tracing():
            with _obs.span(
                "engine",
                category="engine",
                protocol=self._protocol,
                trials=stop - start,
                start=start,
                stop=stop,
            ) as engine_span:
                table = self._run_chunks(start, stop, seed, phases, counts)
                self._record_run_metrics(stop - start, engine_span, phases, counts)
                return table
        table = self._run_chunks(start, stop, seed, phases, counts)
        self._record_run_metrics(stop - start, None, phases, counts)
        return table

    def _run_chunks(
        self,
        start: int,
        stop: int,
        seed: Optional[int],
        phases: Optional[Dict[str, float]] = None,
        counts: Optional[Dict[str, int]] = None,
    ) -> TrialTable:
        """Run ``[start, stop)`` chunk by chunk and concatenate in trial order.

        Each chunk derives its own streams and failure sampler, so the
        previous chunk's generators are garbage before the next chunk's are
        built.  ``phases`` and ``counts`` (profiling only) accumulate
        per-phase seconds and the round counts.
        """
        tables = [
            self._run(
                TrialStreams(seed, lo, min(lo + TRIAL_CHUNK, stop)), phases, counts
            )
            for lo in range(start, stop, TRIAL_CHUNK)
        ]
        if len(tables) == 1:
            return tables[0]
        begin = time.perf_counter() if phases is not None else 0.0
        table = TrialTable.concatenate(tables)
        if phases is not None:
            phases["gather"] += time.perf_counter() - begin
        return table

    def _run(
        self,
        streams: TrialStreams,
        phases: Optional[Dict[str, float]] = None,
        counts: Optional[Dict[str, int]] = None,
    ) -> TrialTable:
        """Run one chunk of trials through the schedule (see the module notes).

        ``phases`` and ``counts`` (profiling only) accumulate per-phase
        seconds and the round / trial-round counts.
        """
        n = len(streams)
        profile = phases is not None
        run_begin = time.perf_counter() if profile else 0.0
        nseg = self._nseg
        cap = self._max_makespan
        block = self._block
        width = block + 1
        tiny = np.finfo(float).tiny
        kinds = self._kinds
        mixed = len(kinds) > 1
        kind_tab, init_tab, stage_tab = self._kind, self._init_w, self._stage_id
        work_tab, chunk_tab, trailing_tab = self._work, self._chunk, self._trailing
        slack_tab = self._slack
        ckpt_tab, paid_work, paid_ckpt = self._ckpt, self._paid_work, self._paid_ckpt
        duration_tab, phi_tab = self._duration, self._phi
        restart_tab = self._has_restart
        block_end, run_first = self._block_end, self._run_first
        run_reps = self._run_reps
        restart_sets = self._restart_sets
        touched = self._touched

        # Failure windows: row ``i`` holds trial ``i``'s current block of
        # absolute failure times plus a -inf sentinel column, and a trial's
        # cursor ``cur`` is a flat index into ``flat``.  One gather reads
        # every live trial's next failure; a cursor on the sentinel reads as
        # stale (not after ``t``) and takes the refill path.
        windows = np.full((n, width), -np.inf)
        flat = windows.reshape(-1)
        last = np.zeros(n)

        # The model decides how its per-trial blocks are drawn: stateless
        # laws build each trial's generator from the chunk's state rows and
        # sample from it, trace replay advances per-trial cursors over the
        # shared trace array and builds no generator.  Either way the draws
        # match the event backend's per-trial FailureTimeline stream.  Its
        # construction is the "derive" engine phase.
        derive_begin = time.perf_counter() if profile else 0.0
        sampler = self._model.trial_block_sampler(streams)
        derive_seconds = time.perf_counter() - derive_begin if profile else 0.0

        def refill(rows: np.ndarray) -> None:
            draws = np.maximum(sampler.sample_blocks(rows, block), tiny)
            # Row-wise cumsum performs the same float64 additions in the
            # same order as the event timeline's per-block 1-D cumsum.
            times = last[rows, None] + np.cumsum(draws, axis=1)
            windows[rows, :block] = times
            last[rows] = times[:, -1]

        # Phase profiling: only when enabled is ``refill`` wrapped with a
        # timer (accumulating the "sample" phase) -- the disabled path runs
        # the bare closure with zero added per-call work.  The arithmetic of
        # the run is untouched either way: timers never change values.
        sample_seconds = 0.0
        if profile:
            unprofiled_refill = refill

            def refill(rows: np.ndarray) -> None:
                nonlocal sample_seconds
                begin = time.perf_counter()
                unprofiled_refill(rows)
                sample_seconds += time.perf_counter() - begin

        def regather(stale, nf, cur, t, row) -> None:
            """Step the ``stale`` cursors to the first failure after ``t``.

            A stale cursor sits on a failure at or before ``t`` (the one a
            trial just failed at is already stepped past, so only ties of
            equal failure times land here) or on the sentinel, which
            refills the row.  This is ``FailureTimeline.next_failure_after``.
            """
            while stale.size:
                ended = nf[stale] == -np.inf
                cur[stale] += 1
                if ended.any():
                    rows = row[stale[ended]]
                    refill(rows)
                    cur[stale[ended]] = rows * width
                got = flat[cur[stale]]
                nf[stale] = got
                stale = stale[got <= t[stale]]

        def complete(done, seg, rep, w, fin) -> None:
            """Move the trials of mask ``done`` past their finished segment.

            The (segment, repetition) cursor walks the compressed schedule:
            past a block's last segment the repetition wraps to the block's
            first one, past the run's last repetition the next run starts
            (runs are stored back to back).  Trials past the last run are
            marked ``fin``; the rest enter their next segment's initial
            state.
            """
            idx = np.flatnonzero(done)
            if not idx.size:
                return
            s = seg[idx]
            at_end = block_end[s]
            r = rep[idx] + at_end
            again = at_end & (r < run_reps[s])
            nxt = np.where(again, run_first[s], s + 1)
            r[at_end & ~again] = 0
            ended = nxt >= nseg
            fin[idx[ended]] = True
            go = ~ended
            idx, nxt = idx[go], nxt[go]
            seg[idx] = nxt
            rep[idx] = r[go]
            w[idx] = init_tab[nxt]

        # Output columns, written by chunk offset as trials retire.
        makespan = np.zeros(n)
        truncated = np.zeros(n, dtype=bool)
        failure_count = np.zeros(n, dtype=np.int64)
        columns = {category: np.zeros(n) for category in touched}

        # Live-trial state, compacted to the trials still running.  ``seg``
        # and ``rep`` are the schedule cursor, ``restart`` the mode (paying
        # a restart sequence, else in the segment's body), ``w`` the
        # segment's progress (work done, or an ABFT section's scaled
        # remaining work).  Every failure cursor starts on its row's
        # sentinel, so the first round fills every row.
        row = np.arange(n)
        cur = row * width + block
        t = np.zeros(n)
        w = np.full(n, init_tab[0] if nseg else 0.0)
        seg = np.zeros(n, dtype=np.int64)
        rep = np.zeros(n, dtype=np.int64)
        restart = np.zeros(n, dtype=bool)
        fails = np.zeros(n, dtype=np.int64)
        acc = {category: np.zeros(n) for category in touched}
        fin = np.full(n, nseg == 0)

        rounds = trial_rounds = 0
        while True:
            # Retire the trials that finished the schedule last round and
            # those past the cap (the event walk's check at the top of
            # every loop iteration), then compact the live arrays.
            over = t > cap
            out = over | fin
            if out.any():
                gone = np.flatnonzero(out)
                rows = row[gone]
                makespan[rows] = t[gone]
                truncated[rows] = ~fin[gone]
                failure_count[rows] = fails[gone]
                for category in touched:
                    columns[category][rows] = acc[category][gone]
                keep = np.flatnonzero(~out)
                if not keep.size:
                    break
                row, cur, t, w, seg, rep, restart, fails = (
                    a[keep] for a in (row, cur, t, w, seg, rep, restart, fails)
                )
                acc = {category: a[keep] for category, a in acc.items()}
            live = row.size
            rounds += 1
            trial_rounds += live
            fin = np.zeros(live, dtype=bool)
            # A one-segment schedule reads its parameters as scalars.
            s = seg if nseg > 1 else 0

            nf = flat[cur]
            stale = nf <= t
            if stale.any():
                regather(np.flatnonzero(stale), nf, cur, t, row)

            # ---- restart sequences ----------------------------------- #
            if restart_sets and restart.any():
                if len(restart_sets) == 1:
                    groups = ((restart_sets[0], restart),)
                else:
                    sid = stage_tab[s]
                    groups = tuple(
                        (entry, restart & (sid == entry[0]))
                        for entry in restart_sets
                    )
                for (_, stages, total), grp in groups:
                    end = t + total
                    ok = nf >= end
                    suc = grp & ok
                    fail = grp ^ suc
                    remaining = nf - t
                    for category, duration in stages:
                        # A failed attempt charges min(remaining, stage)
                        # per stage in order, like run_restart.
                        spent = np.minimum(remaining, duration)
                        acc[category] += np.where(
                            suc, duration, np.where(fail, spent, 0.0)
                        )
                        remaining -= spent
                    t = np.where(grp, np.minimum(nf, end), t)
                    fails += fail
                    cur += fail
                    restart = restart ^ suc
                    if _KIND_ABFT in kinds:
                        # An ABFT section whose remaining work fell below
                        # the cutoff ends right after its restart, like the
                        # event walk's while-condition re-check.
                        complete(
                            suc & (kind_tab[s] == _KIND_ABFT) & (w <= _WORK_EPSILON),
                            seg,
                            rep,
                            w,
                            fin,
                        )

            # ---- segment bodies --------------------------------------- #
            # A restart that ended strictly before the next failure goes on
            # into its segment body in the same round, after the cap check.
            body = ~(restart | fin) & (nf > t) & (t <= cap)
            if mixed:
                kind = kind_tab[s]

            if _KIND_PERIODIC in kinds:
                act = body & (kind == _KIND_PERIODIC) if mixed else body
                work, size, slack = work_tab[s], chunk_tab[s], slack_tab[s]
                ckpt, paid, trailing = ckpt_tab[s], paid_ckpt[s], trailing_tab[s]
                has_restart = restart_tab[s]
                for step in range(CHUNKS_PER_ROUND):
                    chunk = np.minimum(size, work - w)
                    grown = w + chunk
                    do_ckpt = (grown < slack) | trailing
                    end = t + np.where(do_ckpt, chunk + ckpt, chunk)
                    ok = nf >= end
                    suc = act & ok
                    fail = act ^ suc
                    acc["useful_work"] += np.where(suc, chunk, 0.0)
                    acc["checkpointing"] += np.where(suc & do_ckpt, paid, 0.0)
                    acc["lost_work"] += np.where(fail, nf - t, 0.0)
                    t = np.where(act, np.minimum(nf, end), t)
                    w = np.where(suc, grown, w)
                    fails += fail
                    cur += fail
                    restart |= fail & has_restart
                    done = suc & (grown >= work)
                    complete(done, seg, rep, w, fin)
                    if step + 1 == CHUNKS_PER_ROUND:
                        break
                    # The next chunk runs against the same failure while it
                    # is still strictly after the clock and the cap holds.
                    act = suc & ~done & (nf > t) & (t <= cap)
                    if not act.any():
                        break

            if _KIND_ATOMIC in kinds:
                act = body & (kind == _KIND_ATOMIC) if mixed else body
                end = t + duration_tab[s]
                ok = nf >= end
                suc = act & ok
                fail = act ^ suc
                acc["useful_work"] += np.where(suc, paid_work[s], 0.0)
                acc["checkpointing"] += np.where(suc, paid_ckpt[s], 0.0)
                acc["lost_work"] += np.where(fail, nf - t, 0.0)
                t = np.where(act, np.minimum(nf, end), t)
                fails += fail
                cur += fail
                restart |= fail & restart_tab[s]
                complete(suc, seg, rep, w, fin)

            if _KIND_ABFT in kinds:
                act = body & (kind == _KIND_ABFT) if mixed else body
                end = t + w
                ok = nf >= end
                suc = act & ok
                fail = act ^ suc
                elapsed = np.where(ok, w, nf - t)
                useful = elapsed / phi_tab[s]
                acc["useful_work"] += np.where(act, useful, 0.0)
                acc["abft_overhead"] += np.where(act, elapsed - useful, 0.0)
                t = np.where(act, np.minimum(nf, end), t)
                w = np.where(fail, w - elapsed, w)
                fails += fail
                cur += fail
                has_restart = restart_tab[s]
                restart |= fail & has_restart
                # Without a restart sequence the event walk falls straight
                # back to the loop condition: a residual below the cutoff
                # ends the section.
                complete(
                    suc | (fail & ~has_restart & (w <= _WORK_EPSILON)),
                    seg,
                    rep,
                    w,
                    fin,
                )

        gather_begin = time.perf_counter() if profile else 0.0
        table = TrialTable.empty(
            n, protocol=self._protocol, application_time=self._application_time
        )
        data = table.data
        data["makespan"] = makespan
        if nseg == 0:
            # Degenerate empty schedule: the event walk's makespan is 0 and
            # ExecutionTrace.waste defines the waste as 0 there.
            data["waste"] = 0.0
        else:
            data["waste"] = 1.0 - self._application_time / makespan
        data["failure_count"] = failure_count
        data["truncated"] = truncated
        for category in touched:
            data[category] = columns[category]
        if profile:
            finish = time.perf_counter()
            phases["derive"] += derive_seconds
            phases["sample"] += sample_seconds
            phases["execute"] += (
                gather_begin - run_begin - derive_seconds - sample_seconds
            )
            phases["gather"] += finish - gather_begin
            counts["rounds"] += rounds
            counts["trial_rounds"] += trial_rounds
        return table

    def _record_run_metrics(
        self,
        trials: int,
        span,
        phases: Dict[str, float],
        counts: Dict[str, int],
    ) -> None:
        """Accumulate one instrumented run into the global registry.

        When an engine span is open (tracing), the phase split and the round
        counts also ride on the span as arguments -- that is how per-shard
        figures from pool workers reach the exported trace, since
        worker-side registries are process-local and never shipped home.
        """
        phase_family = _obs.catalog.family("repro_engine_phase_seconds_total")
        for phase, seconds in phases.items():
            phase_family.inc(max(seconds, 0.0), phase=phase, protocol=self._protocol)
        for family, amount in (
            ("repro_engine_runs_total", 1),
            ("repro_engine_trials_total", trials),
            ("repro_engine_rounds_total", counts["rounds"]),
            ("repro_engine_trial_rounds_total", counts["trial_rounds"]),
        ):
            _obs.catalog.family(family).inc(amount, protocol=self._protocol)
        if span is not None:
            span.set_args(
                **{
                    f"{phase}_seconds": round(max(seconds, 0.0), 6)
                    for phase, seconds in phases.items()
                },
                **counts,
            )
