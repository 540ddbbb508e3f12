"""Vectorized across-trials Monte-Carlo engine.

The event-driven simulators (:mod:`repro.core.protocols`) walk one trial at
a time through a Python state machine.  Their walks are compositions of a
small set of deterministic building blocks -- periodically checkpointed
sections, atomic (unprotected or checkpoint-only) segments, ABFT-protected
stretches and restartable recovery sequences -- scheduled in an order that
depends only on the configuration, never on the failure draws.  That makes
them batchable: :class:`VectorizedPhasedSimulator` keeps one NumPy state
vector per quantity (clock, progress, failure cursor, segment index, mode)
and advances **all trials simultaneously**, one state-machine step per round,
through any compiled :class:`~repro.simulation.schedule.Schedule` of
periodic / atomic / ABFT segments.  Every protocol with a registered
schedule compiler gets this engine without further code:
:attr:`repro.core.registry.ProtocolEntry.vectorized_cls` compiles the
schedule and builds the engine.

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
  execute as a loop over the *compressed* block -- the per-round arrays are
  sized by unique rounds, so a 1000-epoch weak-scaling workload costs the
  same setup and memory as a single epoch;
* :meth:`VectorizedPhasedSimulator.run_trial_range` simulates any
  contiguous ``[start, stop)`` slice of a campaign with the per-trial
  generators derived from the *absolute* indices, so
  :class:`~repro.campaign.executor.ShardedVectorizedExecutor` can fan one
  campaign over worker processes and reassemble bit-identical results;
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
#: temporaries are alive at a time.  On the 100k-trial reference cell 8192
#: was the fastest size measured (4096 no faster, 16384 no faster and ~35%
#: more peak memory).
TRIAL_CHUNK = 8192


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
        # parallel arrays for the gather-based round dispatch.
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
                # redo_on_failure), so it lowers to an ATOMIC round with
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

        # Lower each compressed run's segment block ONCE: the per-round
        # arrays are sized by *unique* rounds, and repeated runs execute as
        # a (run, repetition, offset) loop over the compressed block.  A
        # 1000-epoch weak-scaling schedule whose epochs compile identically
        # therefore costs one block of rounds, not thousands.  Plain segment
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
        self._stage_sets = stage_sets
        self._stage_id = np.asarray(stage_ids, dtype=np.int64)
        totals = []
        for stages in stage_sets:
            # Python float summation order matches the event backend's
            # ``sum(duration for _, duration in stages)``.
            total = 0.0
            for _, duration in stages:
                total += duration
            totals.append(total)
        self._stage_total = np.asarray(totals, dtype=float)
        self._has_restart = (
            self._stage_total[self._stage_id] > 0.0
            if self._nseg
            else np.zeros(0, dtype=bool)
        )
        if compile_start is not None:
            # The "compile" engine phase: schedule normalisation + lowering
            # to the parallel round arrays above.
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
        of :class:`~repro.campaign.executor.ShardedVectorizedExecutor`.  The
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
        if _obs.tracing():
            with _obs.span(
                "engine",
                category="engine",
                protocol=self._protocol,
                trials=stop - start,
                start=start,
                stop=stop,
            ) as engine_span:
                table = self._run_chunks(start, stop, seed, phases)
                self._record_run_metrics(stop - start, engine_span, **phases)
                return table
        table = self._run_chunks(start, stop, seed, phases)
        self._record_run_metrics(stop - start, None, **phases)
        return table

    def _run_chunks(
        self,
        start: int,
        stop: int,
        seed: Optional[int],
        phases: Optional[Dict[str, float]] = None,
    ) -> TrialTable:
        """Run ``[start, stop)`` chunk by chunk and concatenate in trial order.

        Each chunk derives its own streams and failure sampler, so the
        previous chunk's generators are garbage before the next chunk's are
        built.  ``phases`` (profiling only) accumulates per-phase seconds.
        """
        tables = [
            self._run(TrialStreams(seed, lo, min(lo + TRIAL_CHUNK, stop)), phases)
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
    ) -> TrialTable:
        n = len(streams)
        profile = phases is not None
        run_begin = time.perf_counter() if profile else 0.0
        model = self._model

        block = self._block
        tiny = np.finfo(float).tiny
        cap = self._max_makespan
        nseg = self._nseg
        kind_arr = self._kind
        work_arr = self._work
        chunk_arr = self._chunk
        ckpt_arr = self._ckpt
        trailing_arr = self._trailing
        duration_arr = self._duration
        init_w_arr = self._init_w
        phi_arr = self._phi
        stage_id_arr = self._stage_id
        stage_sets = self._stage_sets
        stage_totals = self._stage_total
        has_restart_arr = self._has_restart
        run_start_arr = self._run_start
        run_len_arr = self._run_len
        run_count_arr = self._run_count
        nruns = self._nruns

        # Failure-stream windows: each row holds the current block of
        # absolute failure times; ``base`` is the global index of the row's
        # first entry.  Only the next failure (global cursor ``k``) is ever
        # read, so one block per trial bounds memory at runs x batch_size.
        F = np.empty((n, block), dtype=float)
        base = np.zeros(n, dtype=np.int64)
        last = np.zeros(n, dtype=float)
        filled = np.zeros(n, dtype=bool)

        # The model decides how its per-trial blocks are drawn: stateless
        # laws build each trial's generator from the chunk's state rows and
        # sample from it, trace replay advances per-trial cursors over the
        # shared trace array and builds no generator.  Either way the draws
        # match the event backend's per-trial FailureTimeline stream.  Its
        # construction is the "derive" engine phase.
        derive_begin = time.perf_counter() if profile else 0.0
        sampler = model.trial_block_sampler(streams)
        derive_seconds = time.perf_counter() - derive_begin if profile else 0.0

        def refill(indices: np.ndarray) -> None:
            draws = np.maximum(sampler.sample_blocks(indices, block), tiny)
            # Row-wise cumsum performs the same float64 additions in the
            # same order as the historical per-trial 1-D cumsum.
            times = last[indices, None] + np.cumsum(draws, axis=1)
            F[indices] = times
            last[indices] = times[:, -1]
            seen = filled[indices]
            if seen.any():
                base[indices[seen]] += block
            filled[indices] = True

        # Phase profiling: only when enabled is ``refill`` wrapped with a
        # timer (accumulating the "sample" phase) -- the disabled path runs
        # the bare closure with zero added per-call work.  The arithmetic of
        # the run is untouched either way: timers never change values.
        sample_seconds = 0.0
        if profile:
            unprofiled_refill = refill

            def refill(indices: np.ndarray) -> None:
                nonlocal sample_seconds
                begin = time.perf_counter()
                unprofiled_refill(indices)
                sample_seconds += time.perf_counter() - begin

        # Per-trial state.  The schedule cursor is the triple (run,
        # repetition, offset) over the compressed runs; ``seg`` caches the
        # derived compact round index ``run_start[run] + offset`` that the
        # gather-based dispatch reads every iteration.
        t = np.zeros(n, dtype=float)
        w = np.zeros(n, dtype=float)
        seg = np.zeros(n, dtype=np.int64)
        run_i = np.zeros(n, dtype=np.int64)
        rep = np.zeros(n, dtype=np.int64)
        off = np.zeros(n, dtype=np.int64)
        k = np.zeros(n, dtype=np.int64)
        mode = np.zeros(n, dtype=np.int8)  # 0 = segment body, 1 = restart
        active = np.ones(n, dtype=bool)
        makespan = np.zeros(n, dtype=float)
        truncated = np.zeros(n, dtype=bool)
        failures = np.zeros(n, dtype=np.int64)
        acc = {category: np.zeros(n, dtype=float) for category in CATEGORIES}

        def ensure(indices: np.ndarray) -> None:
            """Materialise the failure at cursor ``k`` for every index."""
            need = indices[k[indices] - base[indices] >= block]
            if need.size:
                refill(need)

        def advance(indices: np.ndarray) -> None:
            """Move ``k`` to the first failure strictly after ``t``."""
            idx = indices
            while idx.size:
                ensure(idx)
                passed = F[idx, k[idx] - base[idx]] <= t[idx]
                idx = idx[passed]
                k[idx] += 1

        def complete(indices: np.ndarray) -> np.ndarray:
            """Finish the current round; returns the trials that go on.

            Advances the (run, repetition, offset) cursor over the
            compressed schedule -- past the block's last round the
            repetition wraps, past the run's last repetition the next run
            starts -- so repeated runs re-execute the same compact rounds.
            Trials past the last run record their makespan and retire; the
            rest enter the next round with its initial progress state.
            """
            off[indices] += 1
            wrapped = indices[off[indices] >= run_len_arr[run_i[indices]]]
            if wrapped.size:
                off[wrapped] = 0
                rep[wrapped] += 1
                advanced = wrapped[rep[wrapped] >= run_count_arr[run_i[wrapped]]]
                if advanced.size:
                    rep[advanced] = 0
                    run_i[advanced] += 1
            ended = run_i[indices] >= nruns
            done = indices[ended]
            if done.size:
                makespan[done] = t[done]
                active[done] = False
            cont = indices[~ended]
            if cont.size:
                seg[cont] = run_start_arr[run_i[cont]] + off[cont]
                w[cont] = init_w_arr[seg[cont]]
                mode[cont] = 0
            return cont

        if nseg == 0:
            active[:] = False
        else:
            w[:] = init_w_arr[0]
            refill(np.arange(n))

        while True:
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            # Cap check first, exactly like _check_cap at the top of every
            # event-backend loop iteration (section body or restart alike).
            over = t[idx] > cap
            if over.any():
                hit = idx[over]
                truncated[hit] = True
                makespan[hit] = t[hit]
                active[hit] = False
                idx = idx[~over]
                if idx.size == 0:
                    continue
            ensure(idx)

            in_body = mode[idx] == 0
            body = idx[in_body]
            rst = idx[~in_body]

            if body.size:
                body_kind = kind_arr[seg[body]]

                # ---- periodic sections -------------------------------- #
                per = body[body_kind == _KIND_PERIODIC]
                if per.size:
                    s = seg[per]
                    nf = F[per, k[per] - base[per]]
                    wk = work_arr[s]
                    chunk = np.minimum(chunk_arr[s], wk - w[per])
                    is_last = w[per] + chunk >= wk - _WORK_EPSILON
                    do_ckpt = trailing_arr[s] | ~is_last
                    ckpt = ckpt_arr[s]
                    seg_len = np.where(do_ckpt, chunk + ckpt, chunk)
                    ok = nf >= t[per] + seg_len

                    suc = per[ok]
                    if suc.size:
                        acc["useful_work"][suc] += chunk[ok]
                        cmask = do_ckpt[ok] & (ckpt[ok] > 0.0)
                        if cmask.any():
                            acc["checkpointing"][suc[cmask]] += ckpt[ok][cmask]
                        t[suc] += seg_len[ok]
                        w[suc] += chunk[ok]
                        done = w[suc] >= wk[ok]
                        finished = suc[done]
                        advance(suc[~done])
                        if finished.size:
                            advance(complete(finished))

                    fail = per[~ok]
                    if fail.size:
                        failed_at = nf[~ok]
                        acc["lost_work"][fail] += failed_at - t[fail]
                        failures[fail] += 1
                        t[fail] = failed_at
                        restartable = has_restart_arr[seg[fail]]
                        mode[fail[restartable]] = 1
                        advance(fail)

                # ---- atomic segments ---------------------------------- #
                ato = body[body_kind == _KIND_ATOMIC]
                if ato.size:
                    s = seg[ato]
                    nf = F[ato, k[ato] - base[ato]]
                    dur = duration_arr[s]
                    ok = nf >= t[ato] + dur

                    suc = ato[ok]
                    if suc.size:
                        # The event walk accounts only positive amounts;
                        # adding 0.0 is bit-identical.
                        acc["useful_work"][suc] += work_arr[s][ok]
                        acc["checkpointing"][suc] += ckpt_arr[s][ok]
                        t[suc] += dur[ok]
                        advance(complete(suc))

                    fail = ato[~ok]
                    if fail.size:
                        failed_at = nf[~ok]
                        acc["lost_work"][fail] += failed_at - t[fail]
                        failures[fail] += 1
                        t[fail] = failed_at
                        restartable = has_restart_arr[seg[fail]]
                        mode[fail[restartable]] = 1
                        advance(fail)

                # ---- ABFT sections ------------------------------------ #
                abf = body[body_kind == _KIND_ABFT]
                if abf.size:
                    s = seg[abf]
                    nf = F[abf, k[abf] - base[abf]]
                    rem = w[abf]
                    phi = phi_arr[s]
                    ok = nf >= t[abf] + rem

                    suc = abf[ok]
                    if suc.size:
                        useful = rem[ok] / phi[ok]
                        acc["useful_work"][suc] += useful
                        acc["abft_overhead"][suc] += rem[ok] - useful
                        t[suc] += rem[ok]
                        advance(complete(suc))

                    fail = abf[~ok]
                    if fail.size:
                        elapsed = nf[~ok] - t[fail]
                        useful = elapsed / phi[~ok]
                        acc["useful_work"][fail] += useful
                        acc["abft_overhead"][fail] += elapsed - useful
                        w[fail] = w[fail] - elapsed
                        failures[fail] += 1
                        t[fail] = nf[~ok]
                        restartable = has_restart_arr[seg[fail]]
                        mode[fail[restartable]] = 1
                        # Without a restart sequence the event walk falls
                        # straight back to the loop condition: a residual
                        # below the cutoff ends the section.
                        bare = fail[~restartable]
                        exhausted = (
                            bare[w[bare] <= _WORK_EPSILON]
                            if bare.size
                            else bare
                        )
                        advance(fail)
                        if exhausted.size:
                            advance(complete(exhausted))

            if rst.size:
                rst_sids = stage_id_arr[seg[rst]]
                for sid in np.unique(rst_sids):
                    grp = rst[rst_sids == sid]
                    stages = stage_sets[sid]
                    total = float(stage_totals[sid])
                    nf = F[grp, k[grp] - base[grp]]
                    ok = nf >= t[grp] + total

                    suc = grp[ok]
                    if suc.size:
                        for category, duration in stages:
                            if duration > 0.0:
                                acc[category][suc] += duration
                        t[suc] += total
                        mode[suc] = 0
                        # An ABFT section whose remaining work fell below
                        # the cutoff ends right after its restart, exactly
                        # like the event walk's while-condition re-check.
                        abft_done = suc[
                            (kind_arr[seg[suc]] == _KIND_ABFT)
                            & (w[suc] <= _WORK_EPSILON)
                        ]
                        advance(suc)
                        if abft_done.size:
                            advance(complete(abft_done))

                    fail = grp[~ok]
                    if fail.size:
                        failed_at = nf[~ok]
                        remaining = failed_at - t[fail]
                        for category, duration in stages:
                            spent = np.minimum(remaining, duration)
                            acc[category][fail] += spent
                            remaining = remaining - spent
                        failures[fail] += 1
                        t[fail] = failed_at
                        advance(fail)

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
        data["failure_count"] = failures
        data["truncated"] = truncated
        for category in CATEGORIES:
            data[category] = acc[category]
        if profile:
            finish = time.perf_counter()
            phases["derive"] += derive_seconds
            phases["sample"] += sample_seconds
            phases["execute"] += (
                gather_begin - run_begin - derive_seconds - sample_seconds
            )
            phases["gather"] += finish - gather_begin
        return table

    def _record_run_metrics(
        self, trials: int, span, **phase_seconds: float
    ) -> None:
        """Accumulate one instrumented run into the global registry.

        When an engine span is open (tracing), the phase split also rides
        on the span as arguments -- that is how per-shard phase timings
        from pool workers reach the exported trace, since worker-side
        registries are process-local and never shipped home.
        """
        phases = _obs.catalog.family("repro_engine_phase_seconds_total")
        for phase, seconds in phase_seconds.items():
            phases.inc(max(seconds, 0.0), phase=phase, protocol=self._protocol)
        _obs.catalog.family("repro_engine_runs_total").inc(
            protocol=self._protocol
        )
        _obs.catalog.family("repro_engine_trials_total").inc(
            trials, protocol=self._protocol
        )
        if span is not None:
            span.set_args(
                **{
                    f"{phase}_seconds": round(max(seconds, 0.0), 6)
                    for phase, seconds in phase_seconds.items()
                }
            )
