"""Segment-schedule IR: one protocol description, two execution backends.

The paper's protocols (Sections III-V) are compositions of a small set of
deterministic building blocks -- periodically checkpointed sections, atomic
(unprotected or checkpoint-only) segments and ABFT-protected stretches --
scheduled in an order that depends only on the configuration, never on the
failure draws.  This module makes that composition a first-class value: a
protocol *compiles* to a :class:`Schedule` (a run-length-compressed list of
:class:`PeriodicSegment` / :class:`AtomicSegment` / :class:`AbftSegment`
with per-segment restart stages), and both Monte-Carlo backends execute the
compiled object:

* the **event backend** walks it one trial at a time through
  :class:`ScheduleInterpreter` against a
  :class:`~repro.failures.timeline.FailureTimeline` and a
  :class:`~repro.simulation.trace.TraceRecorder`;
* the **vectorized backend**
  (:class:`~repro.simulation.vectorized.VectorizedPhasedSimulator`) advances
  all trials of a campaign simultaneously over the same segments.

Adding a protocol is therefore one ``compile_schedule()`` function
registered with ``register_protocol(name, kind="schedule")`` -- not a pair
of hand-written walks that can drift apart.

Bit-identity contract
---------------------
The interpreter replays the historical hand-written event walks IEEE-754
op for op: segment sums, the final-chunk slack (``work_done + chunk >=
work - 1e-12``), partial restart accounting (``min(remaining, duration)``
per stage in order), ABFT progress splits (``useful = elapsed / phi``) and
the cap check at the top of every loop iteration.  The pinned-hex bench
baselines and the event/vectorized property tests hold across the walks
exactly because these operations are pinned; do not "simplify" them.

Run-length compression
----------------------
:class:`Schedule` stores ``(segment block, repeat count)`` runs, so a
1000-epoch weak-scaling workload whose epochs compile identically costs two
runs, not thousands of segment objects.  Frozen-dataclass equality is what
makes the compression sound: two segments compare equal iff they execute
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.simulation.events import EventKind
from repro.simulation.trace import TraceRecorder

__all__ = [
    "SimulationHorizonExceeded",
    "RestartStages",
    "WORK_EPSILON",
    "PeriodicSegment",
    "AtomicSegment",
    "AbftSegment",
    "Segment",
    "ScheduleRun",
    "Schedule",
    "ScheduleInterpreter",
    "compile_schedule",
    "periodic_chunk_size",
]

#: Ordered ``(category, duration)`` pairs paid after a failure.
RestartStages = Sequence[Tuple[str, float]]

#: The event walk's "final chunk" slack (``work_done + chunk >= work -
#: WORK_EPSILON``) and the ABFT section's remaining-work cutoff.  Pinned:
#: changing it shifts every simulated result.
WORK_EPSILON = 1e-12

#: Signature of the cap check injected into the walk functions.
CapCheck = Callable[[float], None]


class SimulationHorizonExceeded(RuntimeError):
    """Raised internally when a run exceeds the configured makespan cap.

    In infeasible regimes (e.g. the checkpoint cost exceeds the MTBF) a
    simulated execution may essentially never finish; the cap turns that into
    a truncated trace whose waste is ~1 instead of an endless loop.
    """

    def __init__(self, time: float) -> None:
        super().__init__(f"simulation exceeded its makespan cap at t={time:.6g}s")
        self.time = time


def _no_cap(time: float) -> None:
    """Default cap check: never truncate."""


# --------------------------------------------------------------------- #
# Segments
# --------------------------------------------------------------------- #
def periodic_chunk_size(period: float, checkpoint_cost: float, work: float) -> float:
    """Chunk size of a periodic section for a checkpointing ``period``.

    An invalid period (NaN, or not larger than the checkpoint cost) means
    "no intermediate checkpoint": the whole section is a single chunk, the
    degenerate behaviour a real runtime would adopt when the optimal-period
    formula has no solution.
    """
    period = float(period)
    if math.isnan(period) or period <= checkpoint_cost:
        return float(work)
    return period - checkpoint_cost


@dataclass(frozen=True)
class PeriodicSegment:
    """``work`` seconds under periodic checkpointing.

    Work is cut into chunks of ``chunk_size`` seconds, each followed by a
    checkpoint of ``checkpoint_cost`` seconds (the last chunk only when
    ``trailing``); a failure loses the un-checkpointed progress and pays
    ``stages``, itself restartable.  ``work <= 0`` degenerates to a lone
    trailing checkpoint when ``trailing`` and the cost is positive, nothing
    otherwise.

    ``during`` labels the segment's ``FAILURE`` event payloads (the NoFT
    walk uses ``"no-ft"``); ``enter_event`` / ``exit_event`` optionally
    bracket the segment with phase markers in recorded traces.
    """

    work: float
    chunk_size: float
    checkpoint_cost: float
    trailing: bool
    stages: RestartStages
    during: str = "periodic"
    enter_event: Optional[EventKind] = None
    exit_event: Optional[EventKind] = None


@dataclass(frozen=True)
class AtomicSegment:
    """``work`` plus an optional trailing checkpoint, executed atomically.

    A failure anywhere in the segment (work or trailing checkpoint) pays
    ``stages`` and re-executes it entirely.  Zero-duration segments execute
    nothing (phase markers, if any, are still recorded).
    """

    work: float
    checkpoint_cost: float
    stages: RestartStages
    during: str = "unprotected"
    enter_event: Optional[EventKind] = None
    exit_event: Optional[EventKind] = None


@dataclass(frozen=True)
class AbftSegment:
    """``work`` seconds of computation under ABFT protection.

    The computation is slowed by ``phi``; a failure pays ``stages`` but
    loses no work (the surviving processes keep their data and the failed
    process's data is rebuilt).  A partial checkpoint of the LIBRARY
    dataset (``exit_checkpoint_cost``) closes the segment; a failure during
    that write is an ABFT failure (the dataset is still reconstructible)
    and the write is redone.  The segment brackets itself with
    ``LIBRARY_PHASE_START`` / ``LIBRARY_PHASE_END`` markers in recorded
    traces, as :func:`run_abft_section` records them.
    """

    work: float
    phi: float
    stages: RestartStages
    exit_checkpoint_cost: float = 0.0


Segment = Union[PeriodicSegment, AtomicSegment, AbftSegment]


# --------------------------------------------------------------------- #
# Schedule: run-length-compressed segment program
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduleRun:
    """A block of segments repeated ``count`` times back to back."""

    segments: Tuple[Segment, ...]
    count: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0 or int(self.count) != self.count:
            raise ValueError(f"count must be a positive integer, got {self.count}")


@dataclass(frozen=True)
class Schedule:
    """A compiled protocol: segments to execute, in order, RLE-compressed.

    Iterating a schedule yields the expanded segment sequence; ``len()``
    is the expanded segment count.  ``runs`` stays compact for workloads
    with repeating structure (identical epochs compress into one run).
    """

    runs: Tuple[ScheduleRun, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_segments(cls, segments: Iterable[Segment]) -> "Schedule":
        """Build a schedule from a flat segment sequence (RLE-compressed).

        Consecutive identical segments collapse into one counted run;
        frozen-dataclass equality guarantees collapsed segments execute
        identically.
        """
        runs: list[ScheduleRun] = []
        for segment in segments:
            if runs and runs[-1].segments == (segment,):
                runs[-1] = ScheduleRun(runs[-1].segments, runs[-1].count + 1)
            else:
                runs.append(ScheduleRun((segment,), 1))
        return cls(tuple(runs))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Sequence[Segment]]) -> "Schedule":
        """Build a schedule from per-epoch segment blocks (RLE-compressed).

        Consecutive identical blocks (e.g. the identical epochs of a
        weak-scaling workload) collapse into one counted run; empty blocks
        are dropped.
        """
        runs: list[ScheduleRun] = []
        for block in blocks:
            segments = tuple(block)
            if not segments:
                continue
            if runs and runs[-1].segments == segments:
                runs[-1] = ScheduleRun(segments, runs[-1].count + 1)
            else:
                runs.append(ScheduleRun(segments, 1))
        return cls(tuple(runs))

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Segment]:
        for run in self.runs:
            for _ in range(run.count):
                yield from run.segments

    def __len__(self) -> int:
        return sum(len(run.segments) * run.count for run in self.runs)

    @property
    def segment_count(self) -> int:
        """Expanded number of segments."""
        return len(self)

    @property
    def run_count(self) -> int:
        """Number of compressed runs (the stored size)."""
        return len(self.runs)

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The expanded segment sequence as a tuple."""
        return tuple(self)


# --------------------------------------------------------------------- #
# Event-walk building blocks
# --------------------------------------------------------------------- #
# These functions ARE the event backend: the historical hand-written
# ProtocolSimulator walks were moved here verbatim (parameterized by the
# compiled segment fields instead of the simulator's attributes) and the
# base-class helpers now delegate to them.  Every arithmetic operation and
# its order is pinned by the bit-identity contract.


def run_restart(
    time: float,
    timeline: Any,
    recorder: TraceRecorder,
    stages: RestartStages,
    *,
    check_cap: CapCheck = _no_cap,
) -> float:
    """Perform a restart sequence (downtime, recovery, ...), restartable.

    ``stages`` is an ordered list of ``(category, duration)`` pairs, e.g.
    ``[("downtime", D), ("recovery", R)]``.  If a failure strikes before
    the whole sequence completes, the time already spent is charged to
    the categories reached so far and the sequence starts over.
    Returns the time at which the sequence finally completes.
    """
    total = sum(duration for _, duration in stages)
    if total <= 0.0:
        return time
    recorder.record(time, EventKind.RECOVERY_START)
    while True:
        check_cap(time)
        next_failure = timeline.next_failure_after(time)
        if next_failure >= time + total:
            for category, duration in stages:
                recorder.account(category, duration)
            recorder.record(time + total, EventKind.RECOVERY_END)
            return time + total
        # The restart itself is interrupted: charge what was spent, count
        # the failure, and start the sequence over.
        elapsed = next_failure - time
        remaining = elapsed
        for category, duration in stages:
            spent = min(remaining, duration)
            if spent > 0.0:
                recorder.account(category, spent)
            remaining -= spent
            if remaining <= 0.0:
                break
        recorder.record(next_failure, EventKind.FAILURE, during="restart")
        time = next_failure


def run_checkpoint(
    time: float,
    timeline: Any,
    recorder: TraceRecorder,
    *,
    checkpoint_cost: float,
    restart_stages: RestartStages,
    redo_on_failure: bool = True,
    check_cap: CapCheck = _no_cap,
) -> float:
    """Write one checkpoint, handling failures during the write.

    With ``redo_on_failure`` (default) a failure during the write pays the
    given restart sequence and the checkpoint is attempted again; this is
    the behaviour used for the composite's exit partial checkpoint, where
    the LIBRARY dataset remains reconstructible by ABFT while the write
    is redone.
    """
    if checkpoint_cost <= 0.0:
        return time
    while True:
        check_cap(time)
        next_failure = timeline.next_failure_after(time)
        if next_failure >= time + checkpoint_cost:
            recorder.account("checkpointing", checkpoint_cost)
            recorder.record(time + checkpoint_cost, EventKind.CHECKPOINT_END)
            return time + checkpoint_cost
        elapsed = next_failure - time
        recorder.account("lost_work", elapsed)
        recorder.record(next_failure, EventKind.FAILURE, during="checkpoint")
        time = run_restart(
            next_failure, timeline, recorder, restart_stages, check_cap=check_cap
        )
        if not redo_on_failure:
            return time


def run_periodic_section(
    time: float,
    work: float,
    timeline: Any,
    recorder: TraceRecorder,
    *,
    chunk_size: float,
    checkpoint_cost: float,
    trailing_checkpoint: bool,
    restart_stages: RestartStages,
    during: str = "periodic",
    check_cap: CapCheck = _no_cap,
) -> float:
    """Execute ``work`` seconds of work under periodic checkpointing.

    The section starts from a protected state (job start, split checkpoint
    or previous periodic checkpoint).  Work is cut into chunks of
    ``chunk_size`` seconds, each followed by a checkpoint; a failure rolls
    back to the last completed checkpoint.  The last (possibly partial)
    chunk is followed by a checkpoint only when ``trailing_checkpoint``.
    Compile period-based protocols through :func:`periodic_chunk_size`,
    which maps invalid periods to the single-chunk degenerate case.
    """
    if work <= 0.0:
        if trailing_checkpoint and checkpoint_cost > 0.0:
            return run_checkpoint(
                time,
                timeline,
                recorder,
                checkpoint_cost=checkpoint_cost,
                restart_stages=restart_stages,
                check_cap=check_cap,
            )
        return time
    if math.isnan(chunk_size) or chunk_size <= 0.0:
        chunk_size = work

    work_done = 0.0
    while work_done < work:
        chunk = min(chunk_size, work - work_done)
        is_last = work_done + chunk >= work - WORK_EPSILON
        do_checkpoint = (not is_last) or trailing_checkpoint
        segment = chunk + (checkpoint_cost if do_checkpoint else 0.0)
        check_cap(time)
        next_failure = timeline.next_failure_after(time)
        if next_failure >= time + segment:
            recorder.account("useful_work", chunk)
            if do_checkpoint and checkpoint_cost > 0.0:
                recorder.account("checkpointing", checkpoint_cost)
                recorder.record(time + segment, EventKind.CHECKPOINT_END)
            time += segment
            work_done += chunk
        else:
            elapsed = next_failure - time
            recorder.account("lost_work", elapsed)
            recorder.record(next_failure, EventKind.FAILURE, during=during)
            time = run_restart(
                next_failure, timeline, recorder, restart_stages, check_cap=check_cap
            )
            # Rollback: work_done stays at the last completed checkpoint.
    return time


def run_atomic_segment(
    time: float,
    work: float,
    timeline: Any,
    recorder: TraceRecorder,
    *,
    checkpoint_cost: float,
    restart_stages: RestartStages,
    during: str = "unprotected",
    check_cap: CapCheck = _no_cap,
) -> float:
    """Execute ``work`` + an optional trailing checkpoint atomically.

    Used for the composite's short GENERAL phase: no intermediate
    checkpoint is taken, so a failure anywhere in the segment (or in its
    trailing partial checkpoint) re-executes it entirely from the previous
    protected state (reached through the ``restart_stages`` sequence).
    """
    segment = work + checkpoint_cost
    if segment <= 0.0:
        return time
    while True:
        check_cap(time)
        next_failure = timeline.next_failure_after(time)
        if next_failure >= time + segment:
            if work > 0.0:
                recorder.account("useful_work", work)
            if checkpoint_cost > 0.0:
                recorder.account("checkpointing", checkpoint_cost)
                recorder.record(time + segment, EventKind.CHECKPOINT_END)
            return time + segment
        elapsed = next_failure - time
        recorder.account("lost_work", elapsed)
        recorder.record(next_failure, EventKind.FAILURE, during=during)
        time = run_restart(
            next_failure, timeline, recorder, restart_stages, check_cap=check_cap
        )


def _account_abft_progress(
    recorder: TraceRecorder, elapsed: float, phi: float
) -> None:
    """Split ABFT-protected wall-clock time into progress and overhead."""
    if elapsed <= 0.0:
        return
    useful = elapsed / phi
    recorder.account("useful_work", useful)
    recorder.account("abft_overhead", elapsed - useful)


def run_abft_section(
    time: float,
    work: float,
    timeline: Any,
    recorder: TraceRecorder,
    *,
    phi: float,
    restart_stages: RestartStages,
    exit_checkpoint_cost: float,
    check_cap: CapCheck = _no_cap,
) -> float:
    """Execute ``work`` seconds of computation under ABFT protection.

    The computation is slowed by ``phi``; a failure pays ``restart_stages``
    (downtime, REMAINDER reload, ABFT reconstruction) but loses no work
    (the surviving processes keep their data and the failed process's data
    is rebuilt).  A partial checkpoint of the LIBRARY dataset
    (``exit_checkpoint_cost``) is written when the call returns.
    """
    scaled_remaining = work * phi
    recorder.record(time, EventKind.LIBRARY_PHASE_START)
    while scaled_remaining > WORK_EPSILON:
        check_cap(time)
        next_failure = timeline.next_failure_after(time)
        if next_failure >= time + scaled_remaining:
            _account_abft_progress(recorder, scaled_remaining, phi)
            time += scaled_remaining
            scaled_remaining = 0.0
        else:
            elapsed = next_failure - time
            _account_abft_progress(recorder, elapsed, phi)
            scaled_remaining -= elapsed
            recorder.record(next_failure, EventKind.FAILURE, during="abft")
            recorder.record(next_failure, EventKind.ABFT_RECOVERY_START)
            time = run_restart(
                next_failure, timeline, recorder, restart_stages, check_cap=check_cap
            )
            recorder.record(time, EventKind.ABFT_RECOVERY_END)
    if exit_checkpoint_cost > 0.0:
        time = run_checkpoint(
            time,
            timeline,
            recorder,
            checkpoint_cost=exit_checkpoint_cost,
            restart_stages=restart_stages,
            check_cap=check_cap,
        )
    recorder.record(time, EventKind.LIBRARY_PHASE_END)
    return time


# --------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------- #
class ScheduleInterpreter:
    """Event backend of the segment IR: one trial, one schedule, one walk.

    Executes a :class:`Schedule` (or any segment iterable) against a
    :class:`~repro.failures.timeline.FailureTimeline` and a
    :class:`~repro.simulation.trace.TraceRecorder`, raising
    :class:`SimulationHorizonExceeded` once the clock passes
    ``max_makespan`` (``float("inf")`` disables the cap).
    """

    def __init__(self, *, max_makespan: float = float("inf")) -> None:
        self._max_makespan = float(max_makespan)

    @property
    def max_makespan(self) -> float:
        """The truncation cap, in seconds."""
        return self._max_makespan

    def check_cap(self, time: float) -> None:
        """Raise :class:`SimulationHorizonExceeded` past the cap."""
        if time > self._max_makespan:
            raise SimulationHorizonExceeded(time)

    # ------------------------------------------------------------------ #
    def run(
        self,
        schedule: Union[Schedule, Iterable[Segment]],
        timeline: Any,
        recorder: TraceRecorder,
        *,
        start_time: float = 0.0,
    ) -> float:
        """Execute every segment in order; return the final makespan."""
        time = float(start_time)
        for segment in schedule:
            time = self.execute_segment(segment, time, timeline, recorder)
        return time

    def execute_segment(
        self,
        segment: Segment,
        time: float,
        timeline: Any,
        recorder: TraceRecorder,
    ) -> float:
        """Execute one segment starting at ``time``; return the end time."""
        if isinstance(segment, PeriodicSegment):
            if segment.enter_event is not None:
                recorder.record(time, segment.enter_event)
            time = run_periodic_section(
                time,
                segment.work,
                timeline,
                recorder,
                chunk_size=segment.chunk_size,
                checkpoint_cost=segment.checkpoint_cost,
                trailing_checkpoint=segment.trailing,
                restart_stages=segment.stages,
                during=segment.during,
                check_cap=self.check_cap,
            )
            if segment.exit_event is not None:
                recorder.record(time, segment.exit_event)
            return time
        if isinstance(segment, AtomicSegment):
            if segment.enter_event is not None:
                recorder.record(time, segment.enter_event)
            time = run_atomic_segment(
                time,
                segment.work,
                timeline,
                recorder,
                checkpoint_cost=segment.checkpoint_cost,
                restart_stages=segment.stages,
                during=segment.during,
                check_cap=self.check_cap,
            )
            if segment.exit_event is not None:
                recorder.record(time, segment.exit_event)
            return time
        if isinstance(segment, AbftSegment):
            return run_abft_section(
                time,
                segment.work,
                timeline,
                recorder,
                phi=segment.phi,
                restart_stages=segment.stages,
                exit_checkpoint_cost=segment.exit_checkpoint_cost,
                check_cap=self.check_cap,
            )
        raise TypeError(
            f"unknown segment type {type(segment).__name__}; expected "
            "PeriodicSegment, AtomicSegment or AbftSegment"
        )


# --------------------------------------------------------------------- #
# Registry front door
# --------------------------------------------------------------------- #
def compile_schedule(
    protocol: str, parameters: Any, workload: Any, **kwargs: Any
) -> Schedule:
    """Compile a registered protocol into its :class:`Schedule`.

    Resolves ``protocol`` (canonical name or alias) through the registry
    and calls its ``register_protocol(name, kind="schedule")`` compiler
    with the protocol's knobs (periods, safeguard, ...).  Both Monte-Carlo
    backends of a registered protocol execute the object this returns.
    """
    from repro.core.registry import resolve_protocol

    entry = resolve_protocol(protocol)
    if entry.schedule_fn is None:
        raise ValueError(
            f"protocol {entry.name!r} has no registered schedule compiler; "
            "register one with register_protocol(name, kind='schedule')"
        )
    return entry.schedule_fn(parameters, workload, **kwargs)
