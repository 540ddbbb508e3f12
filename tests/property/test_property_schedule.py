"""Property tests: the segment-schedule IR against the legacy event walks.

Every protocol now compiles to a :class:`~repro.simulation.schedule.Schedule`
that the :class:`~repro.simulation.schedule.ScheduleInterpreter` executes.
The contract is that compile + interpret reproduces the historical
hand-written ``_run`` walks IEEE-operation-for-operation: same makespan, same
failure count, same time breakdown, same truncation flag, same recorded
events.  The reference walks below are the pre-IR ``_run`` bodies verbatim,
composed from the ``run_*`` walk functions of
:mod:`repro.simulation.schedule`; Hypothesis then drives both
implementations over random ``(protocol, law, period, seed)`` configurations
and asserts exact ``==`` equality, never approximate.

The run-length compression of :class:`~repro.simulation.schedule.Schedule`
is covered too: expansion round-trips through ``from_segments`` /
``from_blocks``, and repeated epochs genuinely compress.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ApplicationWorkload, ResilienceParameters
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    NoFaultToleranceSimulator,
    PurePeriodicCkptSimulator,
    compile_abft_periodic_schedule,
    compile_bi_periodic_schedule,
    compile_no_ft_schedule,
    compile_pure_periodic_schedule,
)
from repro.failures import (
    ExponentialFailureModel,
    LogNormalFailureModel,
    WeibullFailureModel,
)
from repro.simulation.events import EventKind
from repro.simulation.rng import RandomStreams
from repro.simulation.schedule import (
    AtomicSegment,
    PeriodicSegment,
    Schedule,
    ScheduleRun,
    SimulationHorizonExceeded,
    compile_schedule,
    periodic_chunk_size,
    run_abft_section,
    run_atomic_segment,
    run_periodic_section,
    run_restart,
)
from repro.simulation.trace import CATEGORIES
from repro.utils import HOUR, MINUTE


# --------------------------------------------------------------------------- #
# Reference simulators: the pre-IR hand-written walks, verbatim.
# --------------------------------------------------------------------------- #
def _cap(simulator):
    """The walk's truncation check at ``max_slowdown * T0``."""

    def check(time):
        if time > simulator._max_makespan:
            raise SimulationHorizonExceeded(time)

    return check


def _rollback(params, recovery_cost):
    """Downtime + full rollback recovery (the checkpointing protocols)."""
    return (("downtime", params.downtime), ("recovery", recovery_cost))


def _periodic(simulator, time, work, timeline, recorder, *, checkpoint_cost,
              recovery_cost, period, trailing_checkpoint):
    return run_periodic_section(
        time,
        work,
        timeline,
        recorder,
        chunk_size=periodic_chunk_size(period, checkpoint_cost, work),
        checkpoint_cost=checkpoint_cost,
        trailing_checkpoint=trailing_checkpoint,
        restart_stages=_rollback(simulator._params, recovery_cost),
        check_cap=_cap(simulator),
    )


class LegacyNoFT(NoFaultToleranceSimulator):
    def _run(self, timeline, recorder):
        work = self._workload.total_time
        check_cap = _cap(self)
        time = 0.0
        while True:
            check_cap(time)
            next_failure = timeline.next_failure_after(time)
            if next_failure >= time + work:
                recorder.account("useful_work", work)
                return time + work
            elapsed = next_failure - time
            recorder.account("lost_work", elapsed)
            recorder.record(next_failure, EventKind.FAILURE, during="no-ft")
            time = run_restart(
                next_failure,
                timeline,
                recorder,
                (("downtime", self._params.downtime),),
                check_cap=check_cap,
            )


class LegacyPurePeriodic(PurePeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        params = self._params
        return _periodic(
            self,
            0.0,
            self._workload.total_time,
            timeline,
            recorder,
            checkpoint_cost=params.full_checkpoint,
            recovery_cost=params.full_recovery,
            period=self.period(),
            trailing_checkpoint=False,
        )


class LegacyBiPeriodic(BiPeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        params = self._params
        phases = self._workload.phase_sequence()
        time = 0.0
        for index, (kind, duration, _abft_capable) in enumerate(phases):
            is_last = index == len(phases) - 1
            if kind == "general":
                recorder.record(time, EventKind.GENERAL_PHASE_START)
                time = _periodic(
                    self,
                    time,
                    duration,
                    timeline,
                    recorder,
                    checkpoint_cost=params.full_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=self.general_period(),
                    trailing_checkpoint=not is_last,
                )
                recorder.record(time, EventKind.GENERAL_PHASE_END)
            else:
                recorder.record(time, EventKind.LIBRARY_PHASE_START)
                time = _periodic(
                    self,
                    time,
                    duration,
                    timeline,
                    recorder,
                    checkpoint_cost=params.library_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=self.library_period(),
                    trailing_checkpoint=not is_last,
                )
                recorder.record(time, EventKind.LIBRARY_PHASE_END)
        return time


class LegacyAbftPeriodic(AbftPeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        params = self._params
        time = 0.0
        general_period = self.general_period()
        for epoch in self._workload.epochs:
            recorder.record(time, EventKind.GENERAL_PHASE_START)
            general_time = epoch.general_time
            use_periodic = (
                not math.isnan(general_period) and general_time >= general_period
            )
            if use_periodic:
                time = _periodic(
                    self,
                    time,
                    general_time,
                    timeline,
                    recorder,
                    checkpoint_cost=params.full_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=general_period,
                    trailing_checkpoint=True,
                )
            else:
                time = run_atomic_segment(
                    time,
                    general_time,
                    timeline,
                    recorder,
                    checkpoint_cost=params.remainder_checkpoint,
                    restart_stages=_rollback(params, params.full_recovery),
                    check_cap=_cap(self),
                )
            recorder.record(time, EventKind.GENERAL_PHASE_END)

            if epoch.library_time <= 0.0:
                continue
            if self._library_uses_abft(epoch):
                time = run_abft_section(
                    time,
                    epoch.library_time,
                    timeline,
                    recorder,
                    phi=params.phi,
                    restart_stages=(
                        ("downtime", params.downtime),
                        ("recovery", params.remainder_recovery_cost),
                        ("abft_recovery", params.abft_reconstruction),
                    ),
                    exit_checkpoint_cost=params.library_checkpoint,
                    check_cap=_cap(self),
                )
            else:
                recorder.record(time, EventKind.LIBRARY_PHASE_START)
                time = _periodic(
                    self,
                    time,
                    epoch.library_time,
                    timeline,
                    recorder,
                    checkpoint_cost=params.library_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=self.library_fallback_period(),
                    trailing_checkpoint=True,
                )
                recorder.record(time, EventKind.LIBRARY_PHASE_END)
        return time


PAIRS = {
    "NoFT": (NoFaultToleranceSimulator, LegacyNoFT),
    "PurePeriodicCkpt": (PurePeriodicCkptSimulator, LegacyPurePeriodic),
    "BiPeriodicCkpt": (BiPeriodicCkptSimulator, LegacyBiPeriodic),
    "ABFT&PeriodicCkpt": (AbftPeriodicCkptSimulator, LegacyAbftPeriodic),
}

LAW_MODELS = {
    "exponential": lambda mtbf: ExponentialFailureModel(mtbf),
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailureModel(mtbf, sigma=1.0),
}

MTBF_CHOICES = (150.0, 45 * MINUTE, 2 * HOUR)

RUNS = 3


def _event_keys(trace):
    """Recorded events minus the process-global ``sequence`` tiebreaker."""
    return [(event.time, event.kind, dict(event.payload)) for event in trace.events]


def _parameters(mtbf: float) -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=mtbf,
        checkpoint=10 * MINUTE,
        recovery=1 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _period_kwargs(protocol: str, period: float | None) -> dict:
    if period is None or protocol == "NoFT":
        return {}
    if protocol == "PurePeriodicCkpt":
        return {"period": period}
    if protocol == "BiPeriodicCkpt":
        return {"general_period": period, "library_period": period}
    return {"general_period": period}


@settings(max_examples=30, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PAIRS)),
    law=st.sampled_from(sorted(LAW_MODELS)),
    mtbf=st.sampled_from(MTBF_CHOICES),
    period=st.sampled_from((None, 120.0, 1800.0, 5000.0)),
    alpha=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_interpreter_matches_legacy_walk(protocol, law, mtbf, period, alpha, seed):
    """compile + interpret == the hand-written walk, event for event."""
    parameters = _parameters(mtbf)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, alpha, library_fraction=0.8)
    kwargs = _period_kwargs(protocol, period)
    schedule_cls, legacy_cls = PAIRS[protocol]
    common = dict(
        failure_model=LAW_MODELS[law](mtbf),
        record_events=True,
        max_slowdown=4.0,
    )
    compiled = schedule_cls(parameters, workload, **common, **kwargs)
    legacy = legacy_cls(parameters, workload, **common, **kwargs)
    for trial in range(RUNS):
        got = compiled.simulate(RandomStreams(seed).generator_for_trial(trial))
        want = legacy.simulate(RandomStreams(seed).generator_for_trial(trial))
        context = (protocol, law, trial)
        assert got.makespan == want.makespan, context
        assert got.failure_count == want.failure_count, context
        assert got.metadata["truncated"] == want.metadata["truncated"], context
        for category in CATEGORIES:
            assert getattr(got.breakdown, category) == getattr(
                want.breakdown, category
            ), (*context, category)
        assert _event_keys(got) == _event_keys(want), context


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(("BiPeriodicCkpt", "ABFT&PeriodicCkpt")),
    epochs=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_multi_epoch_interpreter_matches_legacy_walk(protocol, epochs, seed):
    """Compressed repeated-epoch schedules still replay the legacy walk."""
    parameters = _parameters(2 * HOUR)
    workload = ApplicationWorkload.iterative(
        epochs, 1 * HOUR, 0.6, library_fraction=0.8
    )
    schedule_cls, legacy_cls = PAIRS[protocol]
    compiled = schedule_cls(parameters, workload, record_events=True)
    legacy = legacy_cls(parameters, workload, record_events=True)
    for trial in range(RUNS):
        got = compiled.simulate(RandomStreams(seed).generator_for_trial(trial))
        want = legacy.simulate(RandomStreams(seed).generator_for_trial(trial))
        assert got.makespan == want.makespan, (protocol, trial)
        assert got.failure_count == want.failure_count, (protocol, trial)
        for category in CATEGORIES:
            assert getattr(got.breakdown, category) == getattr(
                want.breakdown, category
            )
        assert _event_keys(got) == _event_keys(want), (protocol, trial)


# --------------------------------------------------------------------------- #
# The IR itself: run-length compression and the registry front door.
# --------------------------------------------------------------------------- #
def _segment(work: float) -> AtomicSegment:
    return AtomicSegment(work=work, checkpoint_cost=0.0, stages=())


@given(
    works=st.lists(
        st.sampled_from((1.0, 2.0, 3.0)), min_size=0, max_size=30
    )
)
def test_from_segments_round_trips(works):
    """RLE compression expands back to the exact segment sequence."""
    segments = [_segment(w) for w in works]
    schedule = Schedule.from_segments(segments)
    assert list(schedule) == segments
    assert len(schedule) == len(segments)
    assert schedule.run_count <= max(1, len(segments)) if segments else True


@given(
    blocks=st.lists(
        st.lists(st.sampled_from((1.0, 2.0)), min_size=0, max_size=3),
        min_size=0,
        max_size=10,
    )
)
def test_from_blocks_round_trips(blocks):
    """Per-block RLE expands to the concatenation of the non-empty blocks."""
    built = [[_segment(w) for w in block] for block in blocks]
    schedule = Schedule.from_blocks(built)
    flat = [segment for block in built for segment in block]
    assert list(schedule) == flat
    assert len(schedule) == len(flat)


def test_repeated_epochs_compress():
    """A weak-scaling workload's identical epochs cost one repeated run."""
    parameters = _parameters(2 * HOUR)
    workload = ApplicationWorkload.iterative(8, 1 * HOUR, 0.6, library_fraction=0.8)
    schedule = compile_bi_periodic_schedule(parameters, workload)
    # 8 epochs x 2 phases expand to 16 segments, but only the last epoch
    # differs (no trailing checkpoint), so at most 3 runs are stored.
    assert schedule.segment_count == 16
    assert schedule.run_count <= 3
    expanded = list(schedule)
    assert len(expanded) == 16
    assert all(isinstance(seg, PeriodicSegment) for seg in expanded)


def test_schedule_run_validates_count():
    with pytest.raises((ValueError, TypeError)):
        ScheduleRun(segments=(_segment(1.0),), count=0)


@pytest.mark.parametrize(
    "name, compiler",
    [
        ("NoFT", compile_no_ft_schedule),
        ("PurePeriodicCkpt", compile_pure_periodic_schedule),
        ("BiPeriodicCkpt", compile_bi_periodic_schedule),
        ("ABFT&PeriodicCkpt", compile_abft_periodic_schedule),
    ],
)
def test_registry_front_door_matches_module_compilers(name, compiler):
    """compile_schedule(name, ...) resolves to the registered compiler."""
    parameters = _parameters(2 * HOUR)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    assert compile_schedule(name, parameters, workload) == compiler(
        parameters, workload
    )


def test_registry_front_door_rejects_unregistered():
    with pytest.raises(Exception):
        compile_schedule("NoSuchProtocol", None, None)
