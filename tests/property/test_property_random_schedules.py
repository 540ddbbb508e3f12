"""Property test: the across-trials engine equals the interpreter walk on
random schedules.

The protocol suites feed the engine only the four protocols' compiled
schedules.  Here hypothesis builds :class:`Schedule` objects directly from
the three segment kinds -- trailing and non-trailing periodic segments,
chunks that do not divide the work, zero-duration stages and segments, ABFT
exit checkpoints, several stage sets in one schedule and repeated runs --
and checks every column of ``run_trial_range`` with exact ``==`` against the
per-trial :class:`ScheduleInterpreter` walk.  The MTBFs push trials past
the 64-draw refill block, and the tight caps exercise truncation.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.vectorized as vectorized
from repro.failures import ExponentialFailureModel, WeibullFailureModel
from repro.failures.timeline import FailureTimeline
from repro.simulation.rng import RandomStreams
from repro.simulation.schedule import (
    AbftSegment,
    AtomicSegment,
    PeriodicSegment,
    Schedule,
    ScheduleInterpreter,
    ScheduleRun,
    SimulationHorizonExceeded,
)
from repro.simulation.table import TrialTable
from repro.simulation.trace import TraceRecorder
from repro.simulation.vectorized import VectorizedPhasedSimulator

LAWS = {
    "exponential": ExponentialFailureModel,
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
}

durations = st.one_of(st.just(0.0), st.floats(0.25, 12.0))
stage_sets = st.lists(
    st.tuples(st.sampled_from(("downtime", "recovery", "abft_recovery")), durations),
    max_size=3,
).map(tuple)

periodic = st.builds(
    PeriodicSegment,
    work=st.one_of(st.just(0.0), st.floats(1.0, 150.0)),
    chunk_size=st.one_of(st.just(math.nan), st.just(0.0), st.floats(5.0, 60.0)),
    checkpoint_cost=st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
    trailing=st.booleans(),
    stages=st.just(()),
)
atomic = st.builds(
    AtomicSegment,
    work=st.one_of(st.just(0.0), st.floats(0.5, 40.0)),
    checkpoint_cost=st.one_of(st.just(0.0), st.floats(0.5, 15.0)),
    stages=st.just(()),
)
abft = st.builds(
    AbftSegment,
    work=st.one_of(st.just(1e-14), st.floats(1.0, 120.0)),
    phi=st.sampled_from((1.0, 1.03, 1.5)),
    stages=st.just(()),
    exit_checkpoint_cost=st.one_of(st.just(0.0), st.floats(0.5, 15.0)),
)


@st.composite
def schedules(draw):
    """A schedule of 1-3 runs, at least two segments, two stage sets."""
    pool = draw(st.lists(stage_sets, min_size=2, max_size=3, unique=True))
    runs = []
    used = 0
    for index in range(draw(st.integers(1, 3))):
        block = []
        segments = st.lists(
            st.one_of(periodic, atomic, abft), min_size=2 - min(index, 1), max_size=3
        )
        for segment in draw(segments):
            # The first two segments take the first two stage sets, so every
            # schedule carries at least two.
            pick = used if used < 2 else draw(st.integers(0, len(pool) - 1))
            block.append(dataclasses.replace(segment, stages=pool[pick]))
            used += 1
        runs.append(ScheduleRun(tuple(block), draw(st.integers(1, 2))))
    return Schedule(tuple(runs))


def _application_time(schedule: Schedule) -> float:
    """The schedule's work (the waste baseline), at least one second."""
    return max(1.0, sum(segment.work for segment in schedule))


def _walk(schedule, model, max_makespan, application_time, start, stop, seed):
    """The per-trial interpreter walk of trials ``[start, stop)`` as a table."""
    interpreter = ScheduleInterpreter(max_makespan=max_makespan)
    streams = RandomStreams(seed)
    traces = []
    for trial in range(start, stop):
        timeline = FailureTimeline(model, streams.generator_for_trial(trial))
        recorder = TraceRecorder("random", application_time, record_events=False)
        try:
            makespan = interpreter.run(schedule, timeline, recorder)
            truncated = False
        except SimulationHorizonExceeded as exc:
            makespan, truncated = exc.time, True
        traces.append(recorder.finish(makespan, metadata={"truncated": truncated}))
    return TrialTable.from_traces(traces)


@settings(max_examples=100, deadline=None)
@given(
    schedule=schedules(),
    law=st.sampled_from(sorted(LAWS)),
    capped=st.booleans(),
    density=st.sampled_from((1.0, 50.0, 300.0)),
    slowdown=st.sampled_from((1.5, 3.0)),
    start=st.integers(0, 6),
    runs=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_engine_equals_interpreter_walk(
    schedule, law, capped, density, slowdown, start, runs, seed
):
    application_time = _application_time(schedule)
    # ``density`` is failures per second of work.  Under a cap the densest
    # draw walks hundreds of failures per trial, well past the refill block;
    # uncapped walks keep an MTBF of at least 40 s so every step can finish.
    mtbf = application_time / density
    if not capped:
        mtbf = max(mtbf, 40.0)
    max_makespan = slowdown * application_time if capped else math.inf
    model = LAWS[law](mtbf)
    engine = VectorizedPhasedSimulator(
        protocol="random",
        application_time=application_time,
        segments=schedule,
        failure_model=model,
        max_makespan=max_makespan,
    )
    stop = start + runs
    # A five-trial chunk makes most ranges cross a chunk boundary.
    with mock.patch.object(vectorized, "TRIAL_CHUNK", 5):
        table = engine.run_trial_range(start, stop, seed=seed)
    expected = _walk(schedule, model, max_makespan, application_time, start, stop, seed)
    for column in table.data.dtype.names:
        np.testing.assert_array_equal(
            table.data[column], expected.data[column], err_msg=column
        )
    assert table == expected


def test_walks_cross_the_refill_block():
    """A capped 8 s MTBF draws more failures than one 64-draw block."""
    segment = PeriodicSegment(400.0, 5.0, 0.5, True, ())
    schedule = Schedule((ScheduleRun((segment,), 3),))
    model = ExponentialFailureModel(8.0)
    table = _walk(schedule, model, 1800.0, 1200.0, 0, 4, 11)
    assert table.data["failure_count"].max() > 64
    engine = VectorizedPhasedSimulator(
        protocol="random",
        application_time=1200.0,
        segments=schedule,
        failure_model=model,
        max_makespan=1800.0,
    )
    assert engine.run_trial_range(0, 4, seed=11) == table
