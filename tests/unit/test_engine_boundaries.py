"""Failures exactly on a step boundary: both engines still agree.

The walk lets a step succeed when the next failure lands exactly where it
ends (``next_failure >= t + step``), then skips that failure because the
next one must lie strictly after the new clock.  Continuous laws almost
never produce such ties, yet the across-trials engine's folded rounds carry
code for exactly them: a restart that ends on a failure does not go on into
its round, and a chunk that ends on one takes no further chunk.

A scripted trace replays failures placed where a chunk plus its checkpoint
ends, where a restart ends and where an ABFT section ends, and every
protocol's event and vectorized tables must be equal.  All costs are dyadic,
so every boundary and every inter-arrival is exact in binary floating point.
"""

from __future__ import annotations

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.core.registry import resolve_protocol
from repro.failures import TraceFailureModel
from repro.failures.timeline import FailureTimeline
from repro.simulation.events import EventKind
from repro.simulation.schedule import ScheduleInterpreter, compile_schedule
from repro.simulation.trace import TraceRecorder

PARAMETERS = ResilienceParameters.from_scalars(
    platform_mtbf=1024.0,
    checkpoint=64.0,
    recovery=32.0,
    downtime=16.0,
    library_fraction=0.75,
    abft_overhead=1.25,
    abft_reconstruction=4.0,
)
WORKLOAD = ApplicationWorkload.single_epoch(4096.0, 0.5, library_fraction=0.75)
KNOBS = {
    "NoFT": {},
    "PurePeriodicCkpt": {"period": 576.0},
    "BiPeriodicCkpt": {"general_period": 576.0, "library_period": 560.0},
    "ABFT&PeriodicCkpt": {"general_period": 576.0},
}
#: The ABFT section's exit checkpoint (library fraction x checkpoint).
EXIT_CHECKPOINT = 48.0


class _Probe(ScheduleInterpreter):
    """The interpreter walk, logging the clock at every cap check.

    The walk checks the cap at the top of every step, so the logged clocks
    after the last failure are the ends of the steps that succeeded.
    """

    def __init__(self) -> None:
        super().__init__()
        self.clocks: list[float] = []

    def check_cap(self, time: float) -> None:
        self.clocks.append(time)


def _walk(schedule, failures):
    probe = _Probe()
    recorder = TraceRecorder("probe", WORKLOAD.total_time, record_events=True)
    makespan = probe.run(schedule, FailureTimeline.from_times(failures), recorder)
    return probe.clocks, recorder.finish(makespan)


def _tie_script(schedule):
    """Failure times with a tie on most step boundaries, and the ties.

    Every third failure lands halfway into the running step (a real
    failure, so a restart follows), and the next two land exactly on the
    next two step ends -- the first of them the restart's end -- until the
    schedule runs out of steps.
    """
    failures, ties = [], []
    while True:
        clocks, trace = _walk(schedule, failures)
        after = failures[-1] if failures else 0.0
        ends = sorted({c for c in clocks + [trace.makespan] if c > after})
        if not ends:
            return failures, ties
        if len(failures) % 3:
            failures.append(ends[0])
            ties.append(ends[0])
        else:
            begin = max(c for c in clocks + [after] if after <= c < ends[0])
            failures.append((begin + ends[0]) / 2)


@pytest.mark.parametrize("protocol", sorted(KNOBS))
def test_failures_on_step_boundaries(protocol):
    schedule = compile_schedule(protocol, PARAMETERS, WORKLOAD, **KNOBS[protocol])
    failures, ties = _tie_script(schedule)
    _, trace = _walk(schedule, failures)
    events = {(event.time, event.kind) for event in trace.events}

    # The script exercises what it claims: ties are skipped, not failures,
    # and they sit on checkpoint ends, restart ends and ABFT section ends.
    assert trace.failure_count == len(failures) - len(ties)
    assert any((tie, EventKind.RECOVERY_END) in events for tie in ties)
    if protocol != "NoFT":
        assert any((tie, EventKind.CHECKPOINT_END) in events for tie in ties)
    if protocol == "ABFT&PeriodicCkpt":
        assert any(
            (tie + EXIT_CHECKPOINT, EventKind.LIBRARY_PHASE_END) in events
            for tie in ties
        )

    entry = resolve_protocol(protocol)
    model = TraceFailureModel.from_failure_times(failures, cycle=False)
    event = entry.simulator_cls(
        PARAMETERS, WORKLOAD, failure_model=model, **KNOBS[protocol]
    ).run_trial_range(0, 3, seed=5)
    vectorized = entry.vectorized_cls(
        PARAMETERS, WORKLOAD, failure_model=model, **KNOBS[protocol]
    ).run_trial_range(0, 3, seed=5)
    assert vectorized == event
    assert float(event.data["makespan"][0]) == trace.makespan
