"""Restart-from-scratch protocol (no fault tolerance).

Companion of :class:`repro.core.analytical.no_ft.NoFaultToleranceModel`: the
whole application is one unprotected section; any failure loses all progress
and the run restarts from the beginning after the downtime (there is no
checkpoint to reload, so the recovery cost is zero).

The protocol compiles to a single chunk-sized :class:`PeriodicSegment` with
no checkpoint and a downtime-only restart -- the degenerate case where
"rolling back to the last checkpoint" is restarting from scratch.  Both
Monte-Carlo backends execute that one compiled description.
"""

from __future__ import annotations

from repro.application.workload import ApplicationWorkload
from repro.core.parameters import ResilienceParameters
from repro.core.protocols.base import ProtocolSimulator
from repro.core.registry import register_protocol
from repro.simulation.schedule import PeriodicSegment, Schedule

__all__ = [
    "NoFaultToleranceSimulator",
    "compile_no_ft_schedule",
]


@register_protocol("NoFT", kind="schedule", paper=False, storage=False)
def compile_no_ft_schedule(
    parameters: ResilienceParameters, workload: ApplicationWorkload
) -> Schedule:
    """Compile the NoFT protocol: one unprotected run-to-completion chunk.

    A single periodic segment whose chunk covers the whole application, with
    no checkpoint and a downtime-only restart: a failure anywhere loses all
    progress (the rollback point is the job start) and only the downtime is
    paid before starting over.
    """
    total = workload.total_time
    return Schedule.from_segments(
        (
            PeriodicSegment(
                work=total,
                chunk_size=total,
                checkpoint_cost=0.0,
                trailing=False,
                stages=(("downtime", parameters.downtime),),
                during="no-ft",
            ),
        )
    )


@register_protocol(
    "NoFT", kind="simulator", aliases=("none", "no-ft", "restart"), paper=False,
    storage=False
)
class NoFaultToleranceSimulator(ProtocolSimulator):
    """Simulate an execution with no protection at all."""

    name = "NoFT"
    supports_storage = False

    def compile_schedule(self) -> Schedule:
        return compile_no_ft_schedule(self._params, self._workload)
