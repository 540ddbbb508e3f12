"""BiPeriodicCkpt protocol (Section IV-C / V, Figure 6).

Incremental-checkpoint-aware periodic checkpointing: during LIBRARY phases
only the LIBRARY dataset is modified, so checkpoints there cost ``C_L`` and
use their own (longer-work, cheaper-checkpoint) optimal period; GENERAL
phases keep full checkpoints of cost ``C``.  Recovery always reloads the full
dataset (cost ``R``).

The protocol compiles to one periodically checkpointed segment per phase,
with the per-kind checkpoint cost and period, closed by a trailing
checkpoint on every phase but the last; both Monte-Carlo backends execute
that compiled description.  Identical epochs of a weak-scaling workload
compress into a single repeated run.

Modelling note: when the protection mode switches at a phase boundary, the
schedule closes the current phase with a checkpoint (of that phase's cost)
unless the phase is the last one of the application.  This keeps rollbacks
within a single phase and mirrors what an actual runtime does when changing
checkpoint content; for the workloads of the paper (phases several orders of
magnitude longer than a checkpoint) the extra cost is negligible, and the
excellent model/simulation agreement of the validation experiments confirms
it.
"""

from __future__ import annotations

from typing import Optional

from repro.application.workload import ApplicationWorkload
from repro.core.analytical.young_daly import optimal_period
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.core.protocols.base import ProtocolSimulator
from repro.core.registry import register_protocol
from repro.failures.base import FailureModel
from repro.simulation.events import EventKind
from repro.simulation.schedule import (
    PeriodicSegment,
    Schedule,
    periodic_chunk_size,
)

__all__ = [
    "BiPeriodicCkptSimulator",
    "compile_bi_periodic_schedule",
]


def _resolve_general_period(
    parameters: ResilienceParameters,
    general_period: Optional[float],
    period_formula: str,
) -> float:
    """Period used during GENERAL phases (cost ``C``, Equation 11)."""
    if general_period is not None:
        return general_period
    return optimal_period(
        parameters.full_checkpoint,
        parameters.platform_mtbf,
        parameters.downtime,
        parameters.full_recovery,
        formula=period_formula,
    )


def _resolve_library_period(
    parameters: ResilienceParameters,
    library_period: Optional[float],
    period_formula: str,
) -> float:
    """Period used during LIBRARY phases (cost ``C_L``, Equation 14)."""
    if library_period is not None:
        return library_period
    if parameters.library_checkpoint <= 0.0:
        return float("nan")
    return optimal_period(
        parameters.library_checkpoint,
        parameters.platform_mtbf,
        parameters.downtime,
        parameters.full_recovery,
        formula=period_formula,
    )


@register_protocol("BiPeriodicCkpt", kind="schedule")
def compile_bi_periodic_schedule(
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    *,
    general_period: Optional[float] = None,
    library_period: Optional[float] = None,
    period_formula: str = "paper",
) -> Schedule:
    """Compile bi-periodic checkpointing: one periodic segment per phase.

    Each (non-empty) phase becomes a periodic section with its kind's
    checkpoint cost and period, a trailing checkpoint unless it is the
    application's last phase, and a full downtime + recovery rollback.
    Per-epoch blocks are run-length-compressed, so identical epochs cost one
    repeated run.
    """
    resolved_general = _resolve_general_period(
        parameters, general_period, period_formula
    )
    resolved_library = _resolve_library_period(
        parameters, library_period, period_formula
    )
    rollback = (
        ("downtime", parameters.downtime),
        ("recovery", parameters.full_recovery),
    )
    # Phase indexing mirrors ApplicationWorkload.phase_sequence(): zero
    # -duration phases are skipped, and "last" means the last non-empty
    # phase of the whole application.
    total_phases = len(workload.phase_sequence())
    blocks = []
    index = 0
    for epoch in workload.epochs:
        block = []
        for kind, duration in (
            ("general", epoch.general_time),
            ("library", epoch.library_time),
        ):
            if not duration > 0.0:
                continue
            is_last = index == total_phases - 1
            if kind == "general":
                checkpoint = parameters.full_checkpoint
                period = resolved_general
                enter = EventKind.GENERAL_PHASE_START
                leave = EventKind.GENERAL_PHASE_END
            else:
                checkpoint = parameters.library_checkpoint
                period = resolved_library
                enter = EventKind.LIBRARY_PHASE_START
                leave = EventKind.LIBRARY_PHASE_END
            block.append(
                PeriodicSegment(
                    work=duration,
                    chunk_size=periodic_chunk_size(period, checkpoint, duration),
                    checkpoint_cost=checkpoint,
                    trailing=not is_last,
                    stages=rollback,
                    enter_event=enter,
                    exit_event=leave,
                )
            )
            index += 1
        blocks.append(block)
    return Schedule.from_blocks(blocks)


@register_protocol(
    "BiPeriodicCkpt", kind="simulator", aliases=("bi", "bi-periodic")
)
class BiPeriodicCkptSimulator(ProtocolSimulator):
    """Simulate bi-periodic (incremental) checkpointing.

    Parameters
    ----------
    parameters / workload:
        See :class:`~repro.core.protocols.base.ProtocolSimulator`.
    general_period / library_period:
        Override the per-phase-kind periods; ``None`` uses the optimal
        periods of Equations 11 and 14.
    period_formula:
        Optimal-period approximation used for defaulted periods.
    """

    name = "BiPeriodicCkpt"

    def __init__(
        self,
        parameters: ResilienceParameters,
        workload: ApplicationWorkload,
        *,
        general_period: Optional[float] = None,
        library_period: Optional[float] = None,
        period_formula: str = "paper",
        failure_model: Optional[FailureModel] = None,
        record_events: bool = False,
        max_slowdown: float = 1e4,
        storage: Optional[StorageStack] = None,
    ) -> None:
        super().__init__(
            parameters,
            workload,
            failure_model=failure_model,
            record_events=record_events,
            max_slowdown=max_slowdown,
            storage=storage,
        )
        self._general_period = general_period
        self._library_period = library_period
        self._period_formula = period_formula

    # ------------------------------------------------------------------ #
    def general_period(self) -> float:
        """Period used during GENERAL phases (cost ``C``)."""
        return _resolve_general_period(
            self._params, self._general_period, self._period_formula
        )

    def library_period(self) -> float:
        """Period used during LIBRARY phases (cost ``C_L``, Equation 14)."""
        return _resolve_library_period(
            self._params, self._library_period, self._period_formula
        )

    def _metadata(self) -> dict:
        return {
            "general_period": self.general_period(),
            "library_period": self.library_period(),
            "period_formula": self._period_formula,
        }

    def compile_schedule(self) -> Schedule:
        return compile_bi_periodic_schedule(
            self._params,
            self._workload,
            general_period=self._general_period,
            library_period=self._library_period,
            period_formula=self._period_formula,
        )
