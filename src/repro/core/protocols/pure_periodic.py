"""PurePeriodicCkpt protocol (Section IV-C / V, Figure 5).

The whole application -- GENERAL and LIBRARY phases alike -- is protected by
full-memory coordinated checkpoints taken at a single fixed period.  The
protocol is oblivious of the phase structure, exactly like the strategy it
models: it compiles to one periodically checkpointed segment covering the
total fault-free work, and both Monte-Carlo backends execute that compiled
description.
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
from repro.simulation.schedule import (
    PeriodicSegment,
    Schedule,
    periodic_chunk_size,
)

__all__ = [
    "PurePeriodicCkptSimulator",
    "compile_pure_periodic_schedule",
]


def _resolve_period(
    parameters: ResilienceParameters,
    period: Optional[float],
    period_formula: str,
) -> float:
    """The checkpointing period actually used: explicit, or Equation 11."""
    if period is not None:
        return period
    return optimal_period(
        parameters.full_checkpoint,
        parameters.platform_mtbf,
        parameters.downtime,
        parameters.full_recovery,
        formula=period_formula,
    )


@register_protocol("PurePeriodicCkpt", kind="schedule")
def compile_pure_periodic_schedule(
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    *,
    period: Optional[float] = None,
    period_formula: str = "paper",
) -> Schedule:
    """Compile pure periodic checkpointing: one checkpointed segment.

    The total fault-free work forms a single periodic section at the given
    (or optimal) period, with no trailing checkpoint after the final chunk
    and a full downtime + recovery rollback on failure.
    """
    resolved = _resolve_period(parameters, period, period_formula)
    total = workload.total_time
    checkpoint = parameters.full_checkpoint
    return Schedule.from_segments(
        (
            PeriodicSegment(
                work=total,
                chunk_size=periodic_chunk_size(resolved, checkpoint, total),
                checkpoint_cost=checkpoint,
                trailing=False,
                stages=(
                    ("downtime", parameters.downtime),
                    ("recovery", parameters.full_recovery),
                ),
            ),
        )
    )


@register_protocol(
    "PurePeriodicCkpt", kind="simulator", aliases=("pure", "pure-periodic")
)
class PurePeriodicCkptSimulator(ProtocolSimulator):
    """Simulate pure periodic checkpointing with a single period.

    Parameters
    ----------
    parameters / workload:
        See :class:`~repro.core.protocols.base.ProtocolSimulator`.
    period:
        Checkpointing period (wall-clock, checkpoint included).  ``None``
        uses the paper's optimal period of Equation 11.
    period_formula:
        Optimal-period approximation used when ``period`` is ``None``.
    """

    name = "PurePeriodicCkpt"

    def __init__(
        self,
        parameters: ResilienceParameters,
        workload: ApplicationWorkload,
        *,
        period: Optional[float] = None,
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
        self._explicit_period = period
        self._period_formula = period_formula

    def period(self) -> float:
        """The checkpointing period actually used (seconds)."""
        return _resolve_period(
            self._params, self._explicit_period, self._period_formula
        )

    def _metadata(self) -> dict:
        return {"period": self.period(), "period_formula": self._period_formula}

    def compile_schedule(self) -> Schedule:
        return compile_pure_periodic_schedule(
            self._params,
            self._workload,
            period=self._explicit_period,
            period_formula=self._period_formula,
        )
