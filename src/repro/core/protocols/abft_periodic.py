"""ABFT&PeriodicCkpt composite protocol (Section III / V, Figure 2).

The composite protocol, phase by phase (per epoch):

* **GENERAL phase** -- if the phase is longer than the optimal checkpointing
  period, periodic full-memory checkpoints are taken (the last one doubles
  as the forced entry checkpoint of the upcoming library call); otherwise no
  periodic checkpoint is taken and a *partial* checkpoint of the REMAINDER
  dataset (cost ``C_Rem``) is written when entering the library call.  A
  failure rolls back to the last protected state (previous split checkpoint
  or periodic checkpoint).
* **LIBRARY phase** -- ABFT protects the computation (slowdown ``phi``);
  periodic checkpointing is disabled.  A failure costs a downtime, the reload
  of the REMAINDER partial checkpoint and the ABFT reconstruction of the
  LIBRARY dataset, and loses no work.  A partial checkpoint of the LIBRARY
  dataset (cost ``C_L``) is written when the call returns, completing the
  split checkpoint.
* The Section III-B **safeguard** (optional): a library call whose projected
  ABFT duration is shorter than the optimal checkpointing interval is not
  worth its forced checkpoints and is protected by (incremental) periodic
  checkpointing instead, as are library phases without an ABFT
  implementation.

The protocol compiles to per-epoch segment blocks (periodic or atomic
GENERAL protection chosen by comparing the phase length to the optimal
period; an ABFT segment with its exit partial checkpoint, or a fallback
periodic section, for the LIBRARY phase); both Monte-Carlo backends execute
the compiled description, and identical epochs compress into one repeated
run.

Modelling note: a failure striking during the *exit* partial checkpoint is
handled as an ABFT failure (reconstruction then re-write of the checkpoint);
the library call has just finished, its dataset and checksums are still in
memory, so reconstruction remains possible.  The alternative (full rollback)
differs only on a window of ``C_L`` per epoch and is indistinguishable at the
scale of the paper's experiments.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.application.epoch import Epoch
from repro.application.workload import ApplicationWorkload
from repro.core.analytical.young_daly import optimal_period
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.core.protocols.base import ProtocolSimulator
from repro.core.registry import register_protocol
from repro.failures.base import FailureModel
from repro.simulation.events import EventKind
from repro.simulation.schedule import (
    AbftSegment,
    AtomicSegment,
    PeriodicSegment,
    Schedule,
    periodic_chunk_size,
)

__all__ = [
    "AbftPeriodicCkptSimulator",
    "compile_abft_periodic_schedule",
]


def _resolve_general_period(
    parameters: ResilienceParameters,
    general_period: Optional[float],
    period_formula: str,
) -> float:
    """Periodic-checkpointing period used in long GENERAL phases."""
    if general_period is not None:
        return general_period
    return optimal_period(
        parameters.full_checkpoint,
        parameters.platform_mtbf,
        parameters.downtime,
        parameters.full_recovery,
        formula=period_formula,
    )


def _library_fallback_period(
    parameters: ResilienceParameters, period_formula: str
) -> float:
    """Period used when a LIBRARY phase falls back to checkpointing."""
    if parameters.library_checkpoint <= 0.0:
        return float("nan")
    return optimal_period(
        parameters.library_checkpoint,
        parameters.platform_mtbf,
        parameters.downtime,
        parameters.full_recovery,
        formula=period_formula,
    )


def _library_uses_abft(
    parameters: ResilienceParameters,
    epoch: Epoch,
    *,
    safeguard: bool,
    general_period: float,
) -> bool:
    """Decide whether ABFT protects the LIBRARY phase of ``epoch``."""
    if not epoch.abft_capable or epoch.library_time <= 0.0:
        return False
    if not safeguard:
        return True
    projected = parameters.phi * epoch.library_time + parameters.library_checkpoint
    if math.isnan(general_period):
        return True
    return projected >= general_period


@register_protocol("ABFT&PeriodicCkpt", kind="schedule")
def compile_abft_periodic_schedule(
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    *,
    general_period: Optional[float] = None,
    safeguard: bool = False,
    period_formula: str = "paper",
) -> Schedule:
    """Compile the composite protocol: per-epoch GENERAL + LIBRARY blocks.

    Long GENERAL phases become periodic sections whose trailing checkpoint
    doubles as the library call's forced entry checkpoint; short ones become
    atomic segments closed by the partial REMAINDER checkpoint.  LIBRARY
    phases become ABFT segments (with the exit partial checkpoint folded
    in) or, per the safeguard rule, fallback periodic sections.  Per-epoch
    blocks are run-length-compressed, so identical epochs cost one repeated
    run.
    """
    params = parameters
    resolved_period = _resolve_general_period(params, general_period, period_formula)
    rollback = (
        ("downtime", params.downtime),
        ("recovery", params.full_recovery),
    )
    abft_stages = (
        ("downtime", params.downtime),
        ("recovery", params.remainder_recovery_cost),
        ("abft_recovery", params.abft_reconstruction),
    )
    blocks = []
    for epoch in workload.epochs:
        block = []
        # ---- GENERAL phase -------------------------------------------- #
        general_time = epoch.general_time
        use_periodic = (
            not math.isnan(resolved_period) and general_time >= resolved_period
        )
        if use_periodic:
            # Periodic checkpointing; the trailing checkpoint doubles as
            # the forced entry checkpoint of the library call.
            block.append(
                PeriodicSegment(
                    work=general_time,
                    chunk_size=periodic_chunk_size(
                        resolved_period, params.full_checkpoint, general_time
                    ),
                    checkpoint_cost=params.full_checkpoint,
                    trailing=True,
                    stages=rollback,
                    enter_event=EventKind.GENERAL_PHASE_START,
                    exit_event=EventKind.GENERAL_PHASE_END,
                )
            )
        else:
            # Short phase: execute unprotected, then write the partial
            # entry checkpoint of the REMAINDER dataset.
            block.append(
                AtomicSegment(
                    work=general_time,
                    checkpoint_cost=params.remainder_checkpoint,
                    stages=rollback,
                    enter_event=EventKind.GENERAL_PHASE_START,
                    exit_event=EventKind.GENERAL_PHASE_END,
                )
            )
        # ---- LIBRARY phase -------------------------------------------- #
        if epoch.library_time <= 0.0:
            blocks.append(block)
            continue
        if _library_uses_abft(
            params, epoch, safeguard=safeguard, general_period=resolved_period
        ):
            # The exit partial checkpoint of the LIBRARY dataset is part of
            # the segment; a failure during the write is an ABFT failure
            # (the dataset is still reconstructible) and the write is
            # redone.
            block.append(
                AbftSegment(
                    work=epoch.library_time,
                    phi=params.phi,
                    stages=abft_stages,
                    exit_checkpoint_cost=params.library_checkpoint,
                )
            )
        else:
            block.append(
                PeriodicSegment(
                    work=epoch.library_time,
                    chunk_size=periodic_chunk_size(
                        _library_fallback_period(params, period_formula),
                        params.library_checkpoint,
                        epoch.library_time,
                    ),
                    checkpoint_cost=params.library_checkpoint,
                    trailing=True,
                    stages=rollback,
                    enter_event=EventKind.LIBRARY_PHASE_START,
                    exit_event=EventKind.LIBRARY_PHASE_END,
                )
            )
        blocks.append(block)
    return Schedule.from_blocks(blocks)


@register_protocol(
    "ABFT&PeriodicCkpt",
    kind="simulator",
    aliases=("abft", "composite", "abft-periodic"),
)
class AbftPeriodicCkptSimulator(ProtocolSimulator):
    """Simulate the ABFT&PeriodicCkpt composite protocol.

    Parameters
    ----------
    parameters / workload:
        See :class:`~repro.core.protocols.base.ProtocolSimulator`.
    general_period:
        Override the periodic-checkpointing period of long GENERAL phases;
        ``None`` uses the optimal period of Equation 11.
    safeguard:
        Enable the Section III-B safeguard mechanism (off by default, like in
        the analytical model).
    period_formula:
        Optimal-period approximation used for defaulted periods.
    """

    name = "ABFT&PeriodicCkpt"

    def __init__(
        self,
        parameters: ResilienceParameters,
        workload: ApplicationWorkload,
        *,
        general_period: Optional[float] = None,
        safeguard: bool = False,
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
        self._safeguard = bool(safeguard)
        self._period_formula = period_formula

    # ------------------------------------------------------------------ #
    def general_period(self) -> float:
        """Periodic-checkpointing period used in long GENERAL phases."""
        return _resolve_general_period(
            self._params, self._general_period, self._period_formula
        )

    def library_fallback_period(self) -> float:
        """Period used when a LIBRARY phase falls back to checkpointing."""
        return _library_fallback_period(self._params, self._period_formula)

    @property
    def safeguard(self) -> bool:
        """Whether the Section III-B safeguard is enabled."""
        return self._safeguard

    def _library_uses_abft(self, epoch: Epoch) -> bool:
        """Decide whether ABFT protects the LIBRARY phase of ``epoch``."""
        return _library_uses_abft(
            self._params,
            epoch,
            safeguard=self._safeguard,
            general_period=self.general_period(),
        )

    def _metadata(self) -> dict:
        return {
            "general_period": self.general_period(),
            "safeguard": self._safeguard,
            "period_formula": self._period_formula,
        }

    def compile_schedule(self) -> Schedule:
        return compile_abft_periodic_schedule(
            self._params,
            self._workload,
            general_period=self._general_period,
            safeguard=self._safeguard,
            period_formula=self._period_formula,
        )
