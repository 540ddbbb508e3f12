"""Event records kept by the execution-trace recorder."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["EventKind", "Event"]


class EventKind(enum.Enum):
    """Kinds of events occurring during a protected execution.

    The protocol simulators emit these into the execution trace; a shared
    enum keeps traces comparable across protocols.
    """

    #: A process/node failure strikes the platform.
    FAILURE = "failure"
    #: Start of a (full or partial) coordinated checkpoint.
    CHECKPOINT_START = "checkpoint_start"
    #: Successful completion of a checkpoint.
    CHECKPOINT_END = "checkpoint_end"
    #: Start of a rollback-recovery (reloading a checkpoint).
    RECOVERY_START = "recovery_start"
    #: Completion of a rollback-recovery.
    RECOVERY_END = "recovery_end"
    #: Start of an ABFT reconstruction of the LIBRARY dataset.
    ABFT_RECOVERY_START = "abft_recovery_start"
    #: Completion of an ABFT reconstruction.
    ABFT_RECOVERY_END = "abft_recovery_end"
    #: Node downtime (reboot / spare swap-in) begins.
    DOWNTIME_START = "downtime_start"
    #: Node downtime ends.
    DOWNTIME_END = "downtime_end"
    #: The application enters a GENERAL phase.
    GENERAL_PHASE_START = "general_phase_start"
    #: The application leaves a GENERAL phase.
    GENERAL_PHASE_END = "general_phase_end"
    #: The application enters a LIBRARY (ABFT-capable) phase.
    LIBRARY_PHASE_START = "library_phase_start"
    #: The application leaves a LIBRARY phase.
    LIBRARY_PHASE_END = "library_phase_end"
    #: The whole protected application completed.
    APPLICATION_END = "application_end"
    #: Generic user-defined event (payload carries the detail).
    CUSTOM = "custom"


_EVENT_COUNTER = itertools.count()


@dataclass(frozen=True, order=False)
class Event:
    """A timestamped event.

    Attributes
    ----------
    time:
        Simulation time of the event, in seconds.
    kind:
        The :class:`EventKind` (or any hashable tag).
    payload:
        Optional free-form mapping with event details (e.g. which node
        failed, how much work was lost).
    sequence:
        Monotonic creation counter, so events with equal timestamps keep
        their recording order.
    """

    time: float
    kind: Any
    payload: Mapping[str, Any] = field(default_factory=dict)
    sequence: int = field(default_factory=lambda: next(_EVENT_COUNTER))

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")

    def with_payload(self, **updates: Any) -> "Event":
        """Return a copy of the event with additional payload entries."""
        merged = dict(self.payload)
        merged.update(updates)
        return Event(time=self.time, kind=self.kind, payload=merged)

    def __str__(self) -> str:
        kind = self.kind.value if isinstance(self.kind, EventKind) else str(self.kind)
        return f"[t={self.time:.3f}s] {kind} {dict(self.payload) if self.payload else ''}".rstrip()
