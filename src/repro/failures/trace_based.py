"""Trace-replay failure model.

Production failure logs (such as those of the Failure Trace Archive cited by
the paper) cannot be redistributed here, so this model replays *synthetic or
user-provided* lists of failure timestamps with exactly the same interface as
the stochastic models.  It doubles as a determinism tool for tests: a
scripted sequence of failures exercises a specific protocol path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.registry import register_failure_model
from repro.failures.base import FailureModel, TrialBlockSampler

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.simulation.rng import TrialStreams

__all__ = ["TraceFailureModel", "TraceBlockSampler"]


class TraceBlockSampler(TrialBlockSampler):
    """Batched trace replay: per-trial rewindable cursors, one shared array.

    The event backend replays the trace per trial through a
    :meth:`TraceFailureModel.spawn`-ed clone whose cursor starts at the
    first entry; this sampler keeps one ``int64`` cursor *per trial* over
    the same immutable inter-arrival array and gathers whole blocks with
    NumPy indexing, so the vectorized engine's refills stop looping Python
    per trial.  Cycling traces wrap with modular arithmetic; non-cycling
    traces return :attr:`TraceFailureModel.EXHAUSTED` past the end without
    advancing past it -- both exactly the per-draw semantics of
    :meth:`TraceFailureModel.sample_interarrival`, so the streams stay bit
    identical.  Replay never draws from a generator (the event path ignores
    its generator too), so the sampler builds none.
    """

    def __init__(self, model: "TraceFailureModel", streams: "TrialStreams") -> None:
        if len(streams) <= 0:
            raise ValueError(f"trials must be positive, got {len(streams)}")
        self._trace = model._interarrivals
        self._cycle = model.cycle
        self._exhausted = model.EXHAUSTED
        self._cursor = np.zeros(len(streams), dtype=np.int64)

    def sample_blocks(self, indices: np.ndarray, count: int) -> np.ndarray:
        trace = self._trace
        size = trace.size
        count = int(count)
        cursor = self._cursor[indices]
        positions = cursor[:, None] + np.arange(count, dtype=np.int64)[None, :]
        if self._cycle:
            out = trace[positions % size]
            self._cursor[indices] = (cursor + count) % size
        else:
            within = positions < size
            out = np.where(
                within, trace[np.minimum(positions, size - 1)], self._exhausted
            )
            # Exhausted draws never advance the cursor (the event path
            # returns EXHAUSTED without touching it).
            self._cursor[indices] = np.minimum(cursor + count, size)
        return out


def _trace_from_spec(
    cls: type,
    mtbf: float | None,
    *,
    interarrivals: Sequence[float] | None = None,
    failure_times: Sequence[float] | None = None,
    cycle: bool = True,
) -> "TraceFailureModel":
    """Scenario-spec factory: build a trace model from recorded data.

    Exactly one of ``interarrivals`` or ``failure_times`` must be given.
    When a target ``mtbf`` is provided (e.g. by a sweep over platform MTBFs)
    the trace is rescaled so its empirical mean matches it, preserving the
    recorded burstiness pattern while hitting the requested failure rate.
    """
    if (interarrivals is None) == (failure_times is None):
        raise ValueError(
            "trace failure model needs exactly one of 'interarrivals' or "
            "'failure_times'"
        )
    if interarrivals is not None:
        model = cls(interarrivals, cycle=cycle)
    else:
        model = cls.from_failure_times(failure_times, cycle=cycle)
    if mtbf is not None and model.mtbf > 0:
        model = model.scaled(mtbf / model.mtbf)
    return model


@register_failure_model(
    "trace",
    aliases=("trace-based", "replay"),
    factory=_trace_from_spec,
    vectorized=True,
)
class TraceFailureModel(FailureModel):
    """Replays a fixed sequence of failure inter-arrival times.

    Parameters
    ----------
    interarrivals:
        Sequence of strictly positive inter-arrival times (seconds), replayed
        in order.  When the trace is exhausted the behaviour depends on
        ``cycle``.
    cycle:
        If true (default), the trace is replayed from the beginning once
        exhausted; otherwise a very large time is returned so that no further
        failure occurs within any realistic horizon.

    Notes
    -----
    The model is *stateful*: each call to :meth:`sample_interarrival`
    advances an internal cursor.  Use :meth:`reset` (or a fresh instance) to
    restart the trace between simulation runs.  Despite the statefulness it
    is registered ``vectorized=True``: :meth:`trial_block_sampler` keeps one
    cursor per trial over the shared trace, so the across-trials engine
    replays it bit-identically to the event backend.
    """

    #: Inter-arrival time returned once a non-cycling trace is exhausted.
    EXHAUSTED: float = 1e30

    def __init__(self, interarrivals: Iterable[float], *, cycle: bool = True) -> None:
        values = np.asarray(list(interarrivals), dtype=float)
        if values.size == 0:
            raise ValueError("trace must contain at least one inter-arrival time")
        if np.any(values <= 0):
            raise ValueError("all inter-arrival times must be strictly positive")
        self._interarrivals = values
        self._cycle = bool(cycle)
        self._cursor = 0

    @classmethod
    def from_failure_times(
        cls, failure_times: Sequence[float], *, cycle: bool = True
    ) -> "TraceFailureModel":
        """Build a trace from *absolute* failure times (must be increasing)."""
        times = np.asarray(list(failure_times), dtype=float)
        if times.size == 0:
            raise ValueError("failure_times must contain at least one timestamp")
        if np.any(np.diff(times) <= 0) or times[0] <= 0:
            raise ValueError("failure_times must be strictly increasing and positive")
        interarrivals = np.diff(np.concatenate([[0.0], times]))
        return cls(interarrivals, cycle=cycle)

    @property
    def mtbf(self) -> float:
        """Empirical mean of the trace inter-arrival times."""
        return float(np.mean(self._interarrivals))

    @property
    def cycle(self) -> bool:
        """Whether the trace restarts from the beginning when exhausted."""
        return self._cycle

    @property
    def remaining(self) -> int:
        """Number of un-consumed entries before exhaustion (cycling ignores this)."""
        return int(self._interarrivals.size - self._cursor)

    def reset(self) -> None:
        """Rewind the trace to its first entry."""
        self._cursor = 0

    def spawn(self) -> "TraceFailureModel":
        """A fresh, rewound replayer sharing this trace's (immutable) data.

        The clone starts at the first entry and advances its own cursor, so
        concurrent simulation runs never perturb each other -- at O(1) cost
        per run instead of a deep copy of the whole trace.
        """
        clone = type(self).__new__(type(self))
        clone._interarrivals = self._interarrivals
        clone._cycle = self._cycle
        clone._cursor = 0
        return clone

    def sample_interarrival(self, rng: np.random.Generator) -> float:  # noqa: ARG002
        if self._cursor >= self._interarrivals.size:
            if not self._cycle:
                return self.EXHAUSTED
            self._cursor = 0
        value = float(self._interarrivals[self._cursor])
        self._cursor += 1
        return value

    def trial_block_sampler(self, streams: "TrialStreams") -> TraceBlockSampler:
        """Batched replay for the vectorized engine (see the registry flag).

        Every trial's cursor starts at the first entry -- exactly what
        :meth:`spawn` gives each event-backend run -- independent of any
        other trial, so campaign shards see identical streams at any shard
        boundary.
        """
        return TraceBlockSampler(self, streams)

    def scaled(self, factor: float) -> "TraceFailureModel":
        if factor <= 0:
            raise ValueError(f"factor must be strictly positive, got {factor}")
        return TraceFailureModel(self._interarrivals * factor, cycle=self._cycle)
