"""Abstract interface shared by every failure model."""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.simulation.rng import TrialStreams

__all__ = ["FailureModel", "TrialBlockSampler"]


class TrialBlockSampler:
    """Per-chunk block sampler driving the vectorized engine's refills.

    The across-trials engine
    (:class:`~repro.simulation.vectorized.VectorizedPhasedSimulator`)
    requests one sampler per chunk of trials via
    :meth:`FailureModel.trial_block_sampler`, handing it the chunk's
    :class:`~repro.simulation.rng.TrialStreams`, and asks it for blocks of
    inter-arrival draws, one row per trial.  This default implementation
    reproduces the event backend exactly by construction: it builds each
    trial's generator from the chunk's state rows, and each trial gets its
    own :meth:`FailureModel.spawn`-ed model (free for stateless laws, a
    rewound clone for stateful ones) whose
    :meth:`FailureModel.sample_interarrivals` consumes that trial's
    generator -- the very calls the event backend's
    :class:`~repro.failures.timeline.FailureTimeline` makes.

    Stateful models can subclass this to batch across trials; see the
    trace-replay sampler in :mod:`repro.failures.trace_based`, which never
    draws from a generator and so builds none.
    """

    def __init__(self, model: "FailureModel", streams: "TrialStreams") -> None:
        if len(streams) <= 0:
            raise ValueError(f"trials must be positive, got {len(streams)}")
        self._models = [model.spawn() for _ in range(len(streams))]
        self._rngs = streams.generators()

    def sample_blocks(self, indices: np.ndarray, count: int) -> np.ndarray:
        """Draw ``count`` inter-arrivals for every trial in ``indices``.

        ``indices`` are offsets into the sampler's trial range.  Returns a
        ``(len(indices), count)`` float array whose row ``j`` holds trial
        ``indices[j]``'s next block, bit-identical to the per-trial stream
        the event backend consumes.
        """
        models, rngs = self._models, self._rngs
        out = np.empty((len(indices), int(count)), dtype=float)
        for j, i in enumerate(indices):
            out[j] = models[i].sample_interarrivals(rngs[i], count)
        return out


class FailureModel(abc.ABC):
    """A stochastic process generating failure inter-arrival times.

    Concrete models implement :meth:`sample_interarrival`, which draws the
    time until the *next* failure.  All models expose their theoretical MTBF
    (mean of the inter-arrival distribution) through :attr:`mtbf`, which is
    the single scalar the analytical model of the paper consumes.

    Times are expressed in seconds (see :mod:`repro.utils.units`).
    """

    @property
    @abc.abstractmethod
    def mtbf(self) -> float:
        """Theoretical mean time between failures, in seconds."""

    @abc.abstractmethod
    def sample_interarrival(self, rng: np.random.Generator) -> float:
        """Draw the time until the next failure (strictly positive seconds)."""

    # ------------------------------------------------------------------ #
    # Convenience helpers shared by all models
    # ------------------------------------------------------------------ #
    def sample_interarrivals(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` independent inter-arrival times as a NumPy array.

        The default implementation loops over :meth:`sample_interarrival`;
        models that can vectorize the draw override this for speed.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return np.array(
            [self.sample_interarrival(rng) for _ in range(count)], dtype=float
        )

    def failure_times(
        self, rng: np.random.Generator, horizon: float
    ) -> np.ndarray:
        """Absolute failure times in ``[0, horizon)`` as an increasing array."""
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        times: list[float] = []
        current = 0.0
        while True:
            current += self.sample_interarrival(rng)
            if current >= horizon:
                break
            times.append(current)
        return np.asarray(times, dtype=float)

    def iter_failure_times(self, rng: np.random.Generator) -> Iterator[float]:
        """Yield an unbounded, strictly increasing stream of failure times."""
        current = 0.0
        while True:
            current += self.sample_interarrival(rng)
            yield current

    def trial_block_sampler(self, streams: "TrialStreams") -> TrialBlockSampler:
        """A sampler for the vectorized engine's block refills over ``streams``.

        The default wraps per-trial :meth:`spawn`-ed models and the trials'
        generators in a :class:`TrialBlockSampler`, which is exactly the
        event backend's sampling (and therefore bit-identical) for every
        model.  Stateful models whose draws do not depend on the generator
        (trace replay) override this with a sampler that batches across
        trials and builds no generator.
        """
        return TrialBlockSampler(self, streams)

    def spawn(self) -> "FailureModel":
        """Return an instance that is safe to consume in a new simulation run.

        Stateless (distribution-parameter only) models are immutable and
        return ``self`` -- the call is free.  Stateful models (trace replay)
        override this to return a fresh, rewound instance that shares the
        immutable bulk data, so per-run isolation costs O(1) instead of the
        ``copy.deepcopy`` the simulators historically paid per trial.

        The default covers stateful subclasses that predate ``spawn()``:
        anything exposing a ``reset()`` is assumed to carry per-run state
        and still gets the historical deep-copy isolation; models without
        one are treated as immutable.
        """
        reset = getattr(self, "reset", None)
        if reset is not None:
            clone = copy.deepcopy(self)
            clone.reset()
            return clone
        return self

    def scaled(self, factor: float) -> "FailureModel":
        """Return a model whose MTBF is multiplied by ``factor``.

        Used by the weak-scaling scenarios: going from ``N`` to ``k N`` nodes
        divides the platform MTBF by ``k`` (``factor = 1/k``).  Subclasses
        override this with an exact re-parameterisation; the base class has
        no generic way to rescale an arbitrary distribution.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support MTBF rescaling"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(mtbf={self.mtbf:.6g}s)"
