"""Unit tests for the failure distribution models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.failures import (
    ExponentialFailureModel,
    LogNormalFailureModel,
    TraceFailureModel,
    WeibullFailureModel,
)
from repro.simulation.rng import TrialStreams


class TestExponentialFailureModel:
    def test_mtbf_property(self):
        assert ExponentialFailureModel(3600.0).mtbf == 3600.0

    def test_rate(self):
        assert ExponentialFailureModel(100.0).rate == pytest.approx(0.01)

    def test_rejects_non_positive_mtbf(self):
        with pytest.raises(ValueError):
            ExponentialFailureModel(0.0)

    def test_samples_are_positive(self, rng):
        model = ExponentialFailureModel(10.0)
        samples = model.sample_interarrivals(rng, 1000)
        assert np.all(samples > 0)

    def test_empirical_mean_close_to_mtbf(self, rng):
        model = ExponentialFailureModel(50.0)
        samples = model.sample_interarrivals(rng, 20000)
        assert np.mean(samples) == pytest.approx(50.0, rel=0.05)

    def test_failure_times_sorted_and_bounded(self, rng):
        model = ExponentialFailureModel(5.0)
        times = model.failure_times(rng, horizon=200.0)
        assert np.all(np.diff(times) > 0)
        assert times.size == 0 or times[-1] < 200.0

    def test_failure_times_count_close_to_expectation(self, rng):
        model = ExponentialFailureModel(2.0)
        times = model.failure_times(rng, horizon=10000.0)
        assert times.size == pytest.approx(5000, rel=0.1)

    def test_zero_horizon(self, rng):
        assert ExponentialFailureModel(2.0).failure_times(rng, 0.0).size == 0

    def test_scaled(self):
        model = ExponentialFailureModel(100.0).scaled(0.5)
        assert model.mtbf == 50.0

    def test_equality_and_hash(self):
        assert ExponentialFailureModel(10.0) == ExponentialFailureModel(10.0)
        assert hash(ExponentialFailureModel(10.0)) == hash(ExponentialFailureModel(10.0))
        assert ExponentialFailureModel(10.0) != ExponentialFailureModel(20.0)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            ExponentialFailureModel(1.0).sample_interarrivals(rng, -1)


class TestWeibullFailureModel:
    def test_mean_matches_requested_mtbf(self, rng):
        model = WeibullFailureModel(mtbf=100.0, shape=0.7)
        samples = model.sample_interarrivals(rng, 50000)
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)

    def test_shape_one_is_exponential_like(self, rng):
        model = WeibullFailureModel(mtbf=10.0, shape=1.0)
        assert model.scale == pytest.approx(10.0)

    def test_scaled_preserves_shape(self):
        model = WeibullFailureModel(100.0, shape=0.5).scaled(2.0)
        assert model.mtbf == 200.0
        assert model.shape == 0.5

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            WeibullFailureModel(100.0, shape=0.0)


class TestLogNormalFailureModel:
    def test_mean_matches_requested_mtbf(self, rng):
        model = LogNormalFailureModel(mtbf=100.0, sigma=1.0)
        samples = model.sample_interarrivals(rng, 100000)
        assert np.mean(samples) == pytest.approx(100.0, rel=0.1)

    def test_scaled(self):
        model = LogNormalFailureModel(100.0, sigma=0.5).scaled(3.0)
        assert model.mtbf == 300.0
        assert model.sigma == 0.5


class TestTraceFailureModel:
    def test_replays_in_order(self, rng):
        model = TraceFailureModel([1.0, 2.0, 3.0], cycle=False)
        assert [model.sample_interarrival(rng) for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_exhaustion_returns_guard(self, rng):
        model = TraceFailureModel([1.0], cycle=False)
        model.sample_interarrival(rng)
        assert model.sample_interarrival(rng) == TraceFailureModel.EXHAUSTED

    def test_cycling(self, rng):
        model = TraceFailureModel([1.0, 2.0], cycle=True)
        values = [model.sample_interarrival(rng) for _ in range(4)]
        assert values == [1.0, 2.0, 1.0, 2.0]

    def test_reset(self, rng):
        model = TraceFailureModel([5.0, 6.0])
        model.sample_interarrival(rng)
        model.reset()
        assert model.sample_interarrival(rng) == 5.0

    def test_from_failure_times(self, rng):
        model = TraceFailureModel.from_failure_times([2.0, 5.0, 9.0])
        assert [model.sample_interarrival(rng) for _ in range(3)] == [2.0, 3.0, 4.0]

    def test_mtbf_is_trace_mean(self):
        assert TraceFailureModel([1.0, 3.0]).mtbf == 2.0

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            TraceFailureModel([])
        with pytest.raises(ValueError):
            TraceFailureModel([1.0, 0.0])

    def test_from_failure_times_requires_increasing(self):
        with pytest.raises(ValueError):
            TraceFailureModel.from_failure_times([3.0, 2.0])

    def test_scaled(self, rng):
        model = TraceFailureModel([2.0, 4.0]).scaled(0.5)
        assert model.sample_interarrival(rng) == 1.0


class TestTraceBlockSampler:
    """Batched trace replay must match the per-draw event semantics."""

    def _streams(self, n):
        return TrialStreams(seed=0, start=0, stop=n)

    def test_each_trial_replays_from_the_start(self, rng):
        model = TraceFailureModel([1.0, 2.0, 3.0])
        sampler = model.trial_block_sampler(self._streams(3))
        blocks = sampler.sample_blocks(np.arange(3), 2)
        assert blocks.tolist() == [[1.0, 2.0]] * 3

    def test_cycling_wraps_like_sample_interarrival(self, rng):
        model = TraceFailureModel([1.0, 2.0], cycle=True)
        sampler = model.trial_block_sampler(self._streams(1))
        blocks = sampler.sample_blocks(np.array([0]), 5)
        expected = [model.sample_interarrival(rng) for _ in range(5)]
        assert blocks[0].tolist() == expected == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_exhaustion_returns_guard_without_advancing(self, rng):
        model = TraceFailureModel([1.0, 2.0], cycle=False)
        sampler = model.trial_block_sampler(self._streams(1))
        first = sampler.sample_blocks(np.array([0]), 4)
        guard = TraceFailureModel.EXHAUSTED
        assert first[0].tolist() == [1.0, 2.0, guard, guard]
        # Exhausted draws never advance the cursor: further blocks keep
        # returning the guard, exactly like repeated sample_interarrival.
        again = sampler.sample_blocks(np.array([0]), 2)
        assert again[0].tolist() == [guard, guard]

    def test_cursors_are_independent_per_trial(self, rng):
        model = TraceFailureModel([1.0, 2.0, 3.0], cycle=True)
        sampler = model.trial_block_sampler(self._streams(2))
        sampler.sample_blocks(np.array([0]), 2)  # advance trial 0
        blocks = sampler.sample_blocks(np.array([0, 1]), 2)
        assert blocks[0].tolist() == [3.0, 1.0]  # resumed where it left off
        assert blocks[1].tolist() == [1.0, 2.0]  # untouched trial starts fresh

    def test_generators_are_never_consumed(self, monkeypatch):
        # Replay never draws from a generator, so it builds none at all.
        import repro.simulation.rng as rng_module

        built = []
        monkeypatch.setattr(
            rng_module, "_generator_from_state", lambda row: built.append(row)
        )
        model = TraceFailureModel([4.0, 5.0])
        sampler = model.trial_block_sampler(self._streams(2))
        assert sampler.sample_blocks(np.arange(2), 3).tolist() == [
            [4.0, 5.0, 4.0]
        ] * 2
        assert built == []

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError, match="trials"):
            TraceFailureModel([1.0]).trial_block_sampler(self._streams(0))
