"""Unit tests for the reproducible random streams and their bulk derivation.

The bulk derivation re-implements numpy's ``SeedSequence`` hashing, so the
tests here compare it against the installed numpy's own ``SeedSequence``
(CI runs this file against an old numpy release as well).
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.rng as rng_module
import repro.simulation.vectorized as vectorized_module
from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import ShardedVectorizedExecutor
from repro.core.registry import resolve_protocol
from repro.failures import TraceFailureModel
from repro.simulation import RandomStreams
from repro.simulation.rng import TrialStreams, trial_state_words
from repro.simulation.runner import simulate_trial_range
from repro.simulation.table import TrialTable
from repro.simulation.vectorized import TRIAL_CHUNK
from repro.utils import HOUR, MINUTE


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("failures") is streams.get("failures")

    def test_different_names_are_independent_objects(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is not streams.get("b")

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=1234).get("failures")
        b = RandomStreams(seed=1234).get("failures")
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("failures")
        b = RandomStreams(seed=2).get("failures")
        assert a.random() != b.random()

    def test_child_families_reproducible(self):
        a = RandomStreams(seed=7).child(3).get("failures")
        b = RandomStreams(seed=7).child(3).get("failures")
        assert a.random() == b.random()

    def test_child_families_independent(self):
        parent = RandomStreams(seed=7)
        a = parent.child(0).get("failures")
        b = parent.child(1).get("failures")
        assert a.random() != b.random()

    def test_child_order_does_not_matter(self):
        parent = RandomStreams(seed=11)
        late = parent.child(5).get("x").random()
        other_parent = RandomStreams(seed=11)
        other_parent.child(0)  # create a different child first
        assert other_parent.child(5).get("x").random() == late

    def test_generator_for_trial_shortcut(self):
        parent = RandomStreams(seed=3)
        assert (
            parent.generator_for_trial(2).random()
            == RandomStreams(seed=3).child(2).get("failures").random()
        )

    def test_negative_child_index_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=1).child(-1)

    def test_seed_property(self):
        assert RandomStreams(seed=42).seed == 42
        assert RandomStreams().seed is None


class TestGeneratorForTrialFastPath:
    """The direct SeedSequence derivation must stay bit-identical to the
    historical spawn-based one -- every cached sweep and pinned regression
    value depends on this mapping."""

    def test_matches_spawn_based_derivation(self):
        from repro.simulation.rng import RandomStreams

        streams = RandomStreams(seed=2014)
        for index in (0, 1, 17, 4095):
            fast = streams.generator_for_trial(index)
            slow = streams.child(index).get("failures")
            assert fast.random() == slow.random()

    def test_name_does_not_change_the_first_stream(self):
        from repro.simulation.rng import RandomStreams

        streams = RandomStreams(seed=7)
        a = streams.generator_for_trial(3, "failures").random()
        b = streams.generator_for_trial(3, "anything").random()
        assert a == b

    def test_negative_index_rejected(self):
        from repro.simulation.rng import RandomStreams

        with pytest.raises(ValueError):
            RandomStreams(seed=1).generator_for_trial(-1)

    def test_seed_none_still_nondeterministic(self):
        from repro.simulation.rng import RandomStreams

        streams = RandomStreams(seed=None)
        a = streams.generator_for_trial(0).random()
        b = streams.generator_for_trial(0).random()
        assert a != b


def _reference_rows(seed, start, stop):
    """What one ``SeedSequence`` object per trial gives."""
    rows = [
        np.random.SeedSequence(entropy=seed, spawn_key=(i, 0)).generate_state(
            4, np.uint64
        )
        for i in range(start, stop)
    ]
    return np.array(rows, dtype=np.uint64).reshape(-1, 4)


class TestBulkDerivation:
    """``trial_state_words`` against numpy's own ``SeedSequence``."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]
    )
    @pytest.mark.parametrize(
        "start", [0, TRIAL_CHUNK - 4, 2 * TRIAL_CHUNK - 4, 2**32 - 4]
    )
    def test_rows_equal_seed_sequence(self, seed, start):
        # Each window straddles 0, a chunk boundary, or the 2**32 index
        # where the spawn key grows a second word.
        rows = trial_state_words(seed, start, start + 8)
        assert rows.dtype == np.uint64 and rows.shape == (8, 4)
        assert np.array_equal(rows, _reference_rows(seed, start, start + 8))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**160),
        start=st.one_of(
            st.integers(min_value=0, max_value=2**14),
            st.integers(min_value=2**32 - 16, max_value=2**32 + 16),
            st.integers(min_value=0, max_value=2**63),
        ),
        length=st.integers(min_value=0, max_value=24),
    )
    def test_rows_equal_seed_sequence_property(self, seed, start, length):
        stop = start + length
        assert np.array_equal(
            trial_state_words(seed, start, stop), _reference_rows(seed, start, stop)
        )

    def test_first_draws_match_generator_for_trial(self):
        oracle = RandomStreams(seed=2014)
        start, stop = TRIAL_CHUNK - 5, TRIAL_CHUNK + 5
        streams = TrialStreams(2014, start, stop)
        for offset, built in enumerate(streams.generators()):
            want = oracle.generator_for_trial(start + offset).random(4)
            assert (built.random(4) == want).all()
            assert (streams.generator(offset).random(4) == want).all()

    def test_distinct_seeds_have_distinct_streams(self):
        a = TrialStreams(1, 0, 1).generator(0).random()
        b = TrialStreams(2, 0, 1).generator(0).random()
        assert a != b

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError) as expected:
            np.random.SeedSequence(entropy=-1, spawn_key=(0, 0))
        with pytest.raises(ValueError) as got:
            trial_state_words(-1, 0, 3)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ValueError):
            TrialStreams(-5, 0, 3)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            trial_state_words(1, -1, 3)
        with pytest.raises(ValueError):
            trial_state_words(1, 5, 4)
        with pytest.raises(ValueError):
            TrialStreams(1, -1, 3)
        assert trial_state_words(1, 7, 7).shape == (0, 4)

    def test_state_row_answers_only_the_pcg64_request(self):
        seed_seq = TrialStreams(3, 0, 1).generator(0).bit_generator.seed_seq
        assert seed_seq.generate_state(4, np.uint64).shape == (4,)
        with pytest.raises(ValueError, match="generate_state"):
            seed_seq.generate_state(8, np.uint32)

    def test_seed_none_draws_fresh_entropy(self):
        streams = TrialStreams(None, 0, 2)
        assert streams.generator(0).random() != streams.generator(0).random()
        assert len(streams.generators()) == 2


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)


def _count_generators(monkeypatch):
    """Patch the generator factory to count builds and live generators."""
    counts = {"built": 0, "alive": 0, "peak": 0}
    build = rng_module._generator_from_state

    def died():
        counts["alive"] -= 1

    def counted(row):
        generator = build(row)
        counts["built"] += 1
        counts["alive"] += 1
        counts["peak"] = max(counts["peak"], counts["alive"])
        # Generators take no weak references; their seed row lives exactly
        # as long as their bit generator.
        weakref.finalize(generator.bit_generator.seed_seq, died)
        return generator

    monkeypatch.setattr(rng_module, "_generator_from_state", counted)
    return counts


class TestChunkedCampaigns:
    """A range runs in ``TRIAL_CHUNK`` chunks without changing a bit."""

    RUNS = 2 * TRIAL_CHUNK + TRIAL_CHUNK // 2
    SEED = 9001

    def _engine(self, **kwargs):
        return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
            _parameters(), _workload(), **kwargs
        )

    def test_equals_serial_shards_at_odd_boundaries(self):
        engine = self._engine()
        table = engine.run_trials(self.RUNS, seed=self.SEED)
        for workers in (3, 17):
            shards = ShardedVectorizedExecutor(workers=workers).shard_ranges(self.RUNS)
            assert any(start % 2 for start, _ in shards)
            sharded = TrialTable.concatenate(
                [engine.run_trial_range(start, stop, self.SEED) for start, stop in shards]
            )
            assert sharded == table

    def test_equals_one_unchunked_pass(self, monkeypatch):
        engine = self._engine()
        chunked = engine.run_trials(self.RUNS, seed=self.SEED)
        monkeypatch.setattr(vectorized_module, "TRIAL_CHUNK", self.RUNS)
        assert engine.run_trials(self.RUNS, seed=self.SEED) == chunked

    def test_slice_across_a_chunk_boundary_equals_event_walk(self):
        table = self._engine().run_trials(self.RUNS, seed=self.SEED)
        start, stop = 2 * TRIAL_CHUNK - 4, 2 * TRIAL_CHUNK + 4
        simulator = resolve_protocol("PurePeriodicCkpt").simulator_cls(
            _parameters(), _workload()
        )
        walked, _ = simulate_trial_range(
            simulator.simulate_once, seed=self.SEED, start=start, stop=stop
        )
        head = TrialTable(
            table.data[start:stop],
            protocol=table.protocol,
            application_time=table.application_time,
        )
        assert head == walked
        assert head.data.tobytes() == walked.data.tobytes()

    def test_at_most_one_chunk_of_generators_alive(self, monkeypatch):
        counts = _count_generators(monkeypatch)
        self._engine().run_trials(self.RUNS, seed=self.SEED)
        assert counts["built"] == self.RUNS
        assert counts["peak"] == TRIAL_CHUNK
        assert counts["alive"] == 0

    def test_trace_law_builds_no_generator(self, monkeypatch):
        # A small chunk keeps the event replay cheap while the campaign
        # still crosses chunk boundaries.
        monkeypatch.setattr(vectorized_module, "TRIAL_CHUNK", 16)
        model = TraceFailureModel([3000.0, 900.0, 5400.0, 1200.0, 7000.0])
        counts = _count_generators(monkeypatch)
        table = self._engine(failure_model=model).run_trials(40, seed=self.SEED)
        assert counts["built"] == 0
        simulator = resolve_protocol("PurePeriodicCkpt").simulator_cls(
            _parameters(), _workload(), failure_model=model
        )
        replayed, _ = simulate_trial_range(
            simulator.simulate_once, seed=self.SEED, start=0, stop=40
        )
        assert table == replayed
