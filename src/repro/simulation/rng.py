"""Reproducible, independent random streams.

Monte-Carlo validation needs (a) reproducibility -- the same seed must give
the same waste down to the last bit, so regressions are detectable -- and
(b) independence between trials: trial ``i`` draws from its own stream, so
trials can run in any order, in any shard, on any worker, and still give
the same numbers.

Trial ``i`` of a campaign with root seed ``s`` draws from the PCG64
generator seeded by ``np.random.SeedSequence(entropy=s, spawn_key=(i, 0))``
-- the first spawned child of the ``i``-th child of the root, which is what
:meth:`RandomStreams.generator_for_trial` builds, one object at a time.

Campaigns do not build those ``SeedSequence`` objects.  A ``SeedSequence``
hashes its entropy and spawn key into a four-word pool (numpy's documented
``hashmix`` / ``mix`` scheme) and PCG64 seeds itself from the four
``uint64`` words of ``generate_state(4, np.uint64)``.  For a fixed root seed
only the spawn key varies between trials, so :func:`trial_state_words`
replays that hashing as ``uint32`` column arithmetic over a whole trial
range at once: a few dozen array operations yield every trial's four state
words (32 bytes per trial), bit for bit the words the objects would give.
:class:`TrialStreams` keeps those rows for one contiguous trial range and
builds a trial's :class:`numpy.random.Generator` only when asked, through a
minimal :class:`numpy.random.bit_generator.ISeedSequence` that hands PCG64
its precomputed row.  ``seed=None`` has no rows: every trial gets fresh OS
entropy, as :meth:`RandomStreams.generator_for_trial` gives it.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RandomStreams", "TrialStreams", "trial_state_words"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# entropy pool is four uint32 words, hashed with two multiplicative
# constant streams (A while mixing entropy in, B while drawing state out).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
#: PCG64 seeds itself from ``generate_state(4, np.uint64)``.
_STATE_WORDS = 4


def _uint32_words(value: int) -> List[int]:
    """``value`` as little-endian uint32 words, like ``SeedSequence``."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_entropy(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence.mix_entropy`` over uint32 columns.

    Each entry of ``entropy`` is one word of the assembled entropy array,
    either shared by every trial (shape ``(1,)``) or one per trial; the
    returned pool words broadcast the same way.  uint32 array arithmetic
    wraps modulo 2**32, exactly the C code's ``uint32_t`` arithmetic.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: List[np.ndarray], out: np.ndarray) -> None:
    """``SeedSequence.generate_state(4, np.uint64)`` into the rows of ``out``."""
    hash_const = _INIT_B
    halves = []
    for index in range(2 * _STATE_WORDS):
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    for word in range(_STATE_WORDS):
        # Little-endian pairing of the uint32 stream, on any host.
        out[:, word] = halves[2 * word] | (halves[2 * word + 1] << np.uint64(32))


def trial_state_words(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 state words of trials ``[start, stop)`` under root ``seed``.

    Row ``j`` equals
    ``np.random.SeedSequence(entropy=seed, spawn_key=(start + j, 0))
    .generate_state(4, np.uint64)``, computed for the whole range in one
    pass.  A negative seed raises the same :class:`ValueError` as
    ``SeedSequence``.  Trial indices of 2**32 and above take two spawn-key
    words and are hashed as their own group; indices must stay below
    2**64.
    """
    seed_words = _uint32_words(seed)
    start, stop = operator.index(start), operator.index(stop)
    if start < 0 or stop < start:
        raise ValueError(f"need 0 <= start <= stop, got start={start}, stop={stop}")
    if stop > 1 << 64:
        raise ValueError(f"trial indices must stay below 2**64, got stop={stop}")
    # With a spawn key, SeedSequence zero-pads the entropy to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    shared = [np.array([word], dtype=np.uint32) for word in seed_words]
    rows = np.empty((stop - start, _STATE_WORDS), dtype=np.uint64)
    split = min(max(start, 1 << 32), stop)
    for lo, hi in ((start, split), (split, stop)):
        if hi <= lo:
            continue
        index = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
        key = [(index & np.uint64(_MASK32)).astype(np.uint32)]
        if lo >= 1 << 32:
            key.append((index >> np.uint64(32)).astype(np.uint32))
        key.append(np.zeros(1, dtype=np.uint32))  # spawn_key=(i, 0)
        _generate_state(_mix_entropy(shared + key), rows[lo - start : hi - start])
    return rows


class _StateRow(ISeedSequence):
    """One trial's precomputed PCG64 state words, as a seed sequence.

    PCG64 seeds itself with ``generate_state(4, np.uint64)`` and nothing
    else; any other request raises, so this cannot silently stand in for
    a ``SeedSequence`` anywhere it is not the exact answer.
    """

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "precomputed trial state answers only "
                f"generate_state({_STATE_WORDS}, np.uint64), got "
                f"generate_state({n_words}, {np.dtype(dtype)})"
            )
        return self._row


def _generator_from_state(row: np.ndarray) -> np.random.Generator:
    """The generator a ``SeedSequence`` with state words ``row`` seeds.

    ``row`` must be a C-contiguous ``uint64`` row of
    :func:`trial_state_words` (PCG64 reads its memory directly).
    """
    return np.random.Generator(np.random.PCG64(_StateRow(row)))


class TrialStreams:
    """The per-trial generators of the contiguous trial range ``[start, stop)``.

    Holds the range's state rows (32 bytes per trial, derived on first use)
    and builds a trial's generator only when asked: :meth:`generator` for
    one trial at a time, :meth:`generators` for the whole range.  Each is
    bit-identical to ``RandomStreams(seed).generator_for_trial(i)``.  With
    ``seed=None`` every generator draws fresh OS entropy.  A negative seed
    raises at construction, whether or not a generator is ever built.
    """

    def __init__(self, seed: Optional[int], start: int, stop: int) -> None:
        if start < 0 or stop < start:
            raise ValueError(
                f"need 0 <= start <= stop, got start={start}, stop={stop}"
            )
        if seed is not None:
            _uint32_words(seed)
        self._seed = seed
        self._start = int(start)
        self._stop = int(stop)
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._stop - self._start

    def _state_rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = trial_state_words(self._seed, self._start, self._stop)
        return self._rows

    def generator(self, offset: int) -> np.random.Generator:
        """The generator of trial ``start + offset``."""
        if self._seed is None:
            return RandomStreams(None).generator_for_trial(self._start + offset)
        return _generator_from_state(self._state_rows()[offset])

    def generators(self) -> List[np.random.Generator]:
        """Every trial's generator, in trial order."""
        if self._seed is None:
            return [self.generator(offset) for offset in range(len(self))]
        return [_generator_from_state(row) for row in self._state_rows()]


class RandomStreams:
    """A family of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` derives a nondeterministic seed from the OS.

    Examples
    --------
    >>> streams = RandomStreams(seed=1234)
    >>> a = streams.get("failures")
    >>> b = streams.get("nodes")
    >>> a is streams.get("failures")
    True
    >>> streams2 = RandomStreams(seed=1234)
    >>> float(a.random()) == float(streams2.get("failures").random())
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._spawned: Dict[str, np.random.SeedSequence] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this family was created from (``None`` if entropy-based)."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The mapping from name to child seed is deterministic in the *order of
        first use*; to guarantee cross-run reproducibility, create streams in
        a fixed order (the runners in this library always do).
        """
        if name not in self._streams:
            child = self._root.spawn(1)[0]
            self._spawned[name] = child
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def child(self, index: int) -> "RandomStreams":
        """Derive an independent child family (one per Monte-Carlo trial).

        ``child(i)`` is deterministic given the parent seed and ``i`` and
        independent of ``child(j)`` for ``j != i``, so trials can be run in
        any order (or in parallel) without changing results.
        """
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        if self._seed is None:
            child_seq = np.random.SeedSequence(entropy=None)
        else:
            child_seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(index,))
        family = RandomStreams.__new__(RandomStreams)
        family._seed = None
        family._root = child_seq
        family._streams = {}
        family._spawned = {}
        return family

    def generator_for_trial(self, index: int, name: str = "failures") -> np.random.Generator:
        """Shortcut: the ``name`` stream of the ``index``-th child family.

        Bit-identical to ``child(index).get(name)`` -- whatever ``name``,
        the first stream of a fresh child family is the first spawn of
        ``SeedSequence(entropy=seed, spawn_key=(index,))``, whose spawn key
        is ``(index, 0)`` by NumPy's spawning rule.  Building that sequence
        directly halves the derivation cost, which matters when a campaign
        derives tens of thousands of per-trial generators.
        """
        if self._seed is None:
            return self.child(index).get(name)
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self._seed, spawn_key=(index, 0))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomStreams(seed={self._seed!r}, streams={sorted(self._streams)})"
