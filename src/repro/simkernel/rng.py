"""Named, independently seeded random streams.

Sensor-network experiments draw randomness from many logically distinct
sources: event placement, per-node sensing noise, channel loss, fault
injection, cluster-head election.  If all of these shared one generator,
changing e.g. the number of events would perturb the channel-loss
sequence and make A/B comparisons noisy.  :class:`RandomStreams` gives
each subsystem its own ``numpy`` generator derived from a single master
seed via ``SeedSequence.spawn``-style key hashing, so streams are
mutually independent and any single stream is stable as long as its
name and the master seed are unchanged.

A sweep reruns the same run seeds on every curve of a figure, so most
streams a process creates repeat a ``(master seed, name)`` pair it has
already derived.  The four PCG64 seed words that deriving a stream
(SHA-256, ``SeedSequence``) produces are therefore cached per process,
and a repeated stream is rebuilt from them, an order of magnitude
faster, with bit-identical draws (``docs/protocol.md``, "Random
streams").
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, Iterable, Tuple

import numpy as np


def _derive_seed(master_seed: int, name: str) -> np.random.SeedSequence:
    """Derive a child seed sequence from ``master_seed`` and a stream name.

    The name is hashed (SHA-256) to integers used as spawn keys, so the
    mapping is stable across processes and Python versions (unlike
    ``hash()``, which is salted).
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    # Four 32-bit words from the digest uniquely flavour the child.
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(words))


#: Per-process cache behind :meth:`RandomStreams.get`: ``(master seed,
#: stream name)`` -> the read-only words ``_derive_seed(master seed,
#: name).generate_state(4, np.uint64)`` returns, i.e. the whole input
#: PCG64 seeds itself from.  Bounded so a sweep over many seeds cannot
#: grow it without limit; eviction is wholesale (the cache is pure: a
#: value is numpy's own output for its key).
_SEED_WORDS: Dict[Tuple[int, str], np.ndarray] = {}
_SEED_WORDS_MAX = 4096


class _SeedWords:
    """A seed sequence that hands PCG64 one stream's cached seed words.

    PCG64's constructor asks its seed sequence for ``generate_state(4,
    np.uint64)`` once and for nothing else, and ``default_rng(ss)`` is
    ``Generator(PCG64(ss))``, so a generator built on this replay is
    bit-identical to one built on the ``SeedSequence`` the words came
    from.  It does not implement spawning.  :func:`_numpy_random`
    registers it as a numpy ``ISeedSequence``, which PCG64 requires.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "cached seed words answer generate_state(4, np.uint64) "
                f"only, got ({n_words}, {dtype})"
            )
        return self._words


@functools.lru_cache(maxsize=None)
def _numpy_random() -> Tuple[type, type]:
    """``(Generator, PCG64)``, importing ``numpy.random`` on first use.

    Importing this module leaves ``numpy.random`` unloaded (about 13 ms
    and 6 MiB on a 2-vCPU VM), so the trust service, which imports the
    kernel but builds no stream, never pays for it.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return np.random.Generator, np.random.PCG64


class RandomStreams:
    """A registry of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    master_seed:
        The single seed that reproduces the entire experiment: a
        non-negative integer.

    A stream's PCG64 seed words are derived once per process and cached
    by ``(master_seed, name)``, so its ``bit_generator.seed_seq`` is a
    replay of those words that cannot ``spawn``; its draws are those of
    ``np.random.default_rng(_derive_seed(master_seed, name))``.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> channel = streams.get("channel")
    >>> events = streams.get("events")
    >>> channel is streams.get("channel")
    True
    >>> channel is not events
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        if isinstance(master_seed, bool) or not isinstance(
            master_seed, (int, np.integer)
        ):
            raise TypeError(f"master_seed must be an int, got {master_seed!r}")
        if master_seed < 0:
            raise ValueError(
                f"master_seed must be non-negative, got {master_seed}"
            )
        self._master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        """The master seed this registry was built from."""
        return self._master_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            if not name:
                raise ValueError("stream name must be a non-empty string")
            key = (self._master_seed, name)
            words = _SEED_WORDS.get(key)
            if words is None:
                words = _derive_seed(*key).generate_state(4, np.uint64)
                words.flags.writeable = False
                if len(_SEED_WORDS) >= _SEED_WORDS_MAX:
                    _SEED_WORDS.clear()
                _SEED_WORDS[key] = words
            generator, pcg64 = _numpy_random()
            stream = generator(pcg64(_SeedWords(words)))
            self._streams[name] = stream
        return stream

    def names(self) -> Iterable[str]:
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:
        return (
            f"RandomStreams(master_seed={self._master_seed}, "
            f"streams={sorted(self._streams)})"
        )
