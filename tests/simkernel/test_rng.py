"""Unit tests for named random streams."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.simkernel import rng
from repro.simkernel.rng import RandomStreams, _derive_seed


class TestStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent_objects(self):
        streams = RandomStreams(1)
        assert streams.get("a") is not streams.get("b")

    def test_streams_reproducible_across_registries(self):
        a1 = RandomStreams(99).get("channel").random(10)
        a2 = RandomStreams(99).get("channel").random(10)
        assert np.array_equal(a1, a2)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(10)
        b = RandomStreams(2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_different_names_produce_different_sequences(self):
        streams = RandomStreams(5)
        a = streams.get("alpha").random(10)
        b = streams.get("beta").random(10)
        assert not np.array_equal(a, b)

    def test_stream_stable_under_other_streams(self):
        """Drawing from one stream must not perturb another."""
        s1 = RandomStreams(3)
        s2 = RandomStreams(3)
        _ = s1.get("noise").random(1000)  # extra traffic on s1 only
        a = s1.get("target").random(5)
        b = s2.get("target").random(5)
        assert np.array_equal(a, b)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(0).get("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomStreams(-1)

    def test_bool_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(True)

    def test_names_lists_created_streams(self):
        streams = RandomStreams(0)
        streams.get("b")
        streams.get("a")
        assert list(streams.names()) == ["a", "b"]


#: Master seeds of the cache differential: small, the benchmark's, past
#: 64 and 128 bits (SeedSequence splits entropy into 32-bit words), and
#: a hash-derived 64-bit seed with its top bit set.
CACHE_SEEDS = (
    0, 1, 2005, 2**64 + 3, 2**130 + 1,
    14940637503391082016,
)

#: A run's stream names: every per-node stream of a 100-node run, the
#: shared subsystem streams, and a name whose UTF-8 encoding is not ASCII.
CACHE_NAMES = tuple(f"node-{i}" for i in range(100)) + (
    "channel", "events", "leach", "collusion", "deployment", "nœud-β",
)


def _reference(seed, name):
    """The stream as numpy builds it from the stream's seed sequence."""
    return np.random.default_rng(_derive_seed(seed, name))


def _same_stream(stream, reference):
    """Equal PCG64 state, then equal next draws of three kinds."""
    assert stream.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(stream.random(4), reference.random(4))
    assert np.array_equal(
        stream.integers(0, 2**40, size=3), reference.integers(0, 2**40, size=3)
    )
    assert stream.normal() == reference.normal()


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh seed-word cache for one test (the real one is restored)."""
    cache = {}
    monkeypatch.setattr(rng, "_SEED_WORDS", cache)
    return cache


class TestSeedWordCache:
    @pytest.mark.parametrize("seed", CACHE_SEEDS)
    def test_miss_and_hit_equal_numpy(self, empty_cache, seed):
        first, second = RandomStreams(seed), RandomStreams(seed)
        for name in CACHE_NAMES:
            assert (seed, name) not in empty_cache
            _same_stream(first.get(name), _reference(seed, name))
            assert (seed, name) in empty_cache
        for name in CACHE_NAMES:
            _same_stream(second.get(name), _reference(seed, name))
        assert len(empty_cache) == len(CACHE_NAMES)

    def test_registries_sharing_a_key_draw_independently(self, empty_cache):
        drawn = RandomStreams(2005).get("node-3")
        other = RandomStreams(2005).get("node-3")  # built before the draws
        drawn.random(1000)
        assert other is not drawn
        _same_stream(other, _reference(2005, "node-3"))
        later = RandomStreams(2005).get("node-3")  # built after them
        _same_stream(later, _reference(2005, "node-3"))

    def test_cached_words_are_read_only(self, empty_cache):
        RandomStreams(11).get("channel")
        words = empty_cache[(11, "channel")]
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0] = 0
        expected = _derive_seed(11, "channel").generate_state(4, np.uint64)
        assert np.array_equal(words, expected)

    def test_cache_never_exceeds_its_bound(self, empty_cache, monkeypatch):
        monkeypatch.setattr(rng, "_SEED_WORDS_MAX", 8)
        for seed in range(5):
            streams = RandomStreams(seed)
            for name in CACHE_NAMES[:7]:
                _same_stream(streams.get(name), _reference(seed, name))
                assert len(empty_cache) <= 8

    def test_cached_stream_pickles(self, empty_cache):
        RandomStreams(2005).get("node-9")
        stream = RandomStreams(2005).get("node-9")  # a cache hit
        stream.random(3)
        copy = pickle.loads(pickle.dumps(stream))
        assert np.array_equal(copy.random(6), stream.random(6))

    def test_stream_cannot_spawn(self):
        with pytest.raises(TypeError):
            RandomStreams(3).get("x").spawn(1)

    def test_replay_answers_only_pcg64s_request(self, empty_cache):
        RandomStreams(5).get("x")
        replay = rng._SeedWords(empty_cache[(5, "x")])
        with pytest.raises(ValueError):
            replay.generate_state(8, np.uint32)


#: (lo, hi) of the uniform identity: the origin-anchored ranges a run
#: draws over (a bearing, a sensing radius, a field side), ranges with a
#: non-zero low, one whose bounds are far apart, and empty ranges at
#: both signs of zero.
UNIFORM_RANGES = (
    (0.0, 2.0 * np.pi), (0.0, 20.0), (0.0, 100.0),
    (-30.5, 70.0), (12.25, 99.5), (-1e300, 1e300),
    (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0),
)

#: Scales of the normal identity: the paper's sigmas, and scales whose
#: products underflow to a signed zero.
NORMAL_SCALES = (1.6, 4.25, 6.0, 1e-310, 5e-324, 0.0)


def _pcg64_pair(seed=2005):
    return (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))


def _same_bits(got, expected):
    """Equal values with equal signs of zero."""
    assert got == expected
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


class TestDrawIdentities:
    """``repro.sensors`` draws its per-event floats with the formulas
    numpy's C applies inside ``uniform`` and ``normal``, without the
    calls' argument handling; a numpy that changes either formula fails
    here by name."""

    @pytest.mark.parametrize("lo, hi", UNIFORM_RANGES)
    def test_uniform_is_lo_plus_range_times_random(self, lo, hi):
        numpy_side, formula = _pcg64_pair()
        for _ in range(2000):
            expected = numpy_side.uniform(lo, hi)
            u = formula.random()
            _same_bits(lo + (hi - lo) * u, expected)
            if lo == 0.0 and hi > 0.0:
                # The form a draw from zero takes: hi * u is never
                # negative, so adding the zero low changes no bit.
                _same_bits(hi * u, expected)
        assert formula.bit_generator.state == numpy_side.bit_generator.state

    @pytest.mark.parametrize("s", NORMAL_SCALES)
    def test_normal_is_zero_plus_scale_times_standard_normal(self, s):
        numpy_side, formula = _pcg64_pair()
        for _ in range(2000):
            _same_bits(
                0.0 + s * formula.standard_normal(), numpy_side.normal(0.0, s)
            )
        assert formula.bit_generator.state == numpy_side.bit_generator.state


def _loads_none_of(module: str, unloaded) -> None:
    """Import ``module`` in a fresh interpreter; none of ``unloaded``
    may be in ``sys.modules`` after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    code = (
        f"import sys, {module}; "
        f"loaded = [m for m in {list(unloaded)!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_service_leaves_numpy_random_unloaded():
    """Neither the trust service nor the stream module builds a stream
    on import, so neither loads ``numpy.random``."""
    _loads_none_of(
        "repro.service.http_api, repro.simkernel.rng", ["numpy.random"]
    )


@pytest.mark.parametrize("module, unloaded", [
    ("repro.service.http_api",
     ["repro.simkernel", "repro.network.radio", "repro.obs.export"]),
    ("repro.experiments.harness",
     ["multiprocessing", "repro.service.manager"]),
], ids=["service", "harness"])
def test_a_module_loads_only_what_it_imports(module, unloaded):
    """No package ``__init__`` imports for its modules: the DES-free
    service loads no kernel, radio or exporter, and one simulation run
    no process pool or session manager."""
    _loads_none_of(module, unloaded)
