"""The block stream opener against numpy's own SeedSequence streams."""

import re

import numpy as np
import pytest
from numpy.random.bit_generator import _coerce_to_uint32_array

from frechetstats.errors import InvalidDescriptor
from frechetstats.streams import Streams, _key_words, philox_keys

from conftest import seed_sequence_stream


def seed_sequence_keys(seed, keys):
    return np.array([
        np.random.SeedSequence(seed, spawn_key=key if isinstance(key, tuple) else (key,))
        .generate_state(2, np.uint64)
        for key in keys
    ])


# seed 0, one word, more than 2^32 (two words), more than 2^128 (past the pool)
SEEDS = [0, 12345, 2**32 + 7, 2**130 + 2**64 + 3]

# int, np.integer and tuple keys; words of 2^32 and above; mixed widths
KEYS = [
    0, 1, 2**31, 2**32 - 1, 2**32, 2**64 + 5, 2**100,
    np.int64(9), np.uint32(4_000_000_000), np.uint64(2**63 + 1),
    (0,), (3, 4), (0, 0), (2**40, 3), (np.int32(7), 2**33, 0), (1, 2, 3, 4, 5),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_keys_are_seed_sequence_words(seed):
    assert np.array_equal(philox_keys(seed, KEYS), seed_sequence_keys(seed, KEYS))
    # each key alone, and the block in another order, give the same rows
    for key in KEYS:
        assert np.array_equal(philox_keys(seed, [key]), seed_sequence_keys(seed, [key]))
    assert np.array_equal(philox_keys(seed, KEYS[::-1]), seed_sequence_keys(seed, KEYS[::-1]))


def test_philox_keys_match_on_random_seeds_and_keys():
    rng = np.random.default_rng(17)
    for _ in range(20):
        seed = int(rng.integers(0, 2**63)) << int(rng.integers(0, 140))
        keys = [int(k) for k in rng.integers(0, 2**62, 5)]
        keys += [tuple(int(k) for k in rng.integers(0, 2**40, int(rng.integers(1, 4))))
                 for _ in range(5)]
        assert np.array_equal(philox_keys(seed, keys), seed_sequence_keys(seed, keys))


def test_a_fresh_philox_starts_at_the_seed_sequence_key():
    # the premise of the port: Philox(ss) keys itself with ss's two words
    ss = np.random.SeedSequence(5, spawn_key=(3, 1))
    state = np.random.Philox(ss).state
    assert np.array_equal(state["state"]["key"], ss.generate_state(2, np.uint64))
    assert not state["state"]["counter"].any()
    assert state["buffer_pos"] == 4 and state["has_uint32"] == 0


def test_a_reset_philox_draws_like_a_fresh_one():
    keys = [0, (1, 0), (1, 1), 2**32 + 1]
    streams = Streams(3, keys)
    for key in keys:
        # leave a half-used uint32 and a partly used buffer on the generator
        used = streams.open(keys[0])
        used.integers(0, 2**32, size=3, dtype=np.uint32)
        assert used.bit_generator.state["has_uint32"] == 1
        rng, ref = streams.open(key), seed_sequence_stream(3, key)
        assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
        assert np.array_equal(rng.random(5, dtype=np.float32), ref.random(5, dtype=np.float32))
        assert np.array_equal(rng.exponential(size=9), ref.exponential(size=9))


def test_keys_with_equal_words_share_a_stream():
    # SeedSequence concatenates the words of a key's integers: 2**32 and
    # (0, 1) are both the words [0, 1], and 5 and (5,) both [5]
    rows = philox_keys(1, [2**32, (0, 1), 5, (5,)])
    assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[2], rows[3])
    assert not np.array_equal(rows[0], rows[2])


@pytest.mark.parametrize(
    "keys",
    [
        pytest.param(list(range(3000)), id="coverage_and_stickiness"),
        pytest.param([(r, g) for r in range(3000) for g in (0, 1)], id="type1"),
        pytest.param([(n, r) for n in (10, 20, 50, 200, 3000) for r in range(3000)],
                     id="consistency"),
    ],
)
def test_each_experiments_keys_open_distinct_streams(keys):
    for seed in (0, 2**40 + 3):
        assert len(np.unique(philox_keys(seed, keys), axis=0)) == len(keys)


@pytest.mark.parametrize(
    "keys",
    [
        pytest.param([2**32, (0, 1)], id="2**32_and_(0,1)"),
        pytest.param([5, (5,)], id="5_and_(5,)"),
        pytest.param([2**64 + 5, (2**64 + 5, 0), 2**100], id="multi_word_ints"),
        pytest.param([(1,), (2, 3, 4), 7, (2**40, 0, 9), (0,)], id="mixed_length_tuples"),
        pytest.param([np.int64(9), (np.int32(3), np.uint32(4)), np.uint64(2**63 + 1)], id="numpy_ints"),
        pytest.param([(i, s) for i in range(46) for s in range(75)], id="fiber_block"),
    ],
)
def test_key_words_are_seed_sequence_words(keys):
    words, lengths = _key_words(keys)
    for key, row, length in zip(keys, words, lengths):
        # the words SeedSequence itself absorbs for the spawn key
        expected = _coerce_to_uint32_array(key if isinstance(key, tuple) else (key,))
        assert np.array_equal(row[:length], expected) and not row[length:].any()
    for seed in (0, 2**40 + 3):
        assert np.array_equal(philox_keys(seed, keys), seed_sequence_keys(seed, keys))


@pytest.mark.parametrize(
    "bad", [True, (1, True), -1, (1, -2), 1.0, (), np.int64(-3), (2, np.float64(1.0)), "3"],
    ids=repr,
)
def test_key_words_refuse_what_is_not_a_count(bad):
    # numpy would read True and 1.0 as 1: the type check must come first
    for keys in ([bad], [(0, 1), bad, 4]):
        with pytest.raises(InvalidDescriptor, match=f"got {re.escape(repr(bad))}$"):
            _key_words(keys)
        with pytest.raises(InvalidDescriptor):
            Streams(0, keys)
