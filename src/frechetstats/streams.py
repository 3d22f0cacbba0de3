"""Counter-based Philox streams keyed by (seed, key), opened a block at a
time.

The stream of ``key`` under ``seed`` is the one numpy builds as
``Generator(Philox(SeedSequence(seed, spawn_key=key)))``: a Philox with a
zero counter whose 128-bit key is ``SeedSequence(seed,
spawn_key=key).generate_state(2, np.uint64)``.  A seed is a non-negative
integer; a key is a non-negative integer or a nonempty tuple of them.
Keys with equal uint32 words share a stream: ``2**32`` and ``(0, 1)`` are
both [0, 1], and ``5`` and ``(5,)`` both [5].  One Monte Carlo experiment's
keys (ints below 2^32, ``(rep, group)`` or ``(n, rep)``) have distinct words.

``philox_keys`` computes those Philox keys for a whole block of stream keys
at once: SeedSequence's uint32 hash mix is ported to numpy arithmetic.
With a spawn key, SeedSequence pads the seed's words to its 4-word pool
and absorbs the key's words after it, so the pool after the seed is mixed
once per seed (cached) and only the key words and the output words are
mixed per key, as arrays over the block.  ``Streams`` then opens every
stream of the block on one Philox by setting its state, instead of
building a ``SeedSequence``, a ``Philox`` and a ``Generator`` per key.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidDescriptor

_MASK = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _not_counts(values):
    """Whether ``values`` hold other than non-negative integers (a bool is not one)."""
    types = set(map(type, values))
    return (bool in types or not all(issubclass(t, (int, np.integer)) for t in types)
            or min(values, default=0) < 0)


def check_seed(seed):
    """Refuse a seed that is not a non-negative integer of any size (InvalidDescriptor)."""
    if _not_counts([seed]):
        raise InvalidDescriptor(f"seed must be a non-negative integer, got {seed!r}")


def _int_words(x):
    """uint32 words of the non-negative int ``x``, least significant first
    (one word for 0), as SeedSequence splits it."""
    words = [x & _MASK]
    while x := x >> 32:
        words.append(x & _MASK)
    return words


def _consts(init, mult, t, count):
    """(count + 1, 1) column of the hash constants init * mult^i, i = t, ...,
    t + count (mod 2^32)."""
    c = init * pow(mult, t, 1 << 32) & _MASK
    out = [c]
    for _ in range(count):
        c = c * mult & _MASK
        out.append(c)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(value, consts):
    """SeedSequence's hash of uint32 ``value`` under successive ``consts``
    (from ``_consts``): one row per hash call."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _absorb(pool, words, lengths, t):
    """Mix the words of each column of ``words`` (m, w) into the (4, m)
    ``pool`` after ``t`` entropy hash calls, each word into every pool word;
    column j only where ``lengths > j``.  Returns the pool and the count of
    hash calls."""
    for j in range(words.shape[1]):
        mixed = _mix(pool, _hash(words[:, j], _consts(_INIT_A, _MULT_A, t, _POOL)))
        pool = np.where(lengths > j, mixed, pool)
        t += _POOL
    return pool, t


@functools.lru_cache(maxsize=64)
def _seed_pool(seed):
    """Read-only (4, 1) SeedSequence pool of ``seed``'s words, padded with
    zeros to the pool size as they are ahead of a spawn key, and the count
    of hash calls made."""
    run = _int_words(seed)
    run += [0] * (_POOL - len(run))
    column = np.array(run[:_POOL], dtype=np.uint32)[:, None]
    pool = list(_hash(column, _consts(_INIT_A, _MULT_A, 0, _POOL)))
    t = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                # each pool word mixed with every other, in place, in this order
                pool[dst] = _mix(pool[dst], _hash(pool[src], _consts(_INIT_A, _MULT_A, t, 1))[0])
                t += 1
    rest = np.array([run[_POOL:]], dtype=np.uint32)
    pool, t = _absorb(np.array(pool), rest, rest.shape[1], t)
    pool.setflags(write=False)
    return pool, t


def _key_words(keys):
    """(m, w) uint32 words of each key (its integers' words in order,
    zero-padded to the longest key) and the (m,) count of each key's
    words.  The keys are checked and split as arrays: one type check over
    all their integers (``_not_counts``), then over each key's to name the
    first it refuses; if any has several words, all are split as one
    object array, shifted 32 bits at a time."""
    parts = [key if isinstance(key, tuple) else (key,) for key in keys]
    flat = [k for part in parts for k in part]
    lengths = np.fromiter(map(len, parts), np.intp, len(parts))
    if not lengths.all() or _not_counts(flat):
        bad = next(key for key, part in zip(keys, parts) if not part or _not_counts(part))
        raise InvalidDescriptor(
            f"a stream key must be a non-negative integer or a nonempty tuple of them, got {bad!r}"
        )
    values = flat
    if max(flat, default=0) > _MASK:  # list each value's words in turn, and count each key's
        shifted = [np.fromiter(map(int, flat), object, len(flat))]  # values >> 32 j, until all are 0
        while (rest := shifted[-1] >> 32).any():
            shifted.append(rest)
        shifted = np.array(shifted)
        counts = 1 + (shifted[1:] != 0).sum(axis=0)  # each value's words, one for 0
        values = (shifted & _MASK).T[np.arange(len(shifted)) < counts[:, None]]
        lengths = np.add.reduceat(counts, np.cumsum(lengths) - lengths)
    words = np.zeros((len(lengths), lengths.max(initial=1)), dtype=np.uint32)
    words[np.arange(words.shape[1]) < lengths[:, None]] = values
    return words, lengths


def philox_keys(seed, keys):
    """(m, 2) uint64 Philox keys of the streams ``keys`` under ``seed``:
    row i is ``SeedSequence(seed, spawn_key=keys[i]).generate_state(2,
    np.uint64)``, bit for bit."""
    check_seed(seed)
    words, lengths = _key_words(keys)
    pool, t = _seed_pool(int(seed))
    pool, _ = _absorb(np.repeat(pool, len(lengths), axis=1), words, lengths, t)
    out = _hash(pool, _consts(_INIT_B, _MULT_B, 0, _POOL)).astype(np.uint64)
    # generate_state(2, np.uint64) reads its four uint32 words little-endian
    return np.column_stack([out[0] | out[1] << 32, out[2] | out[3] << 32])


class Streams:
    """The Philox streams of ``keys`` under ``seed``, opened one at a time
    on one bit generator.  ``open(key)`` resets it to the start of
    ``key``'s stream and returns its ``Generator``, which draws until the
    next ``open``."""

    def __init__(self, seed, keys):
        self._keys = dict(zip(keys, philox_keys(seed, keys).tolist()))
        self._bits = np.random.Philox(0)  # its state is replaced by each open
        self._generator = np.random.Generator(self._bits)
        # a zero counter and an empty buffer, as a fresh Philox starts
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def open(self, key):
        self._state["state"]["key"] = self._keys[key]
        self._bits.state = self._state
        return self._generator
