"""Seeded, splittable random streams.

Every stochastic operation in the package draws from a stream that is
derived from a user seed plus a fixed integer path, so any run can be
replayed bit-for-bit and independent streams never share state. The path
convention:

    stream(seed)                 session-level stream
    stream(seed, ROUNDS, i)      stream for round i of a session
    stream(seed, COIN)           public coin for test-round selection
    stream(seed, SESSIONS, k)    per-session stream inside a Monte Carlo sweep

Derivation uses ``numpy.random.SeedSequence(entropy=seed, spawn_key=path)``,
which is the documented way to build non-overlapping child streams, feeding
a PCG64 generator (O'Neill, "PCG", HMC-CS-2014-0905).

Round draws are the hot path: a session derives one stream per round, and
building a SeedSequence, PCG64 and Generator for each takes a large share
of the round, although the seed words and the ROUNDS word mix into the
same SeedSequence pool every round. So `round_stream` takes that pool from
numpy once per seed, keeps it in a small cache, mixes in only the round
index, runs the state generation and PCG64's two seeding steps on Python
integers and returns a `RoundDraws`. Its draws equal those of
``stream(seed, ROUNDS, i)`` bit for bit, which the test suite checks;
every other stream is a numpy Generator.
"""

from __future__ import annotations

import functools

import numpy as np

RandomStream = np.random.Generator

# spawn-key domains
ROUNDS = 0
COIN = 1
SESSIONS = 2

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
"""PCG64's 128-bit LCG multiplier."""

_SPAN_SHIFTS = {1 << k: 32 - k for k in range(1, 33)}
"""Lemire's multiply-shift for a span of 2**k: a 32-bit word's top k bits."""


def _state_hashes() -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of each of the 8 words `generate_state(4, uint64)`
    makes; they depend only on the word's position."""
    pairs, h = [], _INIT_B
    for _ in range(8):
        nxt = (h * _MULT_B) & _M32
        pairs.append((h, nxt))
        h = nxt
    return tuple(pairs)


_STATE_HASHES = _state_hashes()


def stream(seed: int, *path: int) -> RandomStream:
    """Return the deterministic Generator at `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def _words(n: int) -> list[int]:
    """`n` as SeedSequence splits an integer: little-endian 32-bit words."""
    if n < 0:
        raise ValueError(f"seeds and indices must be nonnegative, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _absorb(pool: list[int], h: int, word: int) -> int:
    """Mix the hash of `word` into every pool word, one step of
    SeedSequence's mixing; returns the running hash constant."""
    for dst in range(_POOL_SIZE):
        # the hash is inlined: a call per step costs a few percent of a round
        h_next = (h * _MULT_A) & _M32
        value = ((word ^ h) * h_next) & _M32
        value ^= value >> 16
        h = h_next
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _M32
        pool[dst] = mixed ^ (mixed >> 16)
    return h


@functools.lru_cache(maxsize=16)
def _round_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant for entropy `seed` and spawn
    key ``(ROUNDS, i)``, after every word that precedes the index: numpy's
    pool for spawn key ``(ROUNDS,)``, and `_INIT_A` times `_MULT_A` per
    hashing step, 16 to fill and cross-mix the pool from the first four
    (zero-padded) entropy words and four per later word, ROUNDS included."""
    steps = 16 + 4 * (max(len(_words(seed)), _POOL_SIZE) - 3)
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(ROUNDS,)).pool
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, steps, 1 << 32) & _M32


class RoundDraws:
    """The draws of one round: a PCG64 state and its increment.

    `integers` yields what ``Generator.integers`` yields on the same
    state: the 32-bit halves of each 64-bit XSL-RR output, low half first,
    scaled to the range by Lemire's multiply-shift.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc
        self._high = None

    def integers(self, low: int, high: int) -> int:
        """One draw from [low, high), whose span must be a power of two
        from 2 to 2**32: there Lemire's method never rejects a word."""
        shift = _SPAN_SHIFTS.get(high - low)
        if shift is None:
            raise ValueError(
                f"round draws take power-of-two spans from 2 to 2**32, not {high - low}"
            )
        word = self._high
        if word is None:
            state = (self._state * _PCG_MULT + self._inc) & _M128
            self._state = state
            rot = state >> 122
            out = ((state >> 64) ^ state) & _M64
            out = ((out >> rot) | (out << (64 - rot))) & _M64
            self._high = out >> 32
            word = out & _M32
        else:
            self._high = None
        return low + (word >> shift)


class ChosenDraws:
    """Given draws, handed out in order: a stream that pins a round's branch.

    A round's only randomness is its swap outcomes, each one draw, so the
    draws a round is handed fix every outcome it reads. Asking for a draw
    past the last one, or for one outside the requested range, raises
    ValueError.
    """

    __slots__ = ("_draws", "_next")

    def __init__(self, draws):
        self._draws = tuple(draws)
        self._next = 0

    def integers(self, low: int, high: int) -> int:
        if self._next == len(self._draws):
            raise ValueError(f"all {len(self._draws)} chosen draws are used; none is left")
        draw = self._draws[self._next]
        if not low <= draw < high:
            raise ValueError(f"chosen draw {self._next} is {draw}, outside [{low}, {high})")
        self._next += 1
        return draw


RoundStream = np.random.Generator | RoundDraws | ChosenDraws
"""What a round draws from: `round_stream`'s draws, chosen draws or any
numpy Generator."""


def round_stream(seed: int, index: int) -> RoundDraws:
    """The draws of round `index` of a session under `seed`: the same as
    those of ``stream(seed, ROUNDS, index)``."""
    pool, h = _round_pool(seed)
    pool = list(pool)
    for word in _words(index):
        h = _absorb(pool, h, word)
    words = []
    for lane, (xor, mult) in zip(pool + pool, _STATE_HASHES):
        value = ((lane ^ xor) * mult) & _M32
        words.append(value ^ (value >> 16))
    # PCG64 seeds from generate_state(4, uint64), whose 64-bit words are
    # the high and low halves of the initial state, then of the stream;
    # seeding steps from state 0, adds the initial state and steps again
    initstate = (words[0] | words[1] << 32) << 64 | words[2] | words[3] << 32
    inc = (((words[4] | words[5] << 32) << 64 | words[6] | words[7] << 32) << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    return RoundDraws(state, inc)


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed at `path`, e.g. one per Monte Carlo session."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def session_seeds(seed: int, n: int) -> list[int]:
    """Independent per-session seeds for an n-session Monte Carlo sweep."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(SESSIONS,))
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]
