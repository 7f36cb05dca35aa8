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
building a SeedSequence, PCG64 and Generator for each would take more
time than the round, although the seed words and the ROUNDS word mix into
the same SeedSequence pool every round. So rounds are derived a block at a
time. `session_draws` takes a seed's pool from numpy once; then, for up to
`BLOCK` round indices in one numpy pass, it mixes in each index and runs
the state generation in ``np.uint32`` lanes, then PCG64's two seeding
steps and its first two outputs on 32-bit limbs held in ``np.uint64``
arrays, and hands out each round's four draws. `sessions_draws` does the same for the short sessions of a Monte
Carlo sweep, one pass per chunk of at most `BLOCK` rows of its sessions.
`round_stream` is one row of the same derivation, returned as a
`RoundDraws` that can step on for any number of draws. All of them equal
the draws of ``stream(seed, ROUNDS, i)`` bit for bit, which the test suite
checks; every other stream is a numpy Generator.
"""

from __future__ import annotations

import itertools

import numpy as np

RandomStream = np.random.Generator

# spawn-key domains
ROUNDS = 0
COIN = 1
SESSIONS = 2

BLOCK = 1024
"""Most rows one pass derives: a pass has a fixed cost of a few hundred
microseconds, and a longer one holds more memory for no gain."""

_DRAWS_PER_ROUND = 4
"""Draws derived per round: an Eve round's four swaps; an honest round
reads the first two."""

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

# typed constants for the block code: each meets arrays of its own dtype
_W1, _W16, _W31, _ML, _MR = map(np.uint32, (1, 16, 31, _MIX_MULT_L, _MIX_MULT_R))
_L32, _L3, _L12 = map(np.uint64, (_M32, 3, 12))
_S4, _S26, _S30, _S32, _S60, _S63, _S64 = map(np.uint64, (4, 26, 30, 32, 60, 63, 64))

_HASH_POWERS = np.array([pow(_MULT_A, k, 1 << 32) for k in range(9)], dtype=np.uint32)[:, None]
"""`_MULT_A`**k mod 2**32 for k = 0..8: the hash constants of absorbing up
to two index words are the pool's hash constant times these."""


def _state_hashes() -> tuple[np.ndarray, np.ndarray]:
    """The xors and multipliers of the 8 words `generate_state(4, uint64)`
    makes, shaped (2, 4, 1) to meet the pool lanes twice over; they
    depend only on the word's position."""
    pairs, h = [], _INIT_B
    for _ in range(8):
        nxt = (h * _MULT_B) & _M32
        pairs.append((h, nxt))
        h = nxt
    return tuple(np.array(col, dtype=np.uint32).reshape(2, 4, 1) for col in zip(*pairs))


_STATE_XOR, _STATE_MULT = _state_hashes()

_PCG_LIMBS = np.array([_PCG_MULT >> 32 * j & _M32 for j in range(4)],
                      dtype=np.uint64).reshape(4, 1, 1)
"""PCG64's multiplier as 32-bit limbs, lowest first, shaped to multiply
every limb of a state at once."""

_ROWS = np.empty(4**_DRAWS_PER_ROUND, dtype=object)
_ROWS[:] = [tuple(code >> 2 * k & 3 for k in range(_DRAWS_PER_ROUND))
            for code in range(4**_DRAWS_PER_ROUND)]
"""A round's draws by their code, two bits a draw, the first lowest."""


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


def _round_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's pool, shaped (4, 1), and hash constant, shaped (1,),
    for entropy `seed` and spawn key ``(ROUNDS, i)``, after every word
    that precedes the index: numpy's pool for spawn key ``(ROUNDS,)``, and
    `_INIT_A` times `_MULT_A` per hashing step, 16 to fill and cross-mix
    the pool from the first four (zero-padded) entropy words and four per
    later word, ROUNDS included."""
    steps = 16 + 4 * (max(len(_words(seed)), _POOL_SIZE) - 3)
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(ROUNDS,)).pool
    h = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _M32
    return pool[:, None], np.array([h], dtype=np.uint32)


def _carry(cols: np.ndarray) -> np.ndarray:
    """Propagate the carries of (4, n) limb sums, lowest first, in place,
    dropping the one out of the top limb: the sum mod 2**128."""
    cols[1] += cols[0] >> _S32
    cols[2] += cols[1] >> _S32
    cols[3] += cols[2] >> _S32
    cols &= _L32
    return cols


def _mul_add(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``x * _PCG_MULT + c`` mod 2**128 on (4, n) arrays of 32-bit limbs.

    Limb j of the multiplier times limb i of `x` adds its low half to limb
    i + j and its high half to limb i + j + 1; a limb sums at most seven
    halves, a limb of `c` and a carry, far below 2**64.
    """
    products = x * _PCG_LIMBS
    low, high = products & _L32, products >> _S32
    cols = low[0] + c
    for j in range(1, 4):
        cols[j:] += low[j, :4 - j]
    for j in range(3):
        cols[j + 1:] += high[j, :3 - j]
    return _carry(cols)


def _seeded(pool: np.ndarray, h: np.ndarray, indices: np.ndarray):
    """PCG64's state after seeding and its increment, each a (4, n) array
    of 32-bit limbs (lowest first), for every round in `indices`
    (``np.uint64``).

    `pool` and `h` come from `_round_pool`: one seed's for every row, or
    one per row (lanes (4, n), constants (n,)). This is the one
    round-seeding derivation. SeedSequence absorbs the index's words into
    the pool lanes and `generate_state(4, uint64)` hashes them into eight
    words, all mod 2**32 in ``np.uint32``. Those words' 64-bit pairs are
    the high and low halves of the initial state, then of the stream, and
    PCG64 seeds by stepping from state 0, adding the initial state and
    stepping again. Every constant is typed like the array it meets:
    numpy 1.x casts an unsigned array mixed with a Python int by the int's
    value, numpy 2 by its type.
    """
    hashes = h * _HASH_POWERS
    high = (indices >> _S32).astype(np.uint32)
    two_words = high.astype(bool)
    lanes = pool
    for k, word in enumerate(((indices & _L32).astype(np.uint32), high)):
        if k and not two_words.any():
            break
        value = (word ^ hashes[4 * k:4 * k + 4]) * hashes[4 * k + 1:4 * k + 5]
        value ^= value >> _W16
        mixed = _ML * lanes - _MR * value
        mixed ^= mixed >> _W16
        lanes = np.where(two_words, mixed, lanes) if k else mixed
    words = (lanes ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> _W16
    words = words.reshape(8, -1)
    init = words[[2, 3, 0, 1]].astype(np.uint64)
    seq = words[[6, 7, 4, 5]]
    inc = seq << _W1
    inc[0] |= _W1
    inc[1:] |= seq[:3] >> _W31
    inc = inc.astype(np.uint64)
    return _mul_add(_carry(inc + init), inc), inc


def _draw_codes(states: np.ndarray) -> np.ndarray:
    """The two ``integers(0, 4)`` draws each PCG64 XSL-RR output of
    `states` (4 limbs first) gives, two bits each, first lowest: the top
    two bits of the output's low 32-bit half, then of its high half."""
    x = (states[0] ^ states[2]) | ((states[1] ^ states[3]) << _S32)
    rot = states[3] >> _S26
    out = (x >> rot) | (x << ((_S64 - rot) & _S63))
    return ((out >> _S30) & _L3) | ((out >> _S60) & _L12)


def _draws(pool: np.ndarray, h: np.ndarray, indices: np.ndarray) -> list:
    """Each round's first four ``integers(0, 4)`` draws, as a tuple per
    round: one pass."""
    state, inc = _seeded(pool, h, indices)
    second = _mul_add(state, inc)
    codes = _draw_codes(np.stack((second, _mul_add(second, inc)), axis=1))
    return _ROWS.take((codes[0] | codes[1] << _S4).astype(np.intp)).tolist()


def session_draws(seed: int, rounds: int):
    """An iterator over the draws of each round of a `rounds`-round session
    under `seed`: row i is the first four ``integers(0, 4)`` of
    ``stream(seed, ROUNDS, i)``. One pass derives `BLOCK` rows, the next
    when they are used up."""
    pool, h = _round_pool(seed)
    return itertools.chain.from_iterable(
        _draws(pool, h, np.arange(start, min(start + BLOCK, rounds), dtype=np.uint64))
        for start in range(0, rounds, BLOCK)
    )


def sessions_per_pass(rounds: int) -> int:
    """Sessions of `rounds` rounds whose draws one pass derives."""
    return max(1, BLOCK // max(rounds, 1))


def sessions_draws(seeds: np.ndarray, rounds: int):
    """(seed, draws) for each of `seeds` in order, where draws are the rows
    ``session_draws(seed, rounds)`` yields.

    Sessions of at most `BLOCK` rounds share passes, `sessions_per_pass`
    of them at a time. The seed array is read one chunk at a time, so it
    is never turned into Python ints whole.
    """
    step = sessions_per_pass(rounds)
    indices = np.arange(rounds, dtype=np.uint64)
    for start in range(0, len(seeds), step):
        chunk = seeds[start:start + step].tolist()
        if rounds > BLOCK:  # the session fills passes of its own
            yield chunk[0], session_draws(chunk[0], rounds)
            continue
        pools, hs = zip(*map(_round_pool, chunk))
        rows = _draws(np.repeat(np.hstack(pools), rounds, axis=1),
                      np.repeat(np.concatenate(hs), rounds), np.tile(indices, len(chunk)))
        for k, seed in enumerate(chunk):
            yield seed, rows[k * rounds:(k + 1) * rounds]


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
    those of ``stream(seed, ROUNDS, index)``; one row of `session_draws`'
    derivation."""
    if index < 0 or index >> 64:
        raise ValueError(f"round indices must be nonnegative and below 2**64, got {index}")
    pool, h = _round_pool(seed)
    state, inc = (sum(int(limb) << 32 * k for k, limb in enumerate(x[:, 0]))
                  for x in _seeded(pool, h, np.array([index], dtype=np.uint64)))
    return RoundDraws(state, inc)


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed at `path`, e.g. one per Monte Carlo session."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def session_seeds(seed: int, n: int) -> np.ndarray:
    """Independent per-session seeds for an n-session Monte Carlo sweep,
    as a ``np.uint64`` array (8 bytes a session)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(SESSIONS,))
    return ss.generate_state(n, dtype=np.uint64)
