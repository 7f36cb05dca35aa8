"""Seeded, splittable random streams.

Every stochastic operation in the package draws from a stream that is
derived from a user seed plus a fixed integer path, so any run can be
replayed bit-for-bit and independent streams never share state. The path
convention:

    stream(seed)                 session-level stream
    stream(seed, ROUNDS, i)      stream for round i of a session
    stream(seed, COIN)           public coin for test-round selection
    stream(seed, SESSIONS, k)    per-session stream inside a Monte Carlo sweep

`stream` seeds numpy's PCG64 generator (O'Neill, "PCG",
HMC-CS-2014-0905) from numpy's seed sequence at `path`, the documented way
to build non-overlapping child streams; `child_seed` and `session_seeds`
split seeds the same way.

Round draws are the hot path: a session derives one stream per round, and
building a seed sequence, PCG64 and Generator for each would take more
time than the round. So round draws have one derivation, a numpy pass over
up to `BLOCK` rows in typed ``np.uint32`` and ``np.uint64`` lanes:
`_pools` hashes a whole array of seeds into the pool that every round of
a seed shares (spawn key ``(ROUNDS,)``), `_seeded` mixes in each round
index and generates the state, and PCG64's two seeding steps and its
first two outputs run on 32-bit limbs. `sessions_draws` lays the sessions
of a sweep end to end, reading their ``np.uint64`` seeds one pass at a
time; `session_draws` is the same rows for one seed of any size, whose
pool is derived once however many passes its session spans; and
`round_stream` is one pass of one index, returned as `ChosenDraws`. All
of them equal the first four draws of ``stream(seed, ROUNDS, i)`` bit for
bit, which the test suite checks against numpy's own seed sequence; every
other stream is a numpy Generator.
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

# numpy's seed-sequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
"""PCG64's 128-bit LCG multiplier."""

# typed constants for the block code: each meets arrays of its own dtype
_W1, _W16, _W31, _ML, _MR = map(np.uint32, (1, 16, 31, _MIX_MULT_L, _MIX_MULT_R))
_L32, _L3, _L12 = map(np.uint64, (_M32, 3, 12))
_S4, _S26, _S30, _S32, _S60, _S63, _S64 = map(np.uint64, (4, 26, 30, 32, 60, 63, 64))

_CROSS = tuple(np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE))
"""The lanes each pool lane mixes into, in order, in the pool's cross-mix."""

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
    """`n` as numpy's seed sequence splits an integer: little-endian 32-bit
    words."""
    if n < 0:
        raise ValueError(f"seeds and indices must be nonnegative, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _pools(words: np.ndarray) -> np.ndarray:
    """The four lanes of numpy's seed-sequence pool for spawn key
    ``(ROUNDS,)`` and the hash constant after them, as a (5, n)
    ``np.uint32`` array, for each column of `words`: a (w, n) ``np.uint32``
    array of seeds' little-endian 32-bit words, zero above each seed's own
    width.

    It runs numpy's `mix_entropy` on every column at once, in the typed
    lanes of `_seeded`: hash the first four words (zero-padded) into the
    lanes, cross-mix the lanes in 12 steps, then absorb each word past the
    fourth and the ROUNDS word (0), four hashing steps each. A column of
    fewer than `w` words takes its ROUNDS word from the zero row after its
    own and keeps its lanes and hash constant through the rows after that.
    """
    width, n = words.shape
    rows = np.zeros((max(width, _POOL_SIZE) + 1, n), dtype=np.uint32)
    rows[:width] = words
    steps = 4 * len(rows)
    consts = [_INIT_A]
    for _ in range(steps):
        consts.append(consts[-1] * _MULT_A & _M32)
    h = np.array(consts, dtype=np.uint32)[:, None]
    lanes = (rows[:_POOL_SIZE] ^ h[:4]) * h[1:5]
    lanes ^= lanes >> _W16
    k = _POOL_SIZE
    for src, dst in enumerate(_CROSS):
        value = (lanes[src] ^ h[k:k + 3]) * h[k + 1:k + 4]
        value ^= value >> _W16
        mixed = _ML * lanes[dst] - _MR * value
        mixed ^= mixed >> _W16
        lanes[dst] = mixed
        k += 3
    pools = np.empty((5, n), dtype=np.uint32)
    for j, word in enumerate(rows[_POOL_SIZE:]):
        value = (word ^ h[k:k + 4]) * h[k + 1:k + 5]
        value ^= value >> _W16
        mixed = _ML * lanes - _MR * value
        mixed ^= mixed >> _W16
        k += 4
        if j:
            # row 4 + j only where the column has a word at or above row 3 + j
            live = rows[_POOL_SIZE - 1 + j:].any(axis=0)
            lanes = np.where(live, mixed, lanes)
            pools[4] = np.where(live, h[k], pools[4])
        else:
            lanes = mixed
            pools[4] = h[k]
    pools[:4] = lanes
    return pools


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


def _seeded(pools: np.ndarray, indices: np.ndarray):
    """PCG64's state after seeding and its increment, each a (4, n) array
    of 32-bit limbs (lowest first), for every round in `indices`
    (``np.uint64``).

    `pools` holds each row's `_pools` column, shaped (5, n), or (5, 1) for
    one seed's on every row. This is the one round-seeding derivation. The
    seed sequence absorbs the index's words into the pool lanes and
    `generate_state(4, uint64)` hashes them into eight words, all mod
    2**32 in ``np.uint32``. Those words' 64-bit pairs are
    the high and low halves of the initial state, then of the stream, and
    PCG64 seeds by stepping from state 0, adding the initial state and
    stepping again. Every constant is typed like the array it meets:
    numpy 1.x casts an unsigned array mixed with a Python int by the int's
    value, numpy 2 by its type.
    """
    hashes = pools[4] * _HASH_POWERS
    high = (indices >> _S32).astype(np.uint32)
    two_words = high.astype(bool)
    lanes = pools[:4]
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


def _draws(pools: np.ndarray, indices: np.ndarray) -> list:
    """Each round's first four ``integers(0, 4)`` draws, as a tuple per
    round: one pass, with `pools` as in `_seeded`."""
    state, inc = _seeded(pools, indices)
    second = _mul_add(state, inc)
    codes = _draw_codes(np.concatenate((second, _mul_add(second, inc)), axis=1))
    n = len(indices)
    return _ROWS.take((codes[:n] | codes[n:] << _S4).astype(np.intp)).tolist()


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`seeds` as `_pools` takes them: (w, n) ``np.uint32`` little-endian
    words, two per ``np.uint64`` seed, or for Python ints of any size as
    many as the widest has, each zero above its width."""
    if seeds.dtype == np.uint64:
        return np.array(((seeds & _L32).astype(np.uint32), (seeds >> _S32).astype(np.uint32)))
    words = [*map(_words, seeds.tolist())]
    padded = np.zeros((max(map(len, words)), len(words)), dtype=np.uint32)
    for column, seed_words in enumerate(words):
        padded[:len(seed_words), column] = seed_words
    return padded


def _passes(seeds: np.ndarray, rounds: int):
    """The rows of `seeds`' sessions of `rounds` rounds each, laid end to
    end in order: one pass, a list, per `BLOCK` rows. Short sessions share
    a pass and a long one spans several; the seed array is read one pass
    at a time, so it is never turned into Python ints whole, and a pass
    over the same seeds as the one before it reuses their pools."""
    total = len(seeds) * rounds
    span = None
    for start in range(0, total, BLOCK):
        session, indices = np.divmod(np.arange(start, min(start + BLOCK, total)), rounds)
        first, last = start // rounds, int(session[-1]) + 1
        if span != (first, last):
            span = first, last
            pools = _pools(_seed_words(seeds[first:last]))
        yield _draws(pools[:, session - first] if last - first > 1 else pools,
                     indices.astype(np.uint64))


def session_draws(seed: int, rounds: int):
    """An iterator over the draws of each round of a `rounds`-round session
    under `seed`: row i is the first four ``integers(0, 4)`` of
    ``stream(seed, ROUNDS, i)``. It is `sessions_draws`' rows for the one
    seed, derived a pass at a time as they are used."""
    return itertools.chain.from_iterable(_passes(np.array([seed], dtype=object), rounds))


def sessions_draws(seeds: np.ndarray, rounds: int):
    """(seed, rows) for each of `seeds` in order, where rows is the list
    ``session_draws(seed, rounds)`` yields; the sessions share passes."""
    rows = itertools.chain.from_iterable(_passes(seeds, rounds))
    for seed in map(int, seeds):
        yield seed, list(itertools.islice(rows, rounds))


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


RoundStream = np.random.Generator | ChosenDraws
"""What a round draws from: chosen draws, such as `round_stream`'s, or
any numpy Generator."""


def round_stream(seed: int, index: int) -> ChosenDraws:
    """The draws of round `index` of a session under `seed`, the first four
    of ``stream(seed, ROUNDS, index)``: one pass of one index."""
    if index < 0 or index >> 64:
        raise ValueError(f"round indices must be nonnegative and below 2**64, got {index}")
    pools = _pools(_seed_words(np.array([seed], dtype=object)))
    return ChosenDraws(_draws(pools, np.array([index], dtype=np.uint64))[0])


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed at `path`, e.g. one per Monte Carlo session."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def session_seeds(seed: int, n: int) -> np.ndarray:
    """Independent per-session seeds for an n-session Monte Carlo sweep,
    as a ``np.uint64`` array (8 bytes a session)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(SESSIONS,))
    return ss.generate_state(n, dtype=np.uint64)
