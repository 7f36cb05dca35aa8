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
split seeds the same way. `np.random` appears only inside function bodies,
so numpy 2 loads `numpy.random` at the first `SeedSequence` or `Generator`
a command derives; `verify-oracle` and closed-form `curves` never load it.

Round draws are the hot path: a session derives one stream per round, and
building a seed sequence, PCG64 and Generator for each would take more
time than the round. So round draws have one derivation, a numpy pass over
up to `BLOCK` rows in typed ``np.uint32`` and ``np.uint64`` lanes:
`_seeded` absorbs each round index into its seed's pool under spawn key
``(ROUNDS,)`` with the `_absorb` step and generates the state, and
`_states` runs PCG64's two seeding steps and the two steps to its first
two outputs as one matrix product on 16-bit limbs.
The pool has two derivations, one per kind of input. A session is one
seed of any size and an unbounded run of rounds, so `session_draws` and
`round_stream` read its pool once from numpy's own seed sequence and
take the hash constants that follow it from the seed's width (`_pool`).
A Monte Carlo sweep's seeds are one ``np.uint64`` array of many short
sessions, where a seed sequence per seed would cost more than its
rounds, so `_pools` runs numpy's mixing on a pass's seeds at once; numpy
pads each to four words, so its hash constants are fixed.
`sessions_draws` lays those sessions end to end, reading their seeds one
pass at a time, and `round_stream` is one pass of one index. All of them
equal the first four draws of ``stream(seed, ROUNDS, i)`` bit for bit,
which the test suite checks against numpy's own seed sequence.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

# spawn-key domains
ROUNDS = 0
COIN = 1
SESSIONS = 2

BLOCK = 1024
"""Most rows one pass derives: a pass has a fixed cost of some tens of
microseconds (one row about 45 us, 1,024 rows about 120 us, on one Xeon
core under CPython 3.11), and a longer one holds more memory for no gain."""

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
_W1, _W16, _W31, _L16, _ML, _MR = map(np.uint32, (1, 16, 31, 0xFFFF, _MIX_MULT_L, _MIX_MULT_R))
_L32, _L3, _L12 = map(np.uint64, (_M32, 3, 12))
_S4, _S26, _S30, _S32, _S60, _S63, _S64 = map(np.uint64, (4, 26, 30, 32, 60, 63, 64))

_CROSS = tuple(np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE))
"""The lanes each pool lane mixes into, in order, in the pool's cross-mix."""


@functools.cache
def _hashes(init: int, mult: int, n: int) -> np.ndarray:
    """The first `n` hash constants of one of numpy's two sequences,
    ``init * mult**k mod 2**32``, as an (n, 1) ``np.uint32`` column: hashing
    step k xors its value with constant k and multiplies it by constant
    k + 1."""
    return np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(n)],
                    dtype=np.uint32)[:, None]


_STATE_XOR, _STATE_MULT = (_hashes(_INIT_B, _MULT_B, 9)[k:k + 8].reshape(2, 4, 1) for k in (0, 1))
"""The xors and multipliers of the 8 words `generate_state(4, uint64)`
makes, shaped (2, 4, 1) to meet the pool lanes twice over."""

_POOL_HASHES = _hashes(_INIT_A, _MULT_A, 29)
"""The hash constants of `_pools`' seeds: 4 fill the pool and 12 cross-mix
it, 4 absorb the ROUNDS word and 9 follow for a round index. numpy pads a
seed below 2**128 to four words, so every ``np.uint64`` seed uses these."""


def _step_matrix() -> np.ndarray:
    """`_states`' affine map: PCG64's states after seeding and one and two
    more steps, in terms of its initial state x and increment inc.

    PCG64 seeds by stepping s -> M s + inc from 0, adding x and stepping
    again, so s0 = M x + (M + 1) inc; its first two outputs read
    s1 = M**2 x + (M**2 + M + 1) inc and s2 = M**3 x + (M**3 + M**2 + M + 1) inc,
    all mod 2**128. Row 2 m + s gives 32-bit limb m of state s before
    carries, column 8 k + i takes 16-bit limb i of input k (x, then inc):
    the entry is coefficient limbs 2m - i and 2m + 1 - i, the second
    weighted by 2**16, one 32-bit window of the coefficient. So each
    entry is below 2**32, each product below 2**48 and each row's sum of
    16 products below 2**52: every value the product meets is an integer
    that float64 holds exactly.
    """
    powers = [pow(_PCG_MULT, k, 1 << 128) for k in range(4)]
    coefficients = ((powers[2], sum(powers[:3])), (powers[3], sum(powers)))

    def window(c: int, m: int, i: int) -> int:
        # 16-bit limb 2m - i of c at bit 0 and limb 2m + 1 - i at bit 16, none below limb 0
        shift = 16 * (2 * m - i)
        return c << 16 >> shift + 16 & _M32 if shift >= -16 else 0

    return np.array([[window(c, m, i) for c in state for i in range(8)]
                     for m in range(4) for state in coefficients], dtype=np.float64)


_STEP_MATRIX = _step_matrix()

_OFFSETS = np.arange(BLOCK, dtype=np.uint64)
"""The round indices of a session's first pass; a later pass adds its start."""

_ROWS = np.empty(4**_DRAWS_PER_ROUND, dtype=object)
_ROWS[:] = [tuple(code >> 2 * k & 3 for k in range(_DRAWS_PER_ROUND))
            for code in range(4**_DRAWS_PER_ROUND)]
"""A round's draws by their code, two bits a draw, the first lowest."""


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the deterministic Generator at `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def _absorb(lanes: np.ndarray, word: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """numpy's `mix_entropy` step that absorbs one entropy `word` into the
    (4, n) pool `lanes`: hash the word once per lane, with the hash
    constants `hashes[0]` to `hashes[4]` in turn, and mix each hash into
    its lane."""
    value = (word ^ hashes[:4]) * hashes[1:5]
    value ^= value >> _W16
    mixed = _ML * lanes - _MR * value
    mixed ^= mixed >> _W16
    return mixed


def _pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's seed-sequence pool for spawn key ``(ROUNDS,)`` of one seed,
    read from numpy's own seed sequence: the (4, 1) ``np.uint32`` lanes,
    and the (9, 1) hash constants that a round index's words take next.
    Those depend only on the seed's width, w >= 4 words as numpy pads it:
    one hashing step for each of the first four words, 12 to cross-mix the
    pool, then four for each word past the fourth and four for the ROUNDS
    word, so they are constants 4w + 4 to 4w + 12: the tail of the first
    4w + 13, which for a seed below 2**128 are `_POOL_HASHES`, cached."""
    if seed < 0:
        raise ValueError(f"seeds must be nonnegative, got {seed}")
    words = max(-(-seed.bit_length() // 32), _POOL_SIZE)
    lanes = np.random.SeedSequence(seed, spawn_key=(ROUNDS,)).pool[:, None]
    return lanes, _hashes(_INIT_A, _MULT_A, 4 * words + 13)[-9:]


def _pools(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_pool` for each seed of the ``np.uint64`` array `seeds`: the (4, n)
    pool lanes, and the (9, 1) hash constants every seed shares.

    It runs numpy's `mix_entropy` on every seed at once, in the typed
    lanes of `_seeded`: hash the seed's words, zero-padded to four, into
    the lanes, cross-mix the lanes in 12 steps, then `_absorb` the ROUNDS
    word.
    """
    h = _POOL_HASHES
    words = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    words[0] = seeds & _L32
    words[1] = seeds >> _S32
    lanes = (words ^ h[:4]) * h[1:5]
    lanes ^= lanes >> _W16
    for k, (src, dst) in zip(range(4, 16, 3), enumerate(_CROSS)):
        value = (lanes[src] ^ h[k:k + 3]) * h[k + 1:k + 4]
        value ^= value >> _W16
        mixed = _ML * lanes[dst] - _MR * value
        mixed ^= mixed >> _W16
        lanes[dst] = mixed
    return _absorb(lanes, np.uint32(ROUNDS), h[16:]), h[20:]


def _carry(cols: np.ndarray) -> np.ndarray:
    """Propagate the carries of (4, ...) limb sums, lowest first, in place,
    dropping the one out of the top limb: the sum mod 2**128."""
    cols[1] += cols[0] >> _S32
    cols[2] += cols[1] >> _S32
    cols[3] += cols[2] >> _S32
    cols &= _L32
    return cols


def _states(x: np.ndarray) -> np.ndarray:
    """PCG64's states after seeding and one and two more steps, the ones
    its first two outputs read, as a (4, 2, n) ``np.uint64`` array of
    32-bit limbs (lowest first, then the state), from the (2, 4, n)
    ``np.uint32`` limbs of each row's initial state and increment.

    One matrix product with `_STEP_MATRIX` on the inputs' 16-bit limbs
    gives every limb sum exactly, in float64, and `_carry` reduces the
    sums mod 2**128.
    """
    halves = np.empty((2, 4, 2, x.shape[-1]), dtype=np.float64)
    halves[:, :, 0] = x & _L16
    halves[:, :, 1] = x >> _W16
    return _carry((_STEP_MATRIX @ halves.reshape(16, -1)).astype(np.uint64).reshape(4, 2, -1))


def _seeded(lanes: np.ndarray, hashes: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """PCG64's initial state and increment for every round in `indices`
    (``np.uint64``), as a (2, 4, n) ``np.uint32`` array: the state, then
    the increment, each as 32-bit limbs, lowest first.

    `lanes` and `hashes` are `_pools`' for each row's seed, the lanes
    shaped (4, n), or `_pool`'s for one seed on every row, the lanes
    shaped (4, 1). This is the one round-seeding derivation. The seed
    sequence absorbs the index's one or two words into the pool lanes and
    `generate_state(4, uint64)` hashes them into eight words, all mod
    2**32 in ``np.uint32``. Those words' 64-bit pairs are the high and low
    halves of the initial state, then of the stream, whose doubling plus
    one is the increment. Every constant is typed like the array it meets:
    numpy 1.x casts an unsigned array mixed with a Python int by the int's
    value, numpy 2 by its type.
    """
    high = (indices >> _S32).astype(np.uint32)
    lanes = _absorb(lanes, (indices & _L32).astype(np.uint32), hashes)
    two_words = high.astype(bool)
    if two_words.any():
        lanes = np.where(two_words, _absorb(lanes, high, hashes[4:]), lanes)
    words = (lanes ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> _W16
    words = words.reshape(8, -1)
    x = words[[2, 3, 0, 1, 6, 7, 4, 5]].reshape(2, 4, -1)
    inc, carries = x[1], x[1, :3] >> _W31
    inc <<= _W1
    inc[0] |= _W1
    inc[1:] |= carries
    return x


def _draw_codes(states: np.ndarray) -> np.ndarray:
    """The two ``integers(0, 4)`` draws each PCG64 XSL-RR output of
    `states` (4 limbs first) gives, two bits each, first lowest: the top
    two bits of the output's low 32-bit half, then of its high half."""
    x = (states[0] ^ states[2]) | ((states[1] ^ states[3]) << _S32)
    rot = states[3] >> _S26
    out = (x >> rot) | (x << ((_S64 - rot) & _S63))
    return ((out >> _S30) & _L3) | ((out >> _S60) & _L12)


def _draws(lanes: np.ndarray, hashes: np.ndarray, indices: np.ndarray) -> list:
    """Each round's first four ``integers(0, 4)`` draws, as a tuple per
    round: one pass, with `lanes` and `hashes` as in `_seeded`."""
    codes = _draw_codes(_states(_seeded(lanes, hashes, indices)))
    return _ROWS.take((codes[0] | codes[1] << _S4).astype(np.intp)).tolist()


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
            lanes, hashes = _pools(seeds[first:last])
        yield _draws(lanes[:, session - first] if last - first > 1 else lanes, hashes,
                     indices.astype(np.uint64))


def session_draws(seed: int, rounds: int):
    """An iterator over the draws of each round of a `rounds`-round session
    under `seed`: row i is the first four ``integers(0, 4)`` of
    ``stream(seed, ROUNDS, i)``. The seed's pool is derived once, and the
    rows a pass at a time as they are used."""
    lanes, hashes = _pool(seed)
    return itertools.chain.from_iterable(
        _draws(lanes, hashes, _OFFSETS[:min(BLOCK, rounds - start)] + np.uint64(start))
        for start in range(0, rounds, BLOCK))


def sessions_draws(seeds: np.ndarray, rounds: int):
    """(seed, rows) for each of `seeds`, a ``np.uint64`` array, in order,
    where rows is the list ``session_draws(seed, rounds)`` yields; the
    sessions share passes."""
    rows = itertools.chain.from_iterable(_passes(seeds, rounds))
    for seed in map(int, seeds):
        yield seed, list(itertools.islice(rows, rounds))


class ChosenDraws:
    """Given draws, handed out in order: a stream that pins a round's branch.

    A round's only randomness is its swap outcomes, each one draw, so the
    draws a round is handed fix every outcome it reads. Asking for a draw
    past the last one, or for one that is not an integer or is outside the
    requested range, raises ValueError; numpy integers are handed out as ints.
    """

    __slots__ = ("_draws", "_next")

    def __init__(self, draws):
        self._draws = tuple(draws)
        self._next = 0

    def integers(self, low: int, high: int) -> int:
        if self._next == len(self._draws):
            raise ValueError(f"all {len(self._draws)} chosen draws are used; none is left")
        draw = self._draws[self._next]
        if type(draw) is not int:
            try:
                draw = operator.index(draw)
            except TypeError:
                raise ValueError(f"chosen draw {self._next} is {draw!r}, not an integer") from None
        if not low <= draw < high:
            raise ValueError(f"chosen draw {self._next} is {draw}, outside [{low}, {high})")
        self._next += 1
        return draw


def round_stream(seed: int, index: int) -> ChosenDraws:
    """The draws of round `index` of a session under `seed`, the first four
    of ``stream(seed, ROUNDS, index)``: one pass of one index."""
    if index < 0 or index >> 64:
        raise ValueError(f"round indices must be nonnegative and below 2**64, got {index}")
    lanes, hashes = _pool(seed)
    return ChosenDraws(_draws(lanes, hashes, np.array([index], dtype=np.uint64))[0])


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed at `path`, e.g. one per Monte Carlo session."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def session_seeds(seed: int, n: int) -> np.ndarray:
    """Independent per-session seeds for an n-session Monte Carlo sweep,
    as a ``np.uint64`` array (8 bytes a session). An `n` past numpy's
    array index range raises MemoryError, as a merely huge one does."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(SESSIONS,))
    try:
        return ss.generate_state(n, dtype=np.uint64)
    except ValueError:  # "Maximum allowed dimension exceeded", before any allocation
        raise MemoryError(f"cannot allocate seeds for {n} sessions") from None
