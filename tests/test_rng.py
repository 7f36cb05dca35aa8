"""Round draws against numpy's SeedSequence/PCG64 stream at (ROUNDS, i), and
chosen draws."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapqkd import rng
from swapqkd.rng import (
    BLOCK,
    ROUNDS,
    ChosenDraws,
    round_stream,
    session_draws,
    session_seeds,
    sessions_draws,
    stream,
)

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 12345]
"""Seeds of 1, 1, 1, 2, 2, 4, 4, 5 and 6 32-bit words: from 5 words on, a
seed has more than SeedSequence's pool of four, and its hash constant
differs."""

INDICES = [0, 1, 2**32 - 1, 2**32, random.Random(3).randrange(2**31)]


def numpy_row(seed, index):
    """Round `index`'s first four ``integers(0, 4)`` from numpy's own stream."""
    gen = stream(seed, ROUNDS, index)
    return tuple(int(gen.integers(0, 4)) for _ in range(4))


def draws(seed, index):
    source = round_stream(seed, index)
    return tuple(source.integers(0, 4) for _ in range(4))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", INDICES)
def test_equals_numpy_stream(seed, index):
    assert draws(seed, index) == numpy_row(seed, index)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300).flatmap(lambda bits: st.integers(0, 2**bits - 1)),
       st.integers(0, 2**64 - 1))
def test_any_seed_and_index_equal_numpy_stream(seed, index):
    assert draws(seed, index) == numpy_row(seed, index)


def test_interleaved_seeds():
    # seeds of many widths, visited round-robin
    pick = random.Random(5)
    seeds = [pick.randrange(2 ** pick.randrange(1, 200)) for _ in range(40)]
    for index in range(3):
        for seed in seeds:
            assert draws(seed, index) == numpy_row(seed, index)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**160 + 12345])
@pytest.mark.parametrize("index", [0, 5, BLOCK, BLOCK + 3])
def test_round_stream_is_a_row_of_session_draws(seed, index):
    source = round_stream(seed, index)
    assert isinstance(source, ChosenDraws)
    row = [source.integers(0, 4) for _ in range(4)]
    assert tuple(row) == list(session_draws(seed, index + 1))[index]
    with pytest.raises(ValueError, match="none is left"):
        source.integers(0, 4)


def test_negative_seed_or_index_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        round_stream(-1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        round_stream(1, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        next(iter(session_draws(-1, 1)))


def test_index_beyond_64_bits_rejected():
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        round_stream(1, 2**64)


def numpy_pool(seed):
    """numpy's pool lanes for `seed` under spawn key (ROUNDS,)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(ROUNDS,)).pool.tolist()


def numpy_index_hashes(seed):
    """The nine hash constants after `seed`'s pool: 16 hashing steps fill
    and cross-mix it, then four per word past the fourth and four for the
    ROUNDS word."""
    steps = 16 + 4 * (max((seed.bit_length() + 31) // 32, 4) - 3)
    return [rng._INIT_A * pow(rng._MULT_A, steps + k, 2**32) % 2**32 for k in range(9)]


def test_pools_of_a_uint64_array_equal_numpy():
    seeds = session_seeds(8, 2000)
    lanes, hashes = rng._pools(seeds)
    assert lanes.dtype == hashes.dtype == np.uint32
    assert lanes.shape == (4, 2000) and hashes.shape == (9, 1)
    assert lanes.T.tolist() == [numpy_pool(seed) for seed in seeds.tolist()]
    assert hashes[:, 0].tolist() == numpy_index_hashes(0)


@pytest.mark.parametrize("seed", SEEDS + [2**64, 2**255 + 1, 3**200])
def test_pools_of_one_seed_equal_numpy(seed):
    lanes, hashes = rng._pool(seed)
    assert lanes.dtype == hashes.dtype == np.uint32
    assert lanes.shape == (4, 1) and hashes.shape == (9, 1)
    assert lanes[:, 0].tolist() == numpy_pool(seed)
    assert hashes[:, 0].tolist() == numpy_index_hashes(seed)


def test_states_equal_pcg64_steps_on_big_ints():
    """`_states`' one matrix product against PCG64's seeding and steps on
    Python ints, at the largest limbs (where its float64 sums are largest)
    and on random ones: states after seeding and one and two more steps."""
    mult, mask = rng._PCG_MULT, (1 << 128) - 1
    pick = random.Random(7)
    pairs = [(mask, mask), (0, 0), (0, 1), (mask, 1)]
    pairs += [(pick.getrandbits(128), pick.getrandbits(128) | 1) for _ in range(60)]
    limbs = np.array([[[v >> 32 * j & 0xFFFFFFFF for v in values] for j in range(4)]
                      for values in zip(*pairs)], dtype=np.uint32)
    states = rng._states(limbs)
    got = [[sum(int(states[j, k, n]) << 32 * j for j in range(4)) for k in range(2)]
           for n in range(len(pairs))]
    want = []
    for init, inc in pairs:
        state = ((inc + init) * mult + inc) & mask
        first = (state * mult + inc) & mask
        want.append([first, (first * mult + inc) & mask])
    assert got == want


def block_rows(seed, indices):
    """One pass of the block derivation over `indices` under `seed`."""
    lanes, hashes = rng._pool(seed)
    return rng._draws(lanes, hashes, np.array(indices, dtype=np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("indices", [[0], [2**31], [2**32], [0, 2**32, 2**31, 2**32 + 1]])
def test_block_draws_equal_numpy_stream(seed, indices):
    # one-word indices, a two-word index, and both kinds in one pass
    assert block_rows(seed, indices) == [numpy_row(seed, i) for i in indices]


@pytest.mark.parametrize("rounds", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_session_draws_equal_numpy_stream(rounds):
    for seed in (2**64 - 1, 2**160 + 12345):
        assert list(session_draws(seed, rounds)) == [numpy_row(seed, i) for i in range(rounds)]


@pytest.mark.parametrize("rounds", [0, 1, 3, 4, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_monte_carlo_chunks_equal_each_seeds_session_draws(rounds):
    # two passes' worth of sessions and three more, some straddling two
    # passes; or two long sessions, each spanning three passes
    sessions = 2 if rounds > 2 * BLOCK else 2 * BLOCK // max(rounds, 1) + 3
    seeds = session_seeds(5, sessions)
    got = list(sessions_draws(seeds, rounds))
    assert [seed for seed, _ in got] == seeds.tolist()
    assert [draws for _, draws in got] == [
        list(session_draws(seed, rounds)) for seed in seeds.tolist()]


def test_a_session_of_2_to_the_64_rounds_starts():
    # its last index, 2**64 - 1, is the largest a round stream takes; only
    # the first rows are drawn, as the session would never end
    assert list(itertools.islice(session_draws(7, 2**64), 3)) == list(session_draws(7, 3))


def test_a_chunk_of_seeds_that_share_a_pass():
    # seeds of one and two words, each padded to four as numpy pads them
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    got = list(sessions_draws(np.array(seeds, dtype=np.uint64), 3))
    assert [seed for seed, _ in got] == seeds
    assert [draws for _, draws in got] == [[numpy_row(seed, i) for i in range(3)] for seed in seeds]


def test_session_seeds_are_a_uint64_array():
    seeds = session_seeds(1, 5)
    assert seeds.dtype == np.uint64 and seeds.shape == (5,)


def test_chosen_draws_handed_out_in_order():
    chosen = ChosenDraws([3, 0, 2])
    assert [chosen.integers(0, 4) for _ in range(3)] == [3, 0, 2]


def test_chosen_draws_reject_an_extra_draw():
    chosen = ChosenDraws([1, 2])
    chosen.integers(0, 4)
    chosen.integers(0, 4)
    with pytest.raises(ValueError, match="none is left"):
        chosen.integers(0, 4)


@pytest.mark.parametrize("draw,message", [
    pytest.param(4, "chosen draw 0 is 4, outside [0, 4)", id="4"),
    pytest.param(-1, "chosen draw 0 is -1, outside [0, 4)", id="-1"),
    # a float is no label index, even an integral one; a swap does not truncate it
    pytest.param(1.5, "chosen draw 0 is 1.5, not an integer", id="1.5"),
    pytest.param(2.0, "chosen draw 0 is 2.0, not an integer", id="2.0"),
    pytest.param("2", "chosen draw 0 is '2', not an integer", id="str"),
])
def test_chosen_draws_reject_an_out_of_range_draw(draw, message):
    chosen = ChosenDraws([draw, 0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chosen.integers(0, 4)
    # the rejected draw is not consumed
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chosen.integers(0, 4)


def test_chosen_draws_hand_out_numpy_integers_as_ints():
    chosen = ChosenDraws([np.int64(3), np.uint8(0)])
    draws = [chosen.integers(0, 4), chosen.integers(0, 4)]
    assert draws == [3, 0]
    assert all(type(draw) is int for draw in draws)
