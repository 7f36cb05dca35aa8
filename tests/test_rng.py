"""Round draws against numpy's SeedSequence/PCG64 stream at (ROUNDS, i), and
chosen draws."""

import random

import numpy as np
import pytest

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


def block_rows(seed, indices):
    """One pass of the block derivation over `indices` under `seed`."""
    pools = np.array([rng._round_pool(seed)], dtype=np.uint32).T
    return rng._draws(pools, np.array(indices, dtype=np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("indices", [[0], [2**31], [2**32], [0, 2**32, 2**31, 2**32 + 1]])
def test_block_draws_equal_numpy_stream(seed, indices):
    # one-word indices, a two-word index, and both kinds in one pass
    assert block_rows(seed, indices) == [numpy_row(seed, i) for i in indices]


@pytest.mark.parametrize("rounds", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_session_draws_equal_numpy_stream(rounds):
    seed = 2**64 - 1
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


def test_a_chunk_of_seeds_of_every_width():
    # the hash constant differs by seed width, within one pass
    got = list(sessions_draws(np.array(SEEDS, dtype=object), 3))
    assert [seed for seed, _ in got] == SEEDS
    assert [draws for _, draws in got] == [[numpy_row(seed, i) for i in range(3)] for seed in SEEDS]


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


@pytest.mark.parametrize("draw", [4, -1])
def test_chosen_draws_reject_an_out_of_range_draw(draw):
    chosen = ChosenDraws([draw, 0])
    with pytest.raises(ValueError, match="outside"):
        chosen.integers(0, 4)
    # the rejected draw is not consumed
    with pytest.raises(ValueError, match="outside"):
        chosen.integers(0, 4)
