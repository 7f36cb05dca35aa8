"""Round draws against numpy's SeedSequence/PCG64 stream at (ROUNDS, i), and
chosen draws."""

import random

import pytest

from swapqkd.rng import ROUNDS, ChosenDraws, round_stream, stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 12345]
"""Seeds of 1, 2, 4, 4, 5 and 6 32-bit words: from 5 words on, a seed has
more than SeedSequence's pool of four."""

INDICES = [0, 1, 2**32 - 1, 2**32, random.Random(3).randrange(2**31)]

DRAWS = 8
"""Four 64-bit outputs' worth of 2-bit draws."""


def numpy_draws(seed, index, low=0, high=4):
    gen = stream(seed, ROUNDS, index)
    return [int(gen.integers(low, high)) for _ in range(DRAWS)]


def draws(seed, index, low=0, high=4):
    source = round_stream(seed, index)
    return [source.integers(low, high) for _ in range(DRAWS)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", INDICES)
def test_equals_numpy_stream(seed, index):
    assert draws(seed, index) == numpy_draws(seed, index)


@pytest.mark.parametrize("low, high", [(0, 2), (3, 11), (0, 2**16), (-5, 2**32 - 5)])
def test_other_power_of_two_spans(low, high):
    for seed, index in ((7, 0), (2**64 - 1, 2**32)):
        assert draws(seed, index, low, high) == numpy_draws(seed, index, low, high)


def test_interleaved_seeds():
    # more seeds than the per-seed cache holds, visited round-robin
    pick = random.Random(5)
    seeds = [pick.randrange(2 ** pick.randrange(1, 200)) for _ in range(40)]
    for index in range(3):
        for seed in seeds:
            assert draws(seed, index) == numpy_draws(seed, index)


@pytest.mark.parametrize("low, high", [(0, 3), (0, 1), (0, 0), (4, 0), (0, 2**33)])
def test_unsupported_spans_rejected(low, high):
    with pytest.raises(ValueError, match="power-of-two"):
        round_stream(1, 0).integers(low, high)


def test_negative_seed_or_index_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        round_stream(-1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        round_stream(1, -1)


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
