import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpr_lab.engine import (
    JUMP_COST_UNIFORMS,
    init_day_one,
    sample_choices_vectorized,
    uniforms_at,
)
from kpr_lab.model import SimulationConfig, Strategy

CA = Strategy.CROWD_AVOIDING
GCA = Strategy.GREEDY_CROWD_AVOIDING


class TestVectorizedSampling:
    def test_served_greedy_agents_always_return(self):
        # served agents are left out of a greedy day; their uniforms are
        # skipped, so the stream continues as if all n had been drawn
        n = 64
        rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
        none = np.array([], dtype=np.int64)
        choices = sample_choices_vectorized(GCA, 1.0, none, none, none, n, rng)
        assert choices.size == 0
        fresh.random(n)
        assert rng.random() == fresh.random()

    @pytest.mark.parametrize("n", [50, 5000])
    def test_greedy_subset_follows_the_per_agent_rule(self, n):
        # the unserved agents 3, 7 and 40 decide on uniforms 3, 7 and 40 of
        # the block, then the leavers draw in agent order
        rng, fresh = np.random.default_rng(6), np.random.default_rng(6)
        agents = np.array([3, 7, 40])
        last = np.array([1, 1, 2])
        crowd = np.array([2, 4, 3])
        choices = sample_choices_vectorized(GCA, 1.0, last, crowd, agents, n, rng)
        stay = fresh.random(n)[agents] < 1.0 / crowd
        expected = last.copy()
        movers = np.flatnonzero(~stay)
        other = fresh.integers(0, n - 1, size=movers.size)
        expected[movers] = other + (other >= last[movers])
        assert np.array_equal(choices, expected)
        assert rng.random() == fresh.random()

    def test_movers_never_reuse_yesterdays_restaurant(self):
        n = 6
        rng = np.random.default_rng(5)
        last = np.full(n, 2)
        crowd = np.full(n, 10**9)  # stay probability ~ 0
        state, _ = init_day_one(SimulationConfig(n=n, strategy=CA), np.random.default_rng(0))
        for _ in range(200):
            choices = sample_choices_vectorized(CA, 1.0, last, crowd, None, n, rng, state)
            assert not np.any(choices == 2)


@st.composite
def positions_below(draw):
    n = draw(st.integers(1, 20_000))
    picked = draw(st.sets(st.integers(0, n - 1), max_size=12))
    return np.array(sorted(picked), dtype=np.int64), n


@given(positions_below(), st.booleans(), st.integers(0, 2**32))
@example((np.array([], dtype=np.int64), 1), True, 0)
@example((np.array([0, 1, 99_999]), 100_000), True, 1)  # jumps
@example((np.array([0, 1, 99_999]), 100_000), False, 1)
@example((np.array([5]), 600), True, 2)  # one draw and no jump
@settings(deadline=None)
def test_uniforms_at_reads_the_block_and_leaves_the_stream_where_it_ends(
    positions_and_n, pending, seed
):
    positions, n = positions_and_n
    rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        # one 32-bit draw leaves the other half of a 64-bit step buffered
        assert rng.integers(0, 1000) == fresh.integers(0, 1000)
    assert np.array_equal(uniforms_at(rng, positions, n), fresh.random(n)[positions])
    assert rng.integers(0, 1000, size=3).tolist() == fresh.integers(0, 1000, size=3).tolist()
    assert rng.integers(0, 2**40, size=2).tolist() == fresh.integers(0, 2**40, size=2).tolist()


class RecordingGenerator:
    """A generator that records the size of each random() call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize(
    "count,n,sizes",
    [
        (2, 3 * JUMP_COST_UNIFORMS + 1, [None, None]),  # jumps, one draw each
        (2, 3 * JUMP_COST_UNIFORMS, [3 * JUMP_COST_UNIFORMS]),  # draws the block
        (0, 1, [1]),
    ],
)
def test_uniforms_at_jumps_only_when_few_positions_are_read(count, n, sizes):
    rng = RecordingGenerator(0)
    uniforms_at(rng, np.arange(count), n)
    assert rng.sizes == sizes
