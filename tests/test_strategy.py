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
from reference import AgentState, sample_choice, stay_probability

CA = Strategy.CROWD_AVOIDING
GCA = Strategy.GREEDY_CROWD_AVOIDING


class TestStayProbability:
    @pytest.mark.parametrize(
        "strategy,alpha,crowd,served,expected",
        [
            (CA, 1.0, 4, False, 0.25),
            (CA, 0.5, 4, False, 0.5),
            (CA, 1.0, 1, True, 1.0),
            (GCA, 1.0, 7, True, 1.0),
            (GCA, 0.3, 7, True, 1.0),
            (GCA, 1.0, 7, False, 1.0 / 7.0),
        ],
    )
    def test_examples(self, strategy, alpha, crowd, served, expected):
        assert stay_probability(strategy, alpha, crowd, served) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_zero_crowd(self):
        with pytest.raises(ValueError):
            stay_probability(CA, 1.0, 0, False)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            stay_probability(CA, 0.0, 3, False)

    def test_random_has_no_stay_probability(self):
        with pytest.raises(ValueError):
            stay_probability(Strategy.RANDOM, 1.0, 3, False)

    @given(
        strategy=st.sampled_from([CA, GCA]),
        alpha=st.floats(min_value=0.01, max_value=8.0),
        crowd=st.integers(min_value=1, max_value=10**6),
        served=st.booleans(),
    )
    def test_is_probability(self, strategy, alpha, crowd, served):
        p = stay_probability(strategy, alpha, crowd, served)
        assert 0.0 <= p <= 1.0

    @given(
        alpha=st.floats(min_value=0.01, max_value=8.0),
        crowd=st.integers(min_value=1, max_value=10**5),
    )
    def test_non_increasing_in_crowd(self, alpha, crowd):
        assert stay_probability(CA, alpha, crowd, False) >= stay_probability(
            CA, alpha, crowd + 1, False
        )

    @given(
        alpha=st.floats(min_value=0.01, max_value=4.0),
        bump=st.floats(min_value=0.01, max_value=4.0),
        crowd=st.integers(min_value=2, max_value=10**5),
    )
    def test_non_increasing_in_alpha(self, alpha, bump, crowd):
        # 1 ulp of slack: libm pow is not guaranteed monotone in the exponent
        assert (
            stay_probability(CA, alpha, crowd, False)
            >= stay_probability(CA, alpha + bump, crowd, False) - 1e-15
        )


class TestSampleChoice:
    def test_single_restaurant(self):
        agent = AgentState(last_restaurant=0, last_crowd=1, was_served=True)
        rng = np.random.default_rng(0)
        for strategy in Strategy:
            assert sample_choice(agent, strategy, 1.0, 1, rng) == 0

    def test_lone_agent_always_stays(self):
        agent = AgentState(last_restaurant=3, last_crowd=1, was_served=True)
        rng = np.random.default_rng(1)
        assert all(sample_choice(agent, CA, 1.0, 8, rng) == 3 for _ in range(200))

    def test_other_branch_skips_yesterdays_restaurant(self):
        # crowd huge => essentially always leaves; the old restaurant must
        # never come out of the "other" branch
        agent = AgentState(last_restaurant=2, last_crowd=10**6, was_served=False)
        rng = np.random.default_rng(2)
        picks = {sample_choice(agent, CA, 1.0, 5, rng) for _ in range(2000)}
        assert 2 not in picks
        assert picks == {0, 1, 3, 4}

    def test_random_uniformity(self):
        # empirical frequency of each index ~ 0.25 +- 0.01 over 1e6 draws
        n = 4
        rng = np.random.default_rng(12345)
        agent = AgentState(last_restaurant=0, last_crowd=1, was_served=False)
        counts = np.zeros(n)
        draws = 1_000_000
        for _ in range(draws):
            counts[sample_choice(agent, Strategy.RANDOM, 1.0, n, rng)] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.25) < 0.01)
        chi2 = ((counts - draws / n) ** 2 / (draws / n)).sum()
        assert chi2 < 16.27  # df=3, p=0.001

    @pytest.mark.parametrize(
        "strategy,alpha,crowd,served",
        [(CA, 1.0, 3, False), (CA, 0.5, 9, False), (GCA, 1.0, 4, False)],
    )
    def test_empirical_stay_frequency(self, strategy, alpha, crowd, served):
        n = 10
        p = stay_probability(strategy, alpha, crowd, served)
        agent = AgentState(last_restaurant=6, last_crowd=crowd, was_served=served)
        rng = np.random.default_rng(777)
        draws = 100_000
        stays = sum(
            sample_choice(agent, strategy, alpha, n, rng) == 6 for _ in range(draws)
        )
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(stays / draws - p) <= 3 * se


class TestVectorizedSampling:
    def test_matches_scalar_distribution(self):
        # all agents share (crowd=2, alpha=1): empirical stay rate ~ 1/2
        n = 1000
        rng = np.random.default_rng(3)
        last = np.arange(n)
        crowd = np.full(n, 2)
        state, _ = init_day_one(SimulationConfig(n=n, strategy=CA), np.random.default_rng(0))
        stays = 0
        rounds = 200
        for _ in range(rounds):
            choices = sample_choices_vectorized(CA, 1.0, last, crowd, None, n, rng, state)
            stays += int((choices == last).sum())
        p, draws = 0.5, n * rounds
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(stays / draws - p) <= 3 * se

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
