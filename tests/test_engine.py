import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import reference_day, reference_greedy_verdict, traced_peak

from kpr_lab.engine import (
    WorldState,
    _service_lottery,
    _stable_order,
    detect_convergence,
    init_day_one,
    run,
    step_day,
)
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.stats import dispersion_summary, world_lines

CA = Strategy.CROWD_AVOIDING
GCA = Strategy.GREEDY_CROWD_AVOIDING
RANDOM = Strategy.RANDOM


def assert_day_invariants(f: float, state: WorldState, n: int) -> None:
    assert 0.0 <= f <= 1.0
    assert f == np.count_nonzero(state.crowds) / n == state.was_served.sum() / n
    assert state.crowds.sum() == n
    # exactly one served agent at every occupied restaurant, none elsewhere
    served_at = np.bincount(state.last_restaurant[state.was_served], minlength=n)
    assert np.array_equal(served_at, state.crowds > 0)
    assert np.array_equal(state.last_crowd, state.crowds[state.last_restaurant])
    if state.losses is not None:  # greedy runs alone count losses
        successes = state.day - state.losses
        assert ((0 <= successes) & (successes <= state.day)).all()


class TestDayOne:
    def test_single_agent(self):
        cfg = SimulationConfig(n=1, strategy=RANDOM)
        state, f = init_day_one(cfg, np.random.default_rng(0))
        assert list(state.crowds) == [1]
        assert list(state.was_served) == [True]
        assert f == 1.0

    def test_agents_see_their_own_crowd(self):
        cfg = SimulationConfig(n=30, strategy=GCA, seed=3)
        state, _ = init_day_one(cfg, np.random.default_rng(3))
        assert (state.last_crowd >= 1).all()
        assert (state.day - state.losses).sum() == int(state.was_served.sum())

    def test_only_greedy_runs_count_losses(self):
        cfg = SimulationConfig(n=30, strategy=CA, seed=3)
        state, _ = init_day_one(cfg, np.random.default_rng(3))
        assert state.losses is state.unserved is state.resident is None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    strategy=st.sampled_from(list(Strategy)),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**32),
    days=st.integers(min_value=1, max_value=12),
)
def test_conservation_identities_every_day(n, strategy, alpha, seed, days):
    cfg = SimulationConfig(n=n, strategy=strategy, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed)
    state, f = init_day_one(cfg, rng)
    assert_day_invariants(f, state, n)
    for _ in range(days):
        f = step_day(state, cfg, rng)
        assert_day_invariants(f, state, n)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_greedy_occupancy_never_shrinks(n, seed):
    cfg = SimulationConfig(n=n, strategy=GCA, seed=seed)
    rng = np.random.default_rng(seed)
    state, _ = init_day_one(cfg, rng)
    occupied = set(np.flatnonzero(state.crowds))
    for _ in range(25):
        step_day(state, cfg, rng)
        now = set(np.flatnonzero(state.crowds))
        assert occupied <= now
        occupied = now


def test_crowd_avoiding_fixed_point_when_all_alone():
    n = 12
    assignment = np.arange(n)
    cfg = SimulationConfig(n=n, strategy=CA)
    state, _ = init_day_one(cfg, np.random.default_rng(1))
    state.last_restaurant[...] = assignment
    state.last_crowd[...] = state.crowds[...] = 1
    state.was_served[...] = True
    f = step_day(state, cfg, np.random.default_rng(0))
    assert np.array_equal(state.last_restaurant, assignment)
    assert f == 1.0


# Peak bytes that tracemalloc sees during one dense day at n = 25600, after
# four warm-up days, in units of one n-sized 8-byte array.  Seeds 0-5 read
# 2.23-2.27 (ca) and 4.11-4.14 (random): the lottery's arrays over the crowd
# members, the bincount tally (copied into the state and freed at once) and,
# for random, the day's draw.  A day that made its n-sized arrays afresh
# read 5.4 (ca) and 6.3 (random).
DENSE_DAY_PEAK = {CA: 2.4, RANDOM: 4.3}


@pytest.mark.parametrize("strategy", [CA, RANDOM], ids=lambda s: s.value)
def test_dense_day_writes_into_the_runs_buffers(strategy):
    n = 25600
    cfg = SimulationConfig(n=n, strategy=strategy, seed=1)
    rng = np.random.default_rng(1)
    state, _ = init_day_one(cfg, rng)
    for _ in range(4):
        step_day(state, cfg, rng)
    _, peak = traced_peak(lambda: step_day(state, cfg, rng))
    assert peak / (8 * n) < DENSE_DAY_PEAK[strategy]


# A greedy endgame day at n = 25600 with at most 20 unserved agents, seeds
# 0-2, read 0.057-0.059 in the same units (~12 KB): arrays as long as the
# unserved list and the restaurants it touches.  One n-sized bool array
# alone would read 0.125.
GREEDY_ENDGAME_DAY_PEAK = 0.1


def test_greedy_endgame_day_allocates_no_n_sized_array():
    n = 25600
    cfg = SimulationConfig(n=n, strategy=GCA, seed=1)
    rng = np.random.default_rng(1)
    state, _ = init_day_one(cfg, rng)
    while len(state.unserved) > 20:
        step_day(state, cfg, rng)
    _, peak = traced_peak(lambda: step_day(state, cfg, rng))
    assert peak / (8 * n) < GREEDY_ENDGAME_DAY_PEAK


def test_interleaved_runs_match_their_solo_runs():
    """Runs stepped side by side, day by day, each keep their own buffers:
    every run's f series and last served flags are those of it run alone."""
    configs = [
        SimulationConfig(n=300, strategy=CA, seed=4, max_days=30),
        SimulationConfig(n=170, strategy=CA, alpha=0.5, seed=9, max_days=30),
        SimulationConfig(n=300, strategy=RANDOM, seed=5, max_days=30),
    ]
    rngs = [np.random.default_rng(cfg.seed) for cfg in configs]
    days_one = [init_day_one(cfg, rng) for cfg, rng in zip(configs, rngs)]
    states = [state for state, _ in days_one]
    series = [[f] for _, f in days_one]
    for _ in range(29):
        for cfg, state, rng, f in zip(configs, states, rngs, series):
            f.append(step_day(state, cfg, rng))
    for cfg, state, f in zip(configs, states, series):
        solo = run(dataclasses.replace(cfg, record_history=True))
        assert np.array(f).tobytes() == solo.f_series.tobytes()
        last_day = solo.losers[solo.loser_offsets[-2]:]
        assert np.array_equal(np.flatnonzero(~state.was_served), last_day)


def next_draws(rng: np.random.Generator) -> list:
    """The next 32-bit, 64-bit and uniform draws of a copy of rng."""
    ahead = copy.deepcopy(rng)
    return (
        ahead.integers(0, 1000, size=3).tolist()
        + ahead.integers(0, 2**40, size=2).tolist()
        + ahead.random(2).tolist()
    )


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    alpha=st.sampled_from([0.3, 0.5, 1.0, 2.7]),
    seed=st.integers(min_value=0, max_value=2**32),
    days=st.integers(min_value=1, max_value=80),
)
@example(n=1, alpha=1.0, seed=0, days=5)
@example(n=2, alpha=0.3, seed=0, days=20)
@example(n=65537, alpha=2.7, seed=3, days=3)
@example(n=200_000, alpha=0.5, seed=1, days=1)  # gca: 81 855 restaurants, two sorting passes
@example(n=3000, alpha=2.7, seed=1, days=900)  # gca jumps served agents' uniforms from day 589
@example(n=2000, alpha=0.3, seed=1, days=2800)  # gca to full utilization and past it
def test_day_matches_the_reference(strategy, n, alpha, seed, days):
    cfg = SimulationConfig(n=n, strategy=strategy, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed)
    state, _ = init_day_one(cfg, rng)
    reference, reference_rng = copy.deepcopy((state, rng))
    names = ["last_restaurant", "last_crowd", "was_served", "crowds"]
    if strategy is GCA:
        names.append("losses")
    for _ in range(days):
        f = step_day(state, cfg, rng)
        assert f == reference_day(reference, strategy, alpha, n, reference_rng)
        assert state.day == reference.day
        for name in names:
            assert np.array_equal(getattr(state, name), getattr(reference, name)), name
        assert next_draws(rng) == next_draws(reference_rng)


@st.composite
def choices_over(draw):
    # at least n choices, as the dense and the greedy day both give
    n = draw(st.integers(1, 200))
    size = draw(st.integers(n, 2 * n))
    choices = draw(hnp.arrays(np.int64, size, elements=st.integers(0, n - 1)))
    return choices, n


def lottery(choices: np.ndarray, n: int, rng: np.random.Generator) -> tuple:
    """The crowds, own crowds and served flags of one service lottery."""
    m = len(choices)
    out = np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64), np.empty(m, dtype=bool)
    _service_lottery(choices, n, rng, *out, np.empty(m, dtype=bool))
    return out


@settings(deadline=None)
@given(choices_over(), st.integers(min_value=0, max_value=2**32))
@example((np.array([3, 0, 3, 3, 0, 2]), 5), 0)
def test_lottery_draws_alike_over_the_used_restaurants(choices_n, seed):
    # the greedy day numbers its restaurants 0..k-1 in ascending order
    choices, n = choices_n
    used = np.unique(choices)
    rng, local_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    crowds, own, served = lottery(choices, n, rng)
    local_crowds, local_own, local_served = lottery(
        used.searchsorted(choices), len(used), local_rng
    )
    assert np.array_equal(served, local_served)
    assert np.array_equal(own, local_own)
    assert np.array_equal(crowds[used], local_crowds)
    assert crowds.sum() == len(choices)
    assert next_draws(rng) == next_draws(local_rng)


@st.composite
def keys_below(draw):
    n = draw(st.integers(1, 2**20))
    size = draw(st.integers(0, 3000))
    keys = draw(hnp.arrays(np.int64, size, elements=st.integers(0, n - 1)))
    return keys, n


@given(keys_below())
@example((np.array([], dtype=np.int64), 1))
@example((np.array([0]), 1))
@example((np.array([65535, 0, 65535, 1, 0]), 65536))
@example((np.array([65536, 0, 65536, 65535, 0, 1]), 65537))
@settings(deadline=None)
def test_stable_order_is_the_stable_argsort(keys_and_n):
    keys, n = keys_and_n
    assert np.array_equal(_stable_order(keys, n), np.argsort(keys, kind="stable"))


def test_largest_uniform_times_a_size_rounds_below_the_size():
    """The lotteries take floor(u * size) as the winner's rank unclamped.
    rng.random() is a multiple of 2**-53 below 1 and rounding is monotone,
    so the largest uniform bounds every product.  Sizes run up to 2**53,
    far past any crowd (a crowd is at most n)."""
    largest = np.nextafter(1.0, 0.0)
    assert largest == 1 - 2**-53
    powers = 2 ** np.arange(20, 54)
    sizes = np.concatenate((np.arange(1, 2**20 + 1), powers - 1, powers, powers[:-1] + 1))
    assert ((largest * sizes).astype(np.int64) < sizes).all()
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 2**53, size=2**20, endpoint=True)
    assert ((largest * sizes).astype(np.int64) < sizes).all()


def test_alpha_does_not_affect_random_strategy():
    runs = [
        run(SimulationConfig(n=23, strategy=RANDOM, alpha=alpha, seed=17, max_days=50))
        for alpha in (0.25, 1.0, 3.0)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].f_series, other.f_series)


class TestDetectConvergence:
    def test_constant_series_converges_immediately(self):
        series = np.full(100, 0.8)
        tau, f_s, converged = detect_convergence(series, 100)
        assert (tau, converged) == (0, True)
        assert f_s == pytest.approx(0.8)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            detect_convergence(np.array([]), 100)

    def test_too_short_for_a_tail_window_is_unconverged(self):
        # a one-day tail window: tau = days, f_s = the whole-series mean
        series = np.array([0.5, 0.75])
        assert detect_convergence(series, 100) == (2, 0.625, False)

    def test_random_large_n_converges_in_zero_time(self):
        cfg = SimulationConfig(n=6400, strategy=RANDOM, seed=8, max_days=300)
        result = run(cfg)
        assert result.tau == 0
        assert abs(result.f_s - 0.632) <= 0.01


class TestRun:
    def test_greedy_reaches_exactly_one(self):
        result = run(SimulationConfig(n=50, strategy=GCA, seed=12))
        assert result.converged
        assert result.f_series[-1] == 1.0
        assert result.tau == result.days - 1
        assert np.all(np.diff(result.f_series) >= 0)

    def test_greedy_unconverged_reports_max_days(self):
        result = run(SimulationConfig(n=50, strategy=GCA, seed=12, max_days=3))
        assert not result.converged
        assert result.tau == 3
        assert result.days == 3

    def test_series_bounded_by_horizon(self):
        result = run(SimulationConfig(n=25, strategy=CA, seed=5, max_days=40))
        assert result.days == 40
        assert np.all((result.f_series >= 0) & (result.f_series <= 1))
        assert result.final_rates is None

    def test_f_series_costs_a_typed_entry_a_day(self):
        # each day's f goes into one float64 buffer that f_series views: a
        # list of float objects and its array copy took about 45 bytes a day
        days = 20_000
        cfg = SimulationConfig(n=20, strategy=RANDOM, seed=1, max_days=days)
        run(cfg)
        result, peak = traced_peak(lambda: run(cfg))
        assert result.days == days
        print(f"random run peak: {peak / days:.1f} bytes a day")
        assert peak < 16 * days

    def test_history_recording_shape(self):
        cfg = SimulationConfig(n=20, strategy=GCA, seed=9, record_history=True)
        result = run(cfg)
        offsets = result.loser_offsets
        assert result.losers.dtype == np.int32
        assert len(offsets) == result.days + 1
        assert offsets[0] == 0 and offsets[-1] == len(result.losers)
        for start, end, f in zip(offsets[:-1], offsets[1:], result.f_series):
            day = result.losers[start:end]
            assert np.all(np.diff(day) > 0) and np.all((day >= 0) & (day < 20))
            assert len(day) == 20 - round(f * 20)  # one served agent per occupied restaurant

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
        max_days=st.none() | st.integers(min_value=1, max_value=80),
    )
    @example(n=40, seed=1, max_days=None)  # stops the day after tau
    @example(n=40, seed=1, max_days=5)  # capped: read on the last day
    @example(n=40, seed=1, max_days=1)  # capped at day 1: counts built by day 1
    @example(n=1, seed=0, max_days=None)  # tau = 0
    def test_final_rates_match_history_recount(self, n, seed, max_days):
        # a greedy run's verdict, read at its stop, is its series' first full
        # day, and its final_rates, read live, equal the recorded-flag recount
        cfg = SimulationConfig(n=n, strategy=GCA, seed=seed, max_days=max_days)
        lean = run(cfg)
        verdict = (lean.tau, lean.f_s, lean.converged)
        assert verdict == reference_greedy_verdict(lean.f_series)
        assert [type(v) for v in verdict] == [int, float, bool]
        full = run(dataclasses.replace(cfg, record_history=True))
        assert lean.tau == full.tau
        assert np.array_equal(lean.final_rates, full.final_rates)
        day = max(full.tau, 1)
        losses = np.bincount(full.losers[: full.loser_offsets[day]], minlength=n)
        recount = 100.0 * (day - losses) / day
        assert np.array_equal(full.final_rates, recount)
        lo, hi, _ = dispersion_summary(full)
        assert (lo, hi) == (full.final_rates.min(), full.final_rates.max())

    @pytest.mark.parametrize(
        "strategy,n,days,gate",
        [(GCA, 800, 800, 0.5), (CA, 1600, 1000, 2.0), (RANDOM, 1600, 1000, 2.0)],
    )
    def test_history_memory_follows_the_losers(self, strategy, n, days, gate):
        # a greedy run loses a few agents a day, a dense run a share of n: a
        # (days, n) flag record would take at least n * days bytes at its end
        cfg = SimulationConfig(n=n, strategy=strategy, seed=1, max_days=days,
                               record_history=True)
        run(cfg)
        result, peak = traced_peak(lambda: run(cfg))
        assert result.days == days
        print(f"{strategy.value} history run peak: {peak / (n * days):.2f} of n * days bytes")
        assert peak < gate * n * days

    @pytest.mark.parametrize("strategy", [RANDOM, CA])
    def test_only_greedy_runs_keep_final_rates(self, strategy):
        result = run(SimulationConfig(n=30, strategy=strategy, seed=1, max_days=8))
        assert result.final_rates is None

    def test_crowd_avoiding_final_rates_at_tau(self):
        # a ca run's rates at day max(tau, 1) end its world lines
        result = run(
            SimulationConfig(n=30, strategy=CA, seed=3, max_days=60, record_history=True)
        )
        day = max(result.tau, 1)
        assert 1 < day < result.days  # tau = 7: a recount over several days
        losses = np.bincount(result.losers[: result.loser_offsets[day]], minlength=30)
        recount = 100.0 * (day - losses) / day
        assert np.array_equal([line[-1] for line in world_lines(result)], recount)
