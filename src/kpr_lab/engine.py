"""Single-run simulation engine.

A run is strictly sequential: all agents choose simultaneously from
yesterday's state, crowds are tallied, and every non-empty restaurant serves
one uniformly chosen arrival.  Day 1 has no yesterday, so every agent picks
uniformly at random (the zero-memory baseline), which also seeds the
crowd-avoiding strategies with their first crowd observation.

Random-number consumption per day is fixed: the choice phase draws in agent
order (see strategy.sample_choices_vectorized), then the service lottery
draws one uniform per contested restaurant (crowd of two or more) in
ascending restaurant order, which picks a member by rank in agent order; lone
arrivals are served without a draw.

A served greedy agent always stays, so a greedy day is played over the
unserved agents alone: it jumps over the served agents' stay/leave uniforms
on the unchanged stream and touches only the restaurants the unserved agents
leave or reach, with a fixed sequence of numpy calls on arrays about as
long as the unserved list.  Its output is byte-identical to tallying all n
agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import RunResult, SimulationConfig, Strategy
from .stats import exact_random_utilization
from .strategy import Workspace, sample_choices_vectorized


@dataclass
class WorldState:
    """Mutable per-run state, stored as arrays of length n.

    An agent's success count is ``day - losses``.  Dense (random and
    crowd-avoiding) days write into the arrays, each a buffer of its own,
    and into the run's workspace rather than allocating, so the arrays are
    recycled from day to day: a caller copies what it keeps.  Greedy days
    keep the unserved agents (ascending) and each restaurant's resident,
    its one served agent (-1 where empty); the first greedy day builds both
    from the arrays.
    """

    day: int
    last_restaurant: np.ndarray
    last_crowd: np.ndarray
    was_served: np.ndarray
    losses: np.ndarray
    crowds: np.ndarray
    workspace: Workspace = field(repr=False, compare=False)
    unserved: np.ndarray | None = field(default=None, repr=False, compare=False)
    resident: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def success_count(self) -> np.ndarray:
        return self.day - self.losses


def _service_lottery(
    state: WorldState, choices: np.ndarray, n: int, rng: np.random.Generator
) -> None:
    """Tally crowds and pick one served agent per non-empty restaurant.

    Writes the crowds, each agent's crowd and the served flags over
    yesterday's in ``state``.  A lone arrival is served outright; only
    contested restaurants (crowd of two or more) consume randomness, one
    uniform each in ascending restaurant order.
    """
    crowds, own_crowd, served = state.crowds, state.last_crowd, state.was_served
    flags = state.workspace.flags
    # bincount has no out=: its tally is copied and freed at once, before
    # the lottery makes its own arrays
    crowds[...] = np.bincount(choices, minlength=n)
    # the indices are in range, and mode="clip" keeps take from buffering
    crowds.take(choices, out=own_crowd, mode="clip")
    np.equal(own_crowd, 1, served)

    contested = np.greater_equal(crowds, 2, flags).nonzero()[0]
    if contested.size:
        sizes = crowds[contested]
        u = rng.random(contested.size)
        # u is a multiple of 2**-53 below 1, so u * size rounds to below
        # size: the offset is a member's rank, never past the last member
        offsets = (u * sizes).astype(np.int64)
        # crowd members in the order that groups them by restaurant,
        # ascending, in agent order within each group
        members = np.logical_not(served, flags).nonzero()[0]
        order = _stable_order(choices[members], n)
        starts = sizes.cumsum() - sizes
        served[members[order[starts + offsets]]] = True


def _stable_order(keys: np.ndarray, n: int) -> np.ndarray:
    """Return np.argsort(keys, kind="stable") for integer keys in [0, n).

    numpy radix-sorts 16-bit keys under kind="stable", so the order is built
    from least-significant-digit passes over 16-bit digits, one per 16 bits
    of n - 1.  Each pass is stable, so together they give the one stable
    permutation of the full keys, whichever algorithm numpy picks.
    """
    order = keys.astype(np.uint16).argsort(kind="stable")
    for shift in range(16, (n - 1).bit_length(), 16):
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[digits.argsort(kind="stable")]
    return order


def _play_day(
    state: WorldState, choices: np.ndarray, n: int, rng: np.random.Generator
) -> float:
    """Run the lottery on today's choices, move the state to today and
    return today's utilization (occupied restaurants / n).

    Today's crowds and flags overwrite yesterday's, and yesterday's
    choices become the workspace's buffer for tomorrow's.
    """
    _service_lottery(state, choices, n, rng)
    work = state.workspace
    work.choices, state.last_restaurant = state.last_restaurant, choices
    state.losses += np.logical_not(state.was_served, work.flags)
    state.day += 1
    return np.count_nonzero(state.crowds) / n


def _greedy_day(
    state: WorldState, config: SimulationConfig, rng: np.random.Generator
) -> float:
    """Play a greedy day over yesterday's unserved agents only.

    A served greedy agent always stays, so a restaurant's crowd changes
    only where an unserved agent leaves or arrives.  The day touches those
    restaurants, their residents and the unserved agents, and draws what
    the dense day draws: the choice block, then one uniform per contested
    restaurant in ascending restaurant order, picking a member by rank in
    agent order.

    The day is a fixed number of numpy calls on arrays about as long as the
    unserved list, so it costs nearly the same with one unserved agent as
    with hundreds: a run's cost follows its number of days, not how they
    split between crowded days and the long one-agent endgame.
    """
    n = config.n
    if state.resident is None:
        served = state.was_served.nonzero()[0]
        state.resident = np.full(n, -1)
        state.resident[state.last_restaurant[served]] = served
        state.unserved = (~state.was_served).nonzero()[0]
    agents, resident = state.unserved, state.resident
    left = state.last_restaurant[agents]
    choices = sample_choices_vectorized(
        config.strategy, config.alpha, left, state.last_crowd[agents], agents, n, rng
    )
    state.last_restaurant[agents] = choices

    # today's members of the touched restaurants as restaurant * n + agent:
    # the unserved agents where they went, the residents of the restaurants
    # they left (who stay) and of those they reached.  Sorted, each
    # restaurant's members are adjacent and in agent order.
    reached = resident[choices]
    keys = np.concatenate((
        choices * n + agents,
        left * n + resident[left],
        (choices * n + reached)[reached >= 0],
    ))
    keys.sort()
    keys = keys[_run_starts(keys)]  # a resident may be listed more than once
    at = keys // n
    who = keys - at * n
    starts = _run_starts(at).nonzero()[0]
    sizes = np.concatenate((starts[1:], [len(keys)])) - starts

    picks = starts.copy()
    contested = (sizes > 1).nonzero()[0]
    if contested.size:
        size = sizes[contested]
        u = rng.random(contested.size)
        picks[contested] += (u * size).astype(np.int64)  # a rank below size
    served = np.zeros(len(keys), dtype=bool)
    served[picks] = True
    losers = who[~served]

    occupied = at[starts]
    resident[occupied] = who[picks]
    state.crowds[occupied] = sizes
    state.last_crowd[who] = sizes.repeat(sizes)
    state.was_served[who] = served
    state.losses[losers] += 1
    losers.sort()
    state.unserved = losers
    state.day += 1
    return (n - len(losers)) / n


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Flag the first element of each run of equal values."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def init_day_one(
    config: SimulationConfig, rng: np.random.Generator
) -> tuple[WorldState, float]:
    """Play day 1: uniform random choices by every agent, then the lottery.

    Returns the state after day 1 and day 1's utilization.
    """
    n = config.n
    # day 0: nobody has chosen, been crowded or been served yet; each array
    # is a buffer of its own, since the days write into them
    zeros = [np.zeros(n, dtype=np.int64) for _ in range(4)]
    state = WorldState(
        0, *zeros[:2], np.zeros(n, dtype=bool), *zeros[2:], Workspace(n, config.strategy)
    )
    return state, _play_day(state, rng.integers(0, n, size=n), n, rng)


def step_day(
    state: WorldState, config: SimulationConfig, rng: np.random.Generator
) -> float:
    """Advance one day: choices from yesterday's state, then the lottery.

    Returns today's utilization.
    """
    if config.strategy is Strategy.GREEDY_CROWD_AVOIDING:
        return _greedy_day(state, config, rng)
    choices = sample_choices_vectorized(
        config.strategy,
        config.alpha,
        state.last_restaurant,
        state.last_crowd,
        None,
        config.n,
        rng,
        state.workspace,
    )
    return _play_day(state, choices, config.n, rng)


# Settlement threshold: a day counts as saturated once the smoothed series
# (a STABILITY_DAYS-wide running mean) is within SETTLE_FRACTION of the
# day-1 transient amplitude around f_s, plus a NOISE_ALLOWANCE-sigma
# allowance for the smoothed series' own fluctuations.  f_s and sigma come
# from the trailing TAIL_WINDOW_FRACTION of the days.  AMPLITUDE_SIGNIFICANCE
# is the significance (in tail-mean standard errors) an amplitude must reach
# before a transient is considered present at all.
SETTLE_FRACTION = 0.15
TAIL_WINDOW_FRACTION = 0.5
STABILITY_DAYS = 10
NOISE_ALLOWANCE = 1.0
AMPLITUDE_SIGNIFICANCE = 5.0


def detect_convergence(
    f_series: np.ndarray, strategy: Strategy, n: int
) -> tuple[int, float, bool]:
    """Estimate the convergence day and saturation value of a utilization series.

    Greedy runs converge at the first day with f = 1 exactly.  For the other
    strategies, f_s and the day-to-day spread sigma come from the trailing
    tail window, and convergence means the initial transient has decayed:
    day 1 starts at the uniform-choice baseline 1 - (1 - 1/n)^n, and the
    converged day is the first day whose STABILITY_DAYS-wide centered
    running mean lies within SETTLE_FRACTION of the day-1 amplitude
    |f_s - baseline| around f_s (plus a small allowance for the running
    mean's own noise).  The amplitude scale makes the estimate
    size-independent: the same criterion applied to a noisier (small n) or
    cleaner (large n) run targets the same point of the transient.  A series
    whose amplitude is indistinguishable from the tail noise (below
    AMPLITUDE_SIGNIFICANCE standard errors of the tail mean) has no
    transient and is converged from day 1.

    tau counts the days before the converged day, so a series stationary
    from the start reports tau = 0.  Returns (tau, f_s, converged); a series
    that never settles reports tau = len(f_series) and converged = False.
    So does a series too short for a tail window of two days, with f_s the
    mean of the whole series.
    """
    f_series = np.asarray(f_series, dtype=np.float64)
    days = len(f_series)
    if days == 0:
        raise ValueError("empty utilization series")

    if strategy is Strategy.GREEDY_CROWD_AVOIDING:
        full = np.flatnonzero(f_series == 1.0)
        if full.size:
            return int(full[0]), 1.0, True
        return days, float(f_series[-1]), False

    window_len = int(round(TAIL_WINDOW_FRACTION * days))
    if window_len < 2:
        return days, float(f_series.mean()), False
    tail = f_series[-window_len:]
    f_s = float(tail.mean())
    sigma = float(tail.std())

    baseline = exact_random_utilization(n)
    amplitude = abs(f_s - baseline)
    if amplitude <= AMPLITUDE_SIGNIFICANCE * sigma / np.sqrt(window_len):
        return 0, f_s, True

    k = min(STABILITY_DAYS, days)
    threshold = SETTLE_FRACTION * amplitude + NOISE_ALLOWANCE * sigma / np.sqrt(k)
    smoothed = _centered_running_mean(f_series, k)
    candidates = np.flatnonzero(np.abs(smoothed - f_s) <= threshold)
    if candidates.size:
        return int(candidates[0]), f_s, True
    return days, f_s, False


def _centered_running_mean(values: np.ndarray, k: int) -> np.ndarray:
    """k-wide running mean centered on each day, truncated at the ends."""
    half = k // 2
    cumulative = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(len(values))
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + (k - half), len(values))
    return (cumulative[hi] - cumulative[lo]) / (hi - lo)


def run(config: SimulationConfig) -> RunResult:
    """Execute one full run, seeded from config.seed, and assemble its result.

    Greedy runs stop at the first fully utilized day (f can only grow, and a
    day with everyone alone repeats forever); the other strategies always run
    the full horizon, since their saturation statistics come from the tail.
    Only greedy runs keep each agent's final success rate, read from the
    live counts.  Per-day service flags are kept only when the config
    records history.
    """
    rng = np.random.default_rng(config.seed)
    max_days = config.effective_max_days
    greedy = config.strategy is Strategy.GREEDY_CROWD_AVOIDING

    state, f = init_day_one(config, rng)
    f_values = [f]
    flags = [state.was_served.copy()] if config.record_history else None

    while state.day < max_days and not (greedy and f_values[-1] == 1.0):
        f_values.append(step_day(state, config, rng))
        if flags is not None:
            flags.append(state.was_served.copy())

    f_series = np.array(f_values)
    tau, f_s, converged = detect_convergence(f_series, config.strategy, config.n)

    final_rates = None
    if greedy:
        # a greedy run stops on day max(tau, 1), or on the day after it when
        # that is its first full day: then today's flags come off the counts
        rate_day = max(tau, 1)
        counts = state.success_count
        if rate_day < state.day:
            counts = counts - state.was_served
        final_rates = 100.0 * counts / rate_day

    return RunResult(
        config=config,
        f_series=f_series,
        tau=tau,
        f_s=f_s,
        final_rates=final_rates,
        converged=converged,
        success_history=np.stack(flags) if flags is not None else None,
    )
