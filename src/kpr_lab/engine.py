"""Single-run simulation engine.

A run is strictly sequential: all agents choose simultaneously from
yesterday's state, crowds are tallied, and every non-empty restaurant serves
one uniformly chosen arrival.  Day 1 has no yesterday, so every agent picks
uniformly at random (the zero-memory baseline), which also seeds the
crowd-avoiding strategies with their first crowd observation.  After that
an agent knows only the crowd at the restaurant it visited yesterday and
whether it was served there: it stays with probability ``1 / crowd**alpha``
(crowd-avoiding) or ``1 / crowd`` (unserved greedy; a served greedy agent
always stays), else picks uniformly among the other n-1 restaurants.
``tests/reference.py::reference_day`` is the oracle of every strategy's day.

Random-number consumption per day is fixed, so runs replay exactly:

1. the choice block, in agent order: n integers for a random day, else n
   stay/leave uniforms;
2. one integer in [0, n-1) per mover (leaver), in agent order;
3. one uniform per contested restaurant (crowd of two or more), in
   ascending restaurant order, which picks a member by rank in agent order;
   lone arrivals are served without a draw.

A greedy day draws the same stream over yesterday's unserved agents only:
it jumps over the served agents' uniforms (``bit_generator.advance``)
instead of drawing them, and runs the same lottery over the restaurants the
unserved agents leave or reach.  Its output is byte-identical to tallying
all n agents.
"""

from __future__ import annotations

from array import array

import numpy as np

from .model import RunResult, SimulationConfig, Strategy
from .stats import exact_random_utilization, success_percentages


class WorldState:
    """Mutable per-run state: every n-sized array of one run, allocated by
    the constructor as day 0 (nobody has chosen, been crowded or been
    served yet).

    The days write into these buffers instead of allocating: from n ~ 16k
    on, a fresh n-sized 8-byte array lies above malloc's mmap and trim
    thresholds, so it would go back to the kernel at the end of each day and
    be faulted in again the next.  A caller copies what it keeps, and runs
    stepped side by side each need a state of their own.  A dense day trades
    ``choices`` for ``last_restaurant`` (day 1 hands it day 0's, so
    ``choices`` starts as None); the lottery uses ``flags`` (its
    first m entries on a greedy day) as bool scratch.  Only crowd-avoiding
    runs keep ``uniforms`` and ``p_stay``.  Only greedy runs keep ``losses``,
    each agent's unserved days, the unserved agents (ascending, from day 1
    on) and each restaurant's resident, its one served agent (-1 where
    empty).  The rest are None.
    """

    __slots__ = ("day", "last_restaurant", "last_crowd", "was_served", "crowds",
                 "choices", "flags", "uniforms", "p_stay", "losses", "unserved",
                 "resident")

    def __init__(self, n: int, strategy: Strategy) -> None:
        self.day = 0
        self.last_restaurant, self.last_crowd, self.crowds = (
            np.zeros(n, dtype=np.int64) for _ in range(3)
        )
        self.was_served = np.zeros(n, dtype=bool)
        self.flags = np.empty(n, dtype=bool)
        crowd_avoiding = strategy is Strategy.CROWD_AVOIDING
        greedy = strategy is Strategy.GREEDY_CROWD_AVOIDING
        self.uniforms = np.empty(n) if crowd_avoiding else None
        self.p_stay = np.empty(n) if crowd_avoiding else None
        self.losses = np.zeros(n, dtype=np.int64) if greedy else None
        self.resident = np.full(n, -1) if greedy else None
        self.choices = self.unserved = None


def sample_choices_vectorized(
    strategy: Strategy,
    alpha: float,
    last_restaurant: np.ndarray,
    last_crowd: np.ndarray,
    agents: np.ndarray | None,
    n: int,
    rng: np.random.Generator,
    state: WorldState | None = None,
) -> np.ndarray:
    """Sample one day's choices (draws 1 and 2 of the module docstring).

    The random and crowd-avoiding strategies take every agent (``agents``
    is ignored).  The greedy strategy takes only the unserved agents:
    ``last_restaurant`` and ``last_crowd`` hold their rows and ``agents``
    their ascending indices.  A crowd-avoiding day needs the run's
    ``state``: it works in the state's buffers and returns
    ``state.choices``; the inputs are not written.  The other strategies
    ignore ``state``.
    """
    if strategy is Strategy.RANDOM:
        return rng.integers(0, n, size=n)
    if strategy is Strategy.CROWD_AVOIDING:
        p_stay = state.p_stay
        p_stay[...] = last_crowd
        # in place, ** keeps numpy's fast paths (a reciprocal at alpha = 1)
        p_stay **= -alpha
        uniforms = rng.random(out=state.uniforms)
        leave = np.greater_equal(uniforms, p_stay, state.flags)
        choices = state.choices
        choices[...] = last_restaurant
    else:
        p_stay = 1.0 / last_crowd
        leave = uniforms_at(rng, agents, n) >= p_stay
        choices = last_restaurant.copy()
    movers = leave.nonzero()[0]
    if movers.size:
        other = rng.integers(0, n - 1, size=movers.size)
        other += other >= last_restaurant[movers]
        choices[movers] = other
    return choices


# Jumping over a stretch of the stream costs about as much as drawing this
# many uniforms (one advance plus one scalar draw against ~5 ns a uniform)
JUMP_COST_UNIFORMS = 512


def uniforms_at(
    rng: np.random.Generator, positions: np.ndarray, n: int
) -> np.ndarray:
    """Return ``rng.random(n)[positions]`` for ascending positions, leaving
    rng where ``rng.random(n)`` would.

    When the positions are few against n, only they are drawn: each uniform
    is one 64-bit step of PCG64, so ``bit_generator.advance`` jumps over the
    others.  advance drops a buffered 32-bit half (left by a 32-bit integer
    draw), so a pending half is put back afterwards.
    """
    if (len(positions) + 1) * JUMP_COST_UNIFORMS >= n:
        return rng.random(n)[positions]
    bit_generator = rng.bit_generator
    before = bit_generator.state
    values = np.empty(len(positions))
    drawn = 0
    for i, position in enumerate(positions.tolist()):
        bit_generator.advance(position - drawn)
        values[i] = rng.random()
        drawn = position + 1
    bit_generator.advance(n - drawn)
    if before["has_uint32"]:
        after = bit_generator.state
        after["has_uint32"], after["uinteger"] = 1, before["uinteger"]
        bit_generator.state = after
    return values


def _service_lottery(
    choices: np.ndarray, n: int, rng: np.random.Generator,
    crowds: np.ndarray, own_crowd: np.ndarray, served: np.ndarray, flags: np.ndarray,
) -> None:
    """Tally crowds and pick one served chooser per non-empty restaurant.

    Takes at least n choices in [0, n) and writes the n crowds, each
    chooser's crowd and the served flags (draw 3 of the module docstring);
    ``flags`` is bool scratch as long as the choices.
    """
    # bincount has no out=: its tally is copied and freed at once, before
    # the lottery makes its own arrays
    crowds[...] = np.bincount(choices, minlength=n)
    # the indices are in range, and mode="clip" keeps take from buffering
    crowds.take(choices, out=own_crowd, mode="clip")
    np.equal(own_crowd, 1, served)

    contested = np.greater_equal(crowds, 2, flags[:n]).nonzero()[0]
    if contested.size:
        sizes = crowds[contested]
        u = rng.random(contested.size)
        # u is a multiple of 2**-53 below 1, so u * size rounds to below
        # size: the offset is a member's rank, never past the last member
        offsets = (u * sizes).astype(np.int64)
        # crowd members in the order that groups them by restaurant,
        # ascending, in chooser order within each group
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
    state: WorldState, strategy: Strategy, config: SimulationConfig,
    rng: np.random.Generator,
) -> float:
    """Play a dense day: every agent chooses by ``strategy`` from yesterday's
    state, then the lottery.  Moves the state to today and returns today's
    utilization (occupied restaurants / n).

    Today's crowds and flags overwrite yesterday's, and yesterday's
    choices become the buffer for tomorrow's.
    """
    n = config.n
    choices = sample_choices_vectorized(
        strategy, config.alpha, state.last_restaurant, state.last_crowd, None, n, rng, state
    )
    _service_lottery(
        choices, n, rng, state.crowds, state.last_crowd, state.was_served, state.flags
    )
    state.choices, state.last_restaurant = state.last_restaurant, choices
    state.day += 1
    return np.count_nonzero(state.crowds) / n


def _greedy_day(
    state: WorldState, config: SimulationConfig, rng: np.random.Generator
) -> float:
    """Play a greedy day over yesterday's unserved agents only.

    A served greedy agent always stays, so a restaurant's crowd changes
    only where an unserved agent leaves or arrives.  The day numbers those
    k restaurants 0..k-1 in ascending order and runs the lottery over their
    members (the unserved agents and the residents, in agent order).  That
    keeps the contested restaurants' order and each member's rank, so the
    day draws what the dense day draws.

    The day is a fixed number of numpy calls on arrays about as long as the
    unserved list, so it costs nearly the same with one unserved agent as
    with hundreds: a run's cost follows its number of days, not how they
    split between crowded days and the long one-agent endgame.
    """
    n = config.n
    agents, resident, crowds = state.unserved, state.resident, state.crowds
    left = state.last_restaurant[agents]
    choices = sample_choices_vectorized(
        config.strategy, config.alpha, left, state.last_crowd[agents], agents, n, rng
    )
    state.last_restaurant[agents] = choices

    # index arrays, not boolean masks: numpy indexes by an irregular mask
    # several times slower than by the positions of its True entries
    touched = np.concatenate((left, choices))
    touched.sort()
    touched = touched[_run_starts(touched)]
    k = len(touched)
    residents = resident[touched]
    members = np.concatenate((agents, residents[(residents >= 0).nonzero()[0]]))
    members.sort()
    at = state.last_restaurant[members]
    # the crowds of the touched restaurants are rewritten below, so until
    # then they hold each touched restaurant's local number
    crowds[touched] = np.arange(k)
    local = crowds[at]

    m = len(members)
    tallies, own_crowd = np.empty(k, dtype=np.int64), np.empty(m, dtype=np.int64)
    served, flags = np.empty(m, dtype=bool), state.flags[:m]
    _service_lottery(local, k, rng, tallies, own_crowd, served, flags)

    crowds[touched] = tallies
    state.last_crowd[members] = own_crowd
    state.was_served[members] = served
    won = served.nonzero()[0]
    resident[at[won]] = members[won]
    losers = members[np.logical_not(served, flags).nonzero()[0]]
    state.losses[losers] += 1
    state.unserved = losers
    state.day += 1
    return (n - len(losers)) / n


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index the first element of each run of equal values."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first.nonzero()[0]


def init_day_one(
    config: SimulationConfig, rng: np.random.Generator
) -> tuple[WorldState, float]:
    """Play day 1: uniform random choices by every agent, then the lottery.

    Returns the state after day 1 and day 1's utilization.  A greedy run's
    state also gets its losses, unserved agents and residents here, so that
    a run capped at one day has its counts too.
    """
    state = WorldState(config.n, config.strategy)
    f = _play_day(state, Strategy.RANDOM, config, rng)
    if config.strategy is Strategy.GREEDY_CROWD_AVOIDING:
        np.logical_not(state.was_served, out=state.losses)
        state.unserved = state.losses.nonzero()[0]
        served = state.was_served.nonzero()[0]
        state.resident[state.last_restaurant[served]] = served
    return state, f


def step_day(
    state: WorldState, config: SimulationConfig, rng: np.random.Generator
) -> float:
    """Advance one day: choices from yesterday's state, then the lottery.

    Returns today's utilization.
    """
    if config.strategy is Strategy.GREEDY_CROWD_AVOIDING:
        return _greedy_day(state, config, rng)
    return _play_day(state, config.strategy, config, rng)


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


def detect_convergence(f_series: np.ndarray, n: int) -> tuple[int, float, bool]:
    """Estimate the convergence day and saturation value of a random or
    crowd-avoiding utilization series.

    f_s and the day-to-day spread sigma come from the trailing tail window,
    and convergence means the initial transient has decayed: day 1 starts
    at the uniform-choice baseline 1 - (1 - 1/n)^n, and the
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
    day with everyone alone repeats forever), and that stop is their verdict;
    the other strategies always run the full horizon, since
    ``detect_convergence`` reads their saturation statistics from the tail.
    Only greedy runs keep each agent's final success rate, read from the
    live counts.  Each day's f goes into one growing float64 buffer, which
    the result's ``f_series`` views without a copy: 8 bytes a day, no float
    object per day.  Each day's losers (its unserved agents, ascending, as
    int32) are kept only when the config records history, appended to one
    growing buffer too, so no day keeps an array of its own.
    """
    rng = np.random.default_rng(config.seed)
    max_days = config.effective_max_days
    greedy = config.strategy is Strategy.GREEDY_CROWD_AVOIDING

    state, f = init_day_one(config, rng)
    # typed buffers grown by realloc (about 1/16 spare), no object a day
    f_values = array("d", [f])
    losers, offsets = (array("i"), array("q", [0])) if config.record_history else (None, None)

    while True:
        if losers is not None:
            day_losers = np.logical_not(state.was_served).nonzero()[0]
            losers.frombytes(day_losers.astype(np.int32).tobytes())
            offsets.append(len(losers))
        if state.day >= max_days or (greedy and f_values[-1] == 1.0):
            break
        f_values.append(step_day(state, config, rng))

    f_series = np.frombuffer(f_values)
    final_rates = None
    if greedy:
        converged = f_values[-1] == 1.0
        tau, f_s = len(f_values) - converged, f_values[-1]
        # nobody loses on the full day the run stops on, so the counts at
        # the stop are those of day tau
        final_rates = success_percentages(state.losses, max(tau, 1))
    else:
        tau, f_s, converged = detect_convergence(f_series, config.n)

    return RunResult(
        config=config,
        f_series=f_series,
        tau=tau,
        f_s=f_s,
        final_rates=final_rates,
        converged=converged,
        losers=None if losers is None else np.frombuffer(losers, dtype=np.int32),
        loser_offsets=None if offsets is None else np.frombuffer(offsets, dtype=np.int64),
    )
