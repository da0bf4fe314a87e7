"""Restaurant-choice rules.

All strategies are memoryless beyond one day: an agent knows only the crowd
size at the restaurant it visited yesterday and whether it was served there.

Random-number use is fixed so runs replay exactly: the random strategy draws
one integer per agent; the crowd-avoiding strategies draw one uniform for
the stay/leave decision and, only when leaving, one integer to pick among
the other n-1 restaurants.  A served greedy agent always stays, so greedy
days jump over its uniform instead of drawing it: the stream, and every
output byte, is the same as if all n uniforms had been drawn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import Strategy

if TYPE_CHECKING:
    from .engine import WorldState


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
    """Sample one day's choices in a single vectorized pass.

    An agent stays with probability ``1 / crowd**alpha`` (crowd-avoiding)
    or ``1 / crowd`` (unserved greedy), else picks uniformly among the other
    n-1 restaurants; ``tests/reference.py`` writes this rule out per agent.
    The stream is consumed in a fixed order: the random strategy draws n
    integers in agent order; otherwise a block of n uniforms (agent order)
    decides stay/leave, then the leavers draw one integer each (agent order).

    The random and crowd-avoiding strategies take every agent (``agents``
    is ignored).  The greedy strategy takes only the unserved agents:
    ``last_restaurant`` and ``last_crowd`` hold their rows and ``agents``
    their ascending indices.  A served greedy agent always stays, so its
    uniform is jumped over rather than read (see :func:`uniforms_at`).

    A crowd-avoiding day needs the run's ``state``: it works in the state's
    buffers and returns ``state.choices``; the inputs are not written.  The
    other strategies ignore it.
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
