"""Search for a marked index when the number of marked items is unknown.

The strategy (Boyer, Brassard, Hoyer and Tapp's exponential search): run
the amplitude-amplification iteration a random number of times j, drawn
uniformly below a cap m that grows geometrically after each failed
measurement (growth factor strictly between 1 and 4/3, capped at
sqrt(N)).  With t >= 1 marked items out of N this finds one of them, each
with equal probability, in an expected O(sqrt(N/t)) iterations; with t = 0
it would run forever, so a time-step budget bounds it from outside.

One function, ``search``, runs the rounds of both backends over the
counts N and t and draws the index of both: the caps ceil(m) (computed
once per (N, growth) by ``_round_schedule``), the j draw, truncation to
the budget and the stop rule.  Both backends work in rank space: the t
marked indices are 0..t-1, so a search returns a position in its caller's
sorted order, and a hit is a position below t, with no flag of its own.
The backends differ only in how a round is measured and where the
position comes from:

* ``ANALYTIC_SAMPLER`` declares success with the closed-form probability
  sin^2((2j+1) arcsin(sqrt(t/N))) in O(1) per round, independent of N.
  The position is uniform within the success or failure class whatever
  the rounds did, so the search draws it once the rounds end: one of
  0..t-1 on a hit, one of t..N-1 on a miss.
* ``EXACT_STATEVECTOR`` measures the state after j iterations with one
  ``GroverLadder.measure`` call on the caller's ``GroverLadder(N, t)``,
  and returns the last position measured; it never reads the rotation
  angle.  Every round starts from the uniform state, so a ladder kept
  across searches computes each iteration once; each is still charged one
  time step, as in every round.  Exact passes and equivalence cells take
  their ladder from ``grover.ladder(N, t)``, which keeps the ladders of
  the most recent N across searches and runs, within a byte bound that
  evicts the largest t first.

With nothing marked (t = 0, N >= 2) every round misses with certainty and
the rounds spend a finite budget down to its floor, so the search is
settled in closed form without rounds, and then draws one position (the
exact backend measures the uniform state, which no iteration moves; the
analytic one draws an unmarked position).

Each search consumes one random stream and one budget; concurrent searches
need disjoint streams.
"""
from __future__ import annotations

import enum
import math
from functools import lru_cache
from itertools import chain, repeat

from .grover import GroverLadder, rotation_angle

__all__ = [
    "Backend",
    "DEFAULT_GROWTH",
    "check_growth",
    "search",
]

DEFAULT_GROWTH = 8.0 / 7.0


class Backend(enum.Enum):
    """Which machinery realizes one search round."""

    EXACT_STATEVECTOR = "exact"
    ANALYTIC_SAMPLER = "analytic"


def check_growth(growth: float) -> None:
    """Reject a growth factor outside (1, 4/3), where the expected-iteration bound fails."""
    if not 1.0 < growth < 4.0 / 3.0:
        raise ValueError(f"growth factor must lie strictly in (1, 4/3), got {growth}")


@lru_cache(maxsize=64)
def _round_schedule(n: int, growth: float) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """The caps of a search's rounds over a domain of n, with their bit lengths.

    Returns the ``(ceil(m), bit length)`` pairs of the rounds whose cap m is
    still growing (m < sqrt(N)), then the pair of the saturated cap that
    every later round uses.  They come from the float recurrence
    ``m = min(growth * m, sqrt(N))`` from m = 1; no other code steps it.
    The growth factor is checked here, on a cache miss, so no search pays
    for the check.
    """
    check_growth(growth)
    m_cap = math.sqrt(n)
    m = 1.0
    growing = []
    while m < m_cap:
        high = math.ceil(m)
        growing.append((high, high.bit_length()))
        m = min(growth * m, m_cap)
    high = math.ceil(m_cap)
    return tuple(growing), (high, high.bit_length())


def search(
    n: int, t: int, budget: float, growth: float, rng, ladder: GroverLadder | None = None
) -> tuple[int, bool, int]:
    """Hunt for one of t marked indices of n within ``budget`` time steps.

    Returns ``(iterations_used, interrupted, index)``.  The marked indices
    are 0..t-1, so the search hit exactly when ``index < t``.  ``growth``
    must lie strictly in (1, 4/3) (see ``check_growth``).  With a
    ``ladder`` (a ``GroverLadder(n, t)``) the search runs on the exact
    backend and ``index`` is the last position measured; without one it
    runs on the analytic backend, and ``index`` is a class position drawn
    after the rounds: ``randrange(t)`` on a hit, ``randrange(t, n)`` on a
    miss.  A caller maps that position to an index of its own.

    A round capped above 1 draws j as ``randrange(high)`` does
    (``getrandbits`` of the cap's bit length until the value is below the
    cap); a round capped at 1, the first of every search, takes j = 0 and
    draws nothing, where ``randrange(1)`` would still consume bits.  A draw
    the budget cannot cover is truncated to the affordable count, the
    (partially rotated) state is still measured, and the search comes back
    ``interrupted``.  Running out of budget is a normal outcome, not an
    error; with nothing marked the search always ends that way, consuming
    the whole budget (its floor), so an infinite budget with nothing marked
    is rejected unless the domain has a single index.
    """
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if t == 0 and n >= 2:
        if budget == math.inf:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be.  No iteration moves the uniform state.
        index = rng.randrange(t, n) if ladder is None else ladder.measure(0, rng)
        return int(budget), True, index
    growing, saturated = _round_schedule(n, growth)
    if ladder is None:
        theta = rotation_angle(n, t)
    else:
        measure = ladder.measure
    getrandbits = rng.getrandbits
    uniform = rng.random
    sin = math.sin
    remaining = budget
    used = 0
    for high, bits in chain(growing, repeat(saturated)):
        if high > 1:
            j = getrandbits(bits)
            while j >= high:
                j = getrandbits(bits)
        else:
            j = 0
        truncated = j > remaining
        if truncated:
            j = int(remaining)
        if ladder is None:
            # Inline, not a per-round callable: a call per round makes
            # the analytic loop take about 15% longer.  t = 0 here only
            # on a one-index domain.  With every index marked the
            # probability is exactly 1, so no search ends on a miss
            # whose unmarked position could not be drawn.
            hit = t > 0 and uniform() < sin((2 * j + 1) * theta) ** 2
        else:
            index = measure(j, rng)
            hit = index < t
        remaining -= j
        used += j
        if hit:
            interrupted = truncated
            break
        # A miss ends the search when its round was truncated, when the
        # budget is spent, or on a one-index domain: there every draw is
        # j = 0, so the budget can never be consumed.
        if truncated or remaining <= 0 or n == 1:
            interrupted = True
            break
    if ladder is None:
        # The rounds draw no index: it is uniform within the class the
        # search ended in, whatever the rounds did.
        index = rng.randrange(t) if hit else rng.randrange(t, n)
    return used, interrupted, index
