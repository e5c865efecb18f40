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
  sin^2((2j+1) arcsin(sqrt(t/N))), read from entry j of the hit table
  ``grover.hit_table(N, t)``.  The position is uniform within the success
  or failure class whatever the rounds did, so the search draws it once
  the rounds end: one of 0..t-1 on a hit, one of t..N-1 on a miss.
* ``EXACT_STATEVECTOR`` measures the state after j iterations, entry j of
  the CDFs of the ladder ``grover.ladder(N, t)``, with the draw of
  ``GroverLadder.measure``: one ``random()`` u, and x = u times the CDF's
  total.  The state's marked mass, its CDF entry t - 1, decides the hit
  (x below it), which is exactly when ``bisect_right`` of x would land
  below t.  Only the state that ends the search is bisected, once the
  rounds end, from its round's x, so the search returns the position
  ``measure`` would have drawn from that state.  It never reads
  the rotation angle.  Each round is still charged j time steps, however
  many of the states the ladder already held.

So both backends run one round shape: a per-state scalar decides the
hit, and the position is drawn once, when the search ends.

A search fetches its table once and reads entry j inline, with no call
per round.  When j passes the table's end one block grows it, a hit table
to the round's cap (``grover.extend_hits``), a ladder to j alone
(``grover.extend``); ``grover`` stores, counts and evicts both kinds of
table under one life cycle (see its docstring).

With nothing marked (t = 0) every round misses with certainty.  For
N >= 2 the rounds spend a finite budget down to its floor; on a one-index
domain every round is j = 0, so the first miss ends the search with
nothing spent.  Either way the search is settled in closed form without
rounds, and then draws one position (the exact backend measures the
uniform state, which no iteration moves, from its CDF shared by every
ladder of N, so it builds no ladder; the analytic one draws an unmarked
position).  So every round runs with t >= 1, and a one-index
domain's round always hits.

Each search consumes one random stream and one budget; concurrent searches
need disjoint streams.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, repeat

from . import grover

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


# What ``search`` compares its backend with: a member read through the enum
# class costs about 0.1 us on CPython 3.11, a module global a tenth of that.
_ANALYTIC, _EXACT = Backend.ANALYTIC_SAMPLER, Backend.EXACT_STATEVECTOR


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
    n: int, t: int, budget: float, growth: float, rng, backend: Backend = Backend.ANALYTIC_SAMPLER
) -> tuple[int, bool, int]:
    """Hunt for one of t marked indices of n within ``budget`` time steps.

    Returns ``(iterations_used, interrupted, index)``.  The marked indices
    are 0..t-1, so the search hit exactly when ``index < t``.  ``growth``
    must lie strictly in (1, 4/3) (see ``check_growth``).  On the exact
    ``backend`` ``index`` is the position measured from the last round's
    state, bisected from the draw that decided its hit; on the analytic
    one it is a class position drawn after the rounds: ``randrange(t)`` on
    a hit, ``randrange(t, n)`` on a miss.  A caller maps that position to
    an index of its own.  Any other ``backend`` is rejected.

    A round capped above 1 draws j as ``randrange(high)`` does
    (``getrandbits`` of the cap's bit length until the value is below the
    cap); a round capped at 1, the first of every search, takes j = 0 and
    draws nothing, where ``randrange(1)`` would still consume bits.  A draw
    the budget cannot cover is truncated to the affordable count, the
    (partially rotated) state is still measured, and the search comes back
    ``interrupted``.  Running out of budget is a normal outcome, not an
    error; with nothing marked the search always ends that way, consuming
    the whole budget (its floor) unless the domain has a single index, so
    an infinite budget with nothing marked is rejected there.
    """
    analytic = backend is _ANALYTIC
    if not analytic and backend is not _EXACT:
        raise ValueError(f"unknown backend {backend!r}")
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if t == 0 and n >= 1:
        if budget == math.inf and n >= 2:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be; on one index the first j = 0 round ends
        # it.  No iteration moves the uniform state.
        if analytic:
            index = rng.randrange(t, n)
        else:
            cdf = grover.uniform_cdf(n)
            index = bisect_right(cdf, rng.random() * cdf[-1])
        return (int(budget) if n >= 2 else 0), True, index
    growing, saturated = _round_schedule(n, growth)
    # The stored table of (n, t), or a fresh one that its first growth
    # stores: hit probabilities, or the CDFs of the ladder's states.
    if analytic:
        table = grover.hit_table(n, t)
    else:
        ladder = grover.ladder(n, t)
        table = ladder.cdfs
    depth = len(table)
    getrandbits = rng.getrandbits
    uniform = rng.random
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
        # The table is read inline, with no call per round (a call per
        # round made the analytic loop take about 15% longer and exact runs
        # at n = 1024 about 8% slower).  It grows only when j is past its
        # end: a hit table to this round's cap, a ladder to j alone, each
        # counted in its store first.
        if j >= depth:
            if analytic:
                grover.extend_hits(table, n, t, high)
            else:
                grover.extend(ladder, j)
            depth = len(table)
        if analytic:
            # With every index marked the probability is exactly 1, so no
            # search ends on a miss whose unmarked position could not be
            # drawn.  The entry is read inside the comparison: naming it
            # before the branch made capped analytic runs at n = 16384
            # about 1% slower.
            hit = uniform() < table[j]
        else:
            # One uniform draw, as ``measure`` makes it.  The state's marked
            # mass decides the hit: ``bisect_right`` counts the entries <= x
            # of the nondecreasing CDF, so it returns a position below t
            # exactly when x < entry[t - 1].
            entry = table[j]
            x = uniform() * entry[-1]
            hit = x < entry[t - 1]
        remaining -= j
        used += j
        if hit:
            interrupted = truncated
            break
        if truncated or remaining <= 0:
            interrupted = True
            break
    if analytic:
        # The rounds draw no index: it is uniform within the class the
        # search ended in, whatever the rounds did.
        index = rng.randrange(t) if hit else rng.randrange(t, n)
    else:
        # Only the last round's state is measured to a position, from the
        # draw that decided its hit.
        index = bisect_right(entry, x)
    return used, interrupted, index
