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
  sin^2((2j+1) arcsin(sqrt(t/N))), read in O(1) per round from a hit table
  of (N, t): entry j holds that probability, computed by the same
  expression.  The tables of the most recent N are kept across searches
  and runs in ``grover``'s bounded store of hit tables.  A table grows
  only when a round draws j past its end, and then to that round's cap,
  so a search at a large t, which ends within a few rounds, fills only
  the first few entries.  The probabilities depend on (N, t, j) alone,
  so one table serves every growth factor, and a kept table gives every
  search the floats a fresh one would.  The position is
  uniform within the success or failure class whatever the rounds did, so
  the search draws it once the rounds end: one of 0..t-1 on a hit, one of
  t..N-1 on a miss.
* ``EXACT_STATEVECTOR`` measures the state after j iterations of the
  ladder ``grover.ladder(N, t)``, taken once per search, as
  ``GroverLadder.measure`` does, one ``random()`` draw bisected on the
  right of the state's CDF, and returns the last position measured; it
  never reads the rotation angle.  The round reads the CDFs the ladder
  holds inline, with no call per round, and calls ``grover.extend`` only
  for a state the ladder does not yet hold, which grows the ladder to
  that j alone.  Every round starts from the uniform state, so a ladder
  kept across searches computes each iteration once; each is still
  charged one time step, as in every round.  The ladders of the most
  recent N are kept in ``grover``'s bounded store of ladders, within
  ``grover.KEPT_LADDER_BYTES``.  Both stores follow one largest-t-first
  rule (see ``grover``).

With nothing marked (t = 0) every round misses with certainty.  For
N >= 2 the rounds spend a finite budget down to its floor; on a one-index
domain every round is j = 0, so the first miss ends the search with
nothing spent.  Either way the search is settled in closed form without
rounds, and then draws one position (the exact backend measures the
uniform state, which no iteration moves; the analytic one draws an
unmarked position).  So every round runs with t >= 1, and a one-index
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
from .grover import _hit_tables, extend, rotation_angle

__all__ = [
    "Backend",
    "DEFAULT_GROWTH",
    "check_growth",
    "search",
]

DEFAULT_GROWTH = 8.0 / 7.0
# What a hit table counts in its store (``grover.KEPT_HIT_BYTES``): a float
# and its list slot per entry; per table, its list with spare slots, its
# key, and the store's slot, size and heap entry for it (180-215 B traced
# at n = 16384 and 2^20, rounded up).
_ENTRY_BYTES = 32
_TABLE_BYTES = 256


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


def _grow(n: int, t: int, probs: list[float], high: int) -> None:
    """Extend ``probs``, the hit table of (n, t), to its first ``high`` entries.

    Entry j is sin^2((2j+1) theta) with theta = ``rotation_angle(n, t)``,
    the probability that a round of j iterations hits.  The counts are
    checked before anything is stored, and the table is stored and counted
    whole in the store of n before its new entries are computed; its
    search reads it even if the store evicts it.
    """
    theta = rotation_angle(n, t)
    _hit_tables(n).grow(t, probs, _TABLE_BYTES + high * _ENTRY_BYTES)
    sin = math.sin
    for j in range(len(probs), high):
        probs.append(sin((2 * j + 1) * theta) ** 2)


def search(
    n: int, t: int, budget: float, growth: float, rng, backend: Backend = Backend.ANALYTIC_SAMPLER
) -> tuple[int, bool, int]:
    """Hunt for one of t marked indices of n within ``budget`` time steps.

    Returns ``(iterations_used, interrupted, index)``.  The marked indices
    are 0..t-1, so the search hit exactly when ``index < t``.  ``growth``
    must lie strictly in (1, 4/3) (see ``check_growth``).  On the exact
    ``backend`` ``index`` is the last position measured; on the analytic
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
        index = rng.randrange(t, n) if analytic else grover.ladder(n, t).measure(0, rng)
        return (int(budget) if n >= 2 else 0), True, index
    growing, saturated = _round_schedule(n, growth)
    if analytic:
        # The stored table of t, or a new one that its first round
        # stores; a stored table is never empty.
        probs = _hit_tables(n).get(t) or []
        depth = len(probs)
    else:
        # The CDFs the stored ladder holds, read in place; only ``extend``
        # grows them.
        ladder = grover.ladder(n, t)
        cdfs = ladder._cdfs
        depth = len(cdfs)
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
        if analytic:
            # The table is read inline, with no call per round (a call
            # per round made the analytic loop take about 15% longer); it
            # grows only when j is past its end, and then to this round's
            # cap.  With every index marked the probability is exactly 1,
            # so no search ends on a miss whose unmarked position could not
            # be drawn.
            if j >= depth:
                _grow(n, t, probs, high)
                depth = high
            hit = uniform() < probs[j]
        else:
            # ``GroverLadder.measure`` inline: a stored state is read with
            # no call (calling ``measure`` and ``cdf`` every round made
            # exact runs at n = 1024 about 8% slower), and a new one is
            # grown by ``extend`` to j alone, which counts its bytes in
            # the store first.  Then the one uniform draw, bisected on the
            # right as ``measure`` does.
            if j < depth:
                cdf = cdfs[j]
            else:
                cdf = extend(ladder, j)
                depth = len(cdfs)
            index = bisect_right(cdf, uniform() * cdf[-1])
            hit = index < t
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
    return used, interrupted, index
