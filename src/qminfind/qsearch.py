"""Search for a marked index when the number of marked items is unknown.

The strategy (Boyer, Brassard, Hoyer and Tapp's exponential search): run
the amplitude-amplification iteration a random number of times j, drawn
uniformly below a cap m that grows geometrically after each failed
measurement (growth factor strictly between 1 and 4/3, capped at
sqrt(N)).  With t >= 1 marked items out of N this finds one of them, each
with equal probability, in an expected O(sqrt(N/t)) iterations; with t = 0
it would run forever, so a time-step budget bounds it from outside.

One loop, ``_search``, runs the rounds of both backends over the counts N
and t: the caps ceil(m) (computed once per (N, growth) by
``_round_schedule``), the j draw, truncation to the budget and the stop
rule.  The backends differ only in how a round is measured:

* ``ANALYTIC_SAMPLER`` declares success with the closed-form probability
  sin^2((2j+1) arcsin(sqrt(t/N))) in O(1) per round, independent of N, and
  draws no index: the index is uniform within the success or failure class
  whatever the rounds did, so the caller draws one when the search ends.
  ``exponential_search`` draws it from the oracle; ``find_minimum`` draws a
  sorted-order position and builds no oracle.
* ``EXACT_STATEVECTOR`` measures the state after j iterations, read from
  the oracle's ``ladder``: one ``GroverLadder``, built on first use and
  kept for every search the oracle serves.  Every round starts from the
  uniform state, so each iteration is computed once per oracle; each is
  still charged one time step, as in every round.

With nothing marked (t = 0, N >= 2) every round misses with certainty and
the rounds spend a finite budget down to its floor, so the loop settles
such a search in closed form without rounds; the caller then draws one
index (the exact backend measures the uniform state, which no iteration
moves; the analytic one draws an unmarked index).

Each search consumes one random stream and one budget; concurrent searches
need disjoint streams.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat

import numpy as np

from .grover import GroverLadder, rotation_angle, sample

__all__ = [
    "Backend",
    "SearchParams",
    "SearchOutcome",
    "Oracle",
    "exponential_search",
]

DEFAULT_GROWTH = 8.0 / 7.0


class Backend(enum.Enum):
    """Which machinery realizes one search round."""

    EXACT_STATEVECTOR = "exact"
    ANALYTIC_SAMPLER = "analytic"


@dataclass(frozen=True)
class SearchParams:
    """Knob of the iteration-count schedule.

    ``growth`` multiplies the cap m after each failed round and must stay
    strictly inside (1, 4/3) for the expected-iteration bound to hold; m
    starts at 1 and is clamped to sqrt(N).  The iteration count of a round
    is uniform on {0, ..., ceil(m)-1}.
    """

    growth: float = DEFAULT_GROWTH

    def __post_init__(self):
        if not 1.0 < self.growth < 4.0 / 3.0:
            raise ValueError(f"growth factor must lie strictly in (1, 4/3), got {self.growth}")


@dataclass(frozen=True)
class SearchOutcome:
    """Measured index plus the iteration cost actually paid.

    ``interrupted`` is False only when the search ended on its own terms,
    in which case the index is marked whenever any marked index exists.
    Each iteration counts as one time step.
    """

    index: int
    iterations_used: int
    interrupted: bool


class Oracle:
    """Marks the indices 0..n-1 where a boolean mask is True.

    The mask is copied and kept read-only.  The exact backend reads the
    oracle through ``ladder``, which shares that mask; the analytic one
    through ``marked_count`` and the ``sample_*`` draws, which pick
    uniformly among the marked or unmarked indices taken in index order.
    Equivalence cells mark ``np.arange(n) < t``; an exact pass of
    ``find_minimum`` marks the entries strictly below its threshold's value.
    """

    def __init__(self, mask):
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 1 or len(mask) < 1:
            raise ValueError("oracle domain must have size >= 1")
        mask.setflags(write=False)
        self.mask = mask
        self.n = len(mask)
        self.marked_count = int(np.count_nonzero(mask))

    def is_marked(self, indices: np.ndarray) -> np.ndarray:
        return self.mask[np.asarray(indices)]

    @cached_property
    def ladder(self) -> GroverLadder:
        """The exact backend's states, built on first use and kept by the oracle."""
        return GroverLadder(self.mask)

    def sample_marked(self, rng) -> int:
        return self._sample(True, rng)

    def sample_unmarked(self, rng) -> int:
        return self._sample(False, rng)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The unmarked and the marked indices, each in index order."""
        return np.flatnonzero(~self.mask), np.flatnonzero(self.mask)

    def _sample(self, marked: bool, rng) -> int:
        indices = self._classes[marked]
        if len(indices) == 0:
            raise ValueError("no marked indices" if marked else "every index is marked")
        return int(indices[rng.randrange(len(indices))])


@lru_cache(maxsize=64)
def _round_schedule(n: int, growth: float) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """The caps of a search's rounds over a domain of n, with their bit lengths.

    Returns the ``(ceil(m), bit length)`` pairs of the rounds whose cap m is
    still growing (m < sqrt(N)), then the pair of the saturated cap that
    every later round uses.  They come from the float recurrence
    ``m = min(growth * m, sqrt(N))`` from m = 1; no other code steps it.
    The cache is keyed on the growth float, not on the frozen
    ``SearchParams``, whose generated ``__hash__`` and ``__eq__`` would cost
    every search a few tenths of a microsecond more.
    """
    m_cap = math.sqrt(n)
    m = 1.0
    growing = []
    while m < m_cap:
        high = math.ceil(m)
        growing.append((high, high.bit_length()))
        m = min(growth * m, m_cap)
    high = math.ceil(m_cap)
    return tuple(growing), (high, high.bit_length())


def _search(
    n: int, t: int, budget: float, params: SearchParams, rng, measure=None
) -> tuple[bool, int, bool]:
    """The rounds of one search with t of n marked: ``(hit, iterations_used, interrupted)``.

    A round's j is drawn as ``randrange(high)`` draws it (``getrandbits`` of
    the cap's bit length until the value is below the cap), so the stream
    advances exactly as it would under ``randrange``.  ``measure(j)``
    measures a round of j iterations and says whether it hit; without it
    the round hits with probability sin^2((2j+1) theta).
    """
    if t == 0 and n >= 2:
        if budget == math.inf:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be.
        return False, int(budget), True
    growing, saturated = _round_schedule(n, params.growth)
    theta = rotation_angle(n, t)
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
        if measure is None:
            # Inline, not a per-round callable: a call per round makes the
            # analytic loop take about 15% longer.  t = 0 here only on a
            # one-index domain.  With every index marked the probability
            # is exactly 1, so no search ends on a miss whose unmarked index
            # could not be drawn.
            hit = t > 0 and uniform() < sin((2 * j + 1) * theta) ** 2
        else:
            hit = measure(j)
        remaining -= j
        used += j
        if hit:
            return True, used, truncated
        # A miss ends the search when its round was truncated, when the
        # budget is spent, or on a one-index domain: there every draw is
        # j = 0, so the budget can never be consumed.
        if truncated or remaining <= 0 or n == 1:
            return False, used, True


def exponential_search(
    oracle: Oracle, params: SearchParams, budget: float, backend: Backend, rng
) -> SearchOutcome:
    """Hunt for a marked index within ``budget`` time steps.

    Rounds draw j uniformly below the growing cap; a draw the budget cannot
    cover is truncated to the affordable count, the (partially rotated)
    state is still measured, and the outcome comes back ``interrupted``.
    Running out of budget is a normal outcome, not an error; with nothing
    marked the search always ends that way, consuming the whole budget
    (its floor), so an infinite budget with nothing marked is rejected
    unless the domain has a single index.
    """
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n, t = oracle.n, oracle.marked_count
    if backend is Backend.ANALYTIC_SAMPLER:
        hit, used, interrupted = _search(n, t, budget, params, rng)
        # The search draws no index; one is drawn in the class it ended in.
        index = oracle.sample_marked(rng) if hit else oracle.sample_unmarked(rng)
        return SearchOutcome(index=index, iterations_used=used, interrupted=interrupted)
    ladder = oracle.ladder
    index = None

    def measure(j: int) -> bool:
        nonlocal index
        index = sample(ladder.cdf(j), rng)
        return bool(ladder.mask[index])

    hit, used, interrupted = _search(n, t, budget, params, rng, measure)
    if index is None:
        # Settled in closed form: the state is still uniform.
        index = sample(ladder.cdf(0), rng)
    return SearchOutcome(index=index, iterations_used=used, interrupted=interrupted)
