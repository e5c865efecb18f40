"""Search for a marked index when the number of marked items is unknown.

The strategy: run the amplitude-amplification iteration a random number of
times j, drawn uniformly below a cap m that grows geometrically after each
failed measurement (growth factor strictly between 1 and 4/3, capped at
sqrt(N)).  With t >= 1 marked items out of N this finds one of them, each
with equal probability, in an expected O(sqrt(N/t)) iterations; with t = 0
it would run forever, so a time-step budget bounds it from outside.

Two interchangeable backends produce identical outcome distributions:

* ``EXACT_STATEVECTOR`` evolves the dense amplitude vector and measures it;
  it sees the oracle only through its ``ladder``, one ``GroverLadder`` that
  the oracle builds on first use and keeps for every search it serves.
  Every round starts from the uniform state, so each iteration is computed
  once per oracle and a round of j iterations measures the cached state for
  its j.  Each iteration is still charged one time step, as in every round.
* ``ANALYTIC_SAMPLER`` declares success with the closed-form probability
  sin^2((2j+1) arcsin(sqrt(t/N))); it needs only the counts N and t, not
  the statevector, and runs in O(1) per round, independent of N.  Its
  rounds are one loop over those counts (``_analytic_search``), whose caps
  ceil(m) are computed once per (N, params), and it draws no index: the
  index is uniform within the success or failure class whatever the rounds
  did, so the caller draws one when the search ends.  ``exponential_search``
  draws it from the oracle; ``find_minimum`` draws a sorted-order position
  and builds no oracle.

With nothing marked (t = 0, N >= 2) every round misses with certainty and
the rounds spend a finite budget down to its floor, so both backends settle
such a search in closed form with one index draw and no rounds: the exact
backend measures the uniform state (no iteration moves it), the analytic
one draws an unmarked index.

Each search consumes one random stream and one budget; concurrent searches
need disjoint streams.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, repeat

import numpy as np

from .grover import GroverLadder, rotation_angle, sample

__all__ = [
    "Backend",
    "SearchParams",
    "SearchOutcome",
    "FixedSetOracle",
    "exponential_search",
]

DEFAULT_GROWTH = 8.0 / 7.0


class Backend(enum.Enum):
    """Which machinery realizes one search round."""

    EXACT_STATEVECTOR = "exact"
    ANALYTIC_SAMPLER = "analytic"


@dataclass(frozen=True)
class SearchParams:
    """Knobs of the iteration-count schedule.

    ``growth`` multiplies the cap m after each failed round and must stay
    strictly inside (1, 4/3) for the expected-iteration bound to hold; m
    starts at ``m_init`` and is clamped to sqrt(N).  The iteration count of
    a round is uniform on {0, ..., ceil(m)-1}.
    """

    growth: float = DEFAULT_GROWTH
    m_init: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.growth < 4.0 / 3.0:
            raise ValueError(f"growth factor must lie strictly in (1, 4/3), got {self.growth}")
        if self.m_init < 1.0:
            raise ValueError("initial cap must be >= 1")


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


@dataclass(frozen=True)
class FixedSetOracle:
    """Oracle over 0..n-1 with an explicit marked index set.

    Mirrors the oracle surface of the threshold oracle (predicate and
    ladder for the exact backend; count and class sampling for the analytic
    one), which lets experiments pin (n, t) cells directly.
    """

    n: int
    marked: tuple[int, ...]
    _marked_arr: np.ndarray | None = field(default=None, repr=False, compare=False)
    _unmarked_arr: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("oracle domain must have size >= 1")
        marked = tuple(sorted(set(int(i) for i in self.marked)))
        if marked and not (0 <= marked[0] and marked[-1] < self.n):
            raise ValueError("marked indices outside oracle domain")
        object.__setattr__(self, "marked", marked)
        marked_arr = np.asarray(marked, dtype=np.int64)
        unmarked_arr = np.setdiff1d(np.arange(self.n, dtype=np.int64), marked_arr)
        object.__setattr__(self, "_marked_arr", marked_arr)
        object.__setattr__(self, "_unmarked_arr", unmarked_arr)

    @property
    def marked_count(self) -> int:
        return len(self.marked)

    def is_marked(self, indices: np.ndarray) -> np.ndarray:
        return np.isin(np.asarray(indices), self._marked_arr)

    @cached_property
    def ladder(self) -> GroverLadder:
        """The exact backend's states, built on first use and kept by the oracle."""
        return GroverLadder(self.is_marked, self.n)

    def sample_marked(self, rng) -> int:
        if not self.marked:
            raise ValueError("no marked indices")
        return int(self._marked_arr[rng.randrange(len(self.marked))])

    def sample_unmarked(self, rng) -> int:
        free = self.n - len(self.marked)
        if free == 0:
            raise ValueError("every index is marked")
        return int(self._unmarked_arr[rng.randrange(free)])


@lru_cache(maxsize=64)
def _round_schedule(n: int, params: SearchParams) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """The caps of a search's rounds over a domain of n, with their bit lengths.

    Returns the ``(ceil(m), bit length)`` pairs of the rounds whose cap m is
    still growing (m < sqrt(N)), then the pair of the saturated cap that
    every later round uses.  They come from the float recurrence
    ``m = min(growth * m, sqrt(N))`` that the exact backend steps round by
    round, so both backends see the same caps.
    """
    m_cap = math.sqrt(n)
    m = min(params.m_init, m_cap)
    growing = []
    while m < m_cap:
        high = math.ceil(m)
        growing.append((high, high.bit_length()))
        m = min(params.growth * m, m_cap)
    high = math.ceil(m_cap)
    return tuple(growing), (high, high.bit_length())


def _analytic_search(n: int, t: int, budget: float, params: SearchParams, rng) -> tuple[bool, int, bool]:
    """The analytic backend's search with t of n marked: ``(hit, iterations_used, interrupted)``.

    Each round hits with probability sin^2((2j+1) theta); the caller draws
    the index within the class the search ended in.  A round's j is drawn
    as ``randrange(high)`` draws it (``getrandbits`` of the cap's bit length
    until the value is below the cap), so the stream advances exactly as it
    would under ``randrange``.
    """
    if t == 0 and n >= 2:
        if budget == math.inf:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be.
        return False, int(budget), True
    growing, saturated = _round_schedule(n, params)
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
        # t = 0 here only on a one-index domain.  With every index marked
        # the success probability is exactly 1, so no search ends on a miss
        # whose unmarked index could not be drawn.
        hit = t > 0 and uniform() < sin((2 * j + 1) * theta) ** 2
        remaining -= j
        used += j
        if hit:
            return True, used, truncated
        # A miss ends the search when its round was truncated, when the
        # budget is spent, or on a one-index domain: there every draw is
        # j = 0, so the budget can never be consumed.
        if truncated or remaining <= 0 or n == 1:
            return False, used, True


def exponential_search(oracle, params: SearchParams, budget: float, backend: Backend, rng) -> SearchOutcome:
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
    n = oracle.n
    if backend is Backend.ANALYTIC_SAMPLER:
        hit, used, interrupted = _analytic_search(n, oracle.marked_count, budget, params, rng)
        # The search draws no index; one is drawn in the class it ended in.
        index = oracle.sample_marked(rng) if hit else oracle.sample_unmarked(rng)
        return SearchOutcome(index=index, iterations_used=used, interrupted=interrupted)
    # Every round starts from the uniform state under the same oracle,
    # so the oracle's ladder computes the state after j iterations once.
    ladder = oracle.ladder
    nothing_marked = not ladder.mask.any()
    if nothing_marked and n >= 2:
        if budget == math.inf:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be.
        index = sample(ladder.cdf(0), rng)
        return SearchOutcome(index=index, iterations_used=int(budget), interrupted=True)
    m_cap = math.sqrt(n)
    m = min(params.m_init, m_cap)
    remaining = budget
    used = 0
    while True:
        high = math.ceil(m)
        j = rng.randrange(high) if high > 1 else 0
        truncated = j > remaining
        if truncated:
            j = int(remaining)
        idx = sample(ladder.cdf(j), rng)
        hit = bool(ladder.mask[idx])
        remaining -= j
        used += j
        if hit:
            return SearchOutcome(index=idx, iterations_used=used, interrupted=truncated)
        # A miss ends the search when its round was truncated, when the
        # budget is spent, or on a degenerate domain (sqrt(N) <= 1): there
        # every draw is j = 0, so the budget can never be consumed.
        if truncated or remaining <= 0 or (high == 1 and m >= m_cap):
            return SearchOutcome(index=idx, iterations_used=used, interrupted=True)
        m = min(params.growth * m, m_cap)
