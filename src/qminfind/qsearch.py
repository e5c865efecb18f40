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
  sin^2((2j+1) arcsin(sqrt(t/N))) and draws a uniform index within the
  success or failure class; it needs the classical marked count instead of
  the statevector and runs in O(1) per round, independent of N.  A miss
  index is uniform over the unmarked set whatever the rounds did, so it is
  drawn once, when a search ends on a miss, rather than every miss round.

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
from functools import cached_property

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
    statevector = backend is Backend.EXACT_STATEVECTOR
    if statevector:
        # Every round starts from the uniform state under the same oracle,
        # so the oracle's ladder computes the state after j iterations once.
        ladder = oracle.ladder
        nothing_marked = not ladder.mask.any()
    else:
        # The marked count, and with it the rotation angle, stays fixed for
        # the whole search; each round then costs one sine.
        t = oracle.marked_count
        theta = rotation_angle(n, t)
        nothing_marked = t == 0
    if nothing_marked and n >= 2:
        if budget == math.inf:
            raise ValueError("a search with nothing marked never ends without a finite budget")
        # Every round misses, and the rounds end exactly when their integer
        # iteration counts have spent the budget down to its floor, the last
        # one truncated if need be.
        index = sample(ladder.cdf(0), rng) if statevector else oracle.sample_unmarked(rng)
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
        if statevector:
            idx = sample(ladder.cdf(j), rng)
            hit = bool(ladder.mask[idx])
        else:
            # A miss draws no index here; one is drawn if the search ends
            # on it.  With every index marked the success probability is
            # exactly 1, so no miss index is ever drawn; the oracle would
            # raise.
            hit = t > 0 and rng.random() < math.sin((2 * j + 1) * theta) ** 2
            idx = oracle.sample_marked(rng) if hit else None
        remaining -= j
        used += j
        if hit:
            return SearchOutcome(index=idx, iterations_used=used, interrupted=truncated)
        # A miss ends the search when its round was truncated, when the
        # budget is spent, or on a degenerate domain (sqrt(N) <= 1): there
        # every draw is j = 0, so the budget can never be consumed.
        if truncated or remaining <= 0 or (high == 1 and m >= m_cap):
            if idx is None:
                idx = oracle.sample_unmarked(rng)
            return SearchOutcome(index=idx, iterations_used=used, interrupted=True)
        m = min(params.growth * m, m_cap)
