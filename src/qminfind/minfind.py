"""Threshold-descent minimum finding around the exponential search.

One loop: pick a threshold index uniformly at random, then repeatedly
initialize (lg N time steps), search for an index holding a strictly
smaller value (one time step per iteration), observe, and move the
threshold to the observed index when it improves, until the step cap runs
out.  The caller passes the cap; at the paper's 22.5*sqrt(N) + 1.4*lg^2(N)
steps (computed in ``bounds``) the run returns an index of the minimum
value with probability at least 1/2.

Every run keeps its threshold history, one ``(time, index)`` pair for the
start and for each accepted move, and the time its threshold first held a
minimal value: the last entry's time when that entry holds one, since
nothing is marked below a minimal value, so no move follows it.  An
infinite cap gives the uncapped run used for cost and rank-selection
analysis, which stops the moment the threshold holds a minimal value: that
check compares against the known table minimum, which is the analyst's
clock, not something the algorithm itself could do.  Without it an
infinite cap would never stop, since a search with nothing marked never
ends on its own.

Classical bookkeeping (choosing the start index, comparisons, the final
return) is free; only initializations and search iterations are charged.
The loop keeps that whole account itself as two integers, its passes and
its search iterations, and builds the one ``RunResult``: ``total_spent``
is passes * lg N + ``search_steps``.  ``init_charge`` is the one place the
lg N charge is computed, so a fold that turns summed passes back into time
uses the charge the runs paid.  A cap of zero or
less skips the loop.  A one-entry table is no special case: lg 1 = 0, so
its passes cost nothing, and with a finite positive cap it makes one pass,
whose one round draws j = 0 and ends the search; the harness gives it a cap
of 0 (``ExperimentConfig.cap``), so there it makes none.

Every pass makes one ``search`` call with t = rank(y) - 1 marked: the
entries strictly smaller than T[y] (so y itself is never marked, and an
all-duplicates table has nothing marked).  A run reads only the ranks of
its table in value order (``table.sorted_table``), so on both backends the
t marked entries are positions 0..t-1, and the start, every threshold and
the returned index are positions in value order.  A pass hands the search
its backend, and the search takes the per-(N, t) table that backend reads
from ``grover``'s stores.  A returned position below t is a smaller entry,
so the threshold moves to it; a miss draws its unmarked position all the
same, since it is part of the run's stream (a boosted experiment runs
several runs on one stream).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qsearch import Backend, search

__all__ = [
    "RunResult",
    "find_minimum",
    "init_charge",
    "INIT_CHARGE_POLICY",
]

# A final pass interrupted before any search iteration still pays for the
# initialization it performed; passes never start once the cap is exceeded.
INIT_CHARGE_POLICY = "charge-init-when-performed"


# Not frozen: a frozen init sets each field through ``object.__setattr__``,
# which more than doubles the cost of building the one result of every run.
# Nothing mutates a ``RunResult``.
@dataclass(slots=True)
class RunResult:
    """Outcome of one algorithm run.

    ``first_hit_time`` is the time step at which the threshold first held a
    minimal value; it is None only when a capped run never got there, or
    for a boosted result (``harness._run``), which has no single history.
    ``total_spent`` counts lg N per pass plus all search iterations, of
    which there are ``search_steps`` (an exact integer count).
    ``history`` lists the ``(time, threshold position)`` of the start and
    of every accepted move, positions in value order like ``returned_index``.
    """

    returned_index: int
    returned_is_minimum: bool
    first_hit_time: float | None
    total_spent: float
    loop_passes: int
    search_steps: int
    history: list[tuple[float, int]] | None = field(compare=False)


def init_charge(n: int) -> float:
    """The lg N time steps one initialization over a table of n entries costs."""
    return math.log2(n)


def find_minimum(
    ranks: np.ndarray, backend: Backend, growth: float, cap: float, rng
) -> RunResult:
    """One run over a table's ``ranks`` in value order, under a step cap of
    ``cap`` time steps, its searches at ``growth``.

    A zero (or negative) cap returns the uniformly random start index
    unexamined, which makes a handy 1/N null baseline.  An infinite cap
    (``math.inf``) is the uncapped run: it stops once the threshold holds a
    minimal value, so ``first_hit_time == total_spent``.  Termination is
    sure because every accepted move strictly lowers the threshold value.
    On a one-entry table a finite positive cap buys one pass that costs 0
    steps: lg 1 = 0, and its one round draws j = 0.
    """
    n = len(ranks)
    y = rng.randrange(n)
    uncapped = cap == math.inf

    # ``item`` reads a Python int, not a numpy scalar that would need
    # converting.  Entries strictly below the threshold: the ones its
    # search marks.
    rank_of = ranks.item
    t = rank_of(y) - 1
    history = [(0.0, y)]
    # The account is two integers, (passes, steps); the time spent,
    # passes * lg N + steps, is computed from them where it is compared with
    # the cap and where a move is recorded.  It can end above ``cap`` by at
    # most one initialization, since the cap is only noticed once crossed;
    # iterations are truncated at it.
    lg_n = init_charge(n)
    spent, passes, steps = 0.0, 0, 0
    while cap > 0.0 and not (uncapped and t == 0):
        passes += 1
        spent = passes * lg_n + steps
        # max(0.0, cap - spent) without the builtin call, which costs as
        # much as the rest of this bookkeeping.
        remaining = cap - spent if spent < cap else 0.0
        used, interrupted, index = search(n, t, remaining, growth, rng, backend)
        steps += used
        spent = passes * lg_n + steps
        if index < t:
            # The paper's check that the observed entry is smaller: positions
            # 0..t-1 hold the entries below the threshold.
            y = index
            t = rank_of(y) - 1
            history.append((spent, y))
        if interrupted or spent > cap:
            break
    # Nothing is marked below a minimal value, so no move follows the one
    # that reached it: the last move's time is the first hit's.
    first_hit = history[-1][0] if t == 0 else None
    # Positional: keywords cost every run a few tenths of a microsecond.
    return RunResult(y, t == 0, first_hit, spent, passes, steps, history)

