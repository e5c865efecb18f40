"""Threshold-descent minimum finding around the exponential search.

One loop: pick a threshold index uniformly at random, then repeatedly
initialize (lg N time steps), search for an index holding a strictly
smaller value (one time step per iteration), observe, and move the
threshold to the observed index when it improves, until the step cap runs
out.  With the default cap of 22.5*sqrt(N) + 1.4*lg^2(N) steps the run
returns an index of the minimum value with probability at least 1/2.

An infinite cap gives the uncapped run used for cost and rank-selection
analysis.  It records the threshold history and stops the moment the
threshold holds a minimal value: that check compares against the known
table minimum, which is the analyst's clock, not something the algorithm
itself could do.  Without it an infinite cap would never stop, since a
search with nothing marked never ends on its own.

Classical bookkeeping (choosing the start index, comparisons, the final
return) is free; only initializations and search iterations are charged.

An exact pass builds the threshold's oracle, which marks the entries
strictly smaller than T[y] (so y itself is never marked, and an
all-duplicates table has nothing marked), and runs its statevector
search.  An analytic pass works in rank space and builds no oracle: the
marked count is t = rank(y) - 1, the t marked entries are the first t of
the table's sorted order, and the search's rounds need nothing else.  A hit
moves the threshold to a uniform one of those t entries, which always
improves it; a miss draws its unmarked index all the same, since it is
part of the run's stream (repeat boosting runs several runs on one stream).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bounds import timeout_cap
from .qsearch import Backend, Oracle, SearchParams, _search, exponential_search
from .table import Table

__all__ = [
    "CostLedger",
    "RunResult",
    "find_minimum",
    "find_minimum_boosted",
    "INIT_CHARGE_POLICY",
]

# A final pass interrupted before any search iteration still pays for the
# initialization it performed; passes never start once the cap is exceeded.
INIT_CHARGE_POLICY = "charge-init-when-performed"


@dataclass
class CostLedger:
    """Time-step account: lg N per initialization, 1 per search iteration.

    ``spent`` can end up above ``cap`` by at most one initialization charge,
    because the cap is only noticed once crossed; search iterations
    themselves are truncated at the cap.
    """

    cap: float
    spent: float = 0.0
    init_charges: int = 0
    iteration_charges: int = 0

    def charge_init(self, n: int) -> None:
        self.spent += math.log2(n)
        self.init_charges += 1

    def charge_iterations(self, count: int) -> None:
        self.spent += count
        self.iteration_charges += count

    @property
    def remaining(self) -> float:
        return max(0.0, self.cap - self.spent)

    @property
    def exceeded(self) -> bool:
        return self.spent > self.cap


@dataclass(frozen=True)
class RunResult:
    """Outcome of one algorithm run.

    ``first_hit_time`` is the time step at which the threshold first held a
    minimal value (None when unknown because history was off, or when the
    capped run never got there).  ``total_spent`` counts lg N per pass plus
    all search iterations; ``cap`` is the step cap the run used (0 for a
    one-entry table, which needs no step).
    """

    returned_index: int
    returned_is_minimum: bool
    first_hit_time: float | None
    total_spent: float
    loop_passes: int
    cap: float
    history: list[tuple[float, int]] | None = field(default=None, compare=False)


def _immediate_result(
    table: Table, y: int, cap: float, record_history: bool, known_hit: bool
) -> RunResult:
    is_min = table.is_minimum(y)
    history = [(0.0, y)] if record_history else None
    first_hit = 0.0 if (record_history or known_hit) and is_min else None
    return RunResult(
        returned_index=y,
        returned_is_minimum=is_min,
        first_hit_time=first_hit,
        total_spent=0.0,
        loop_passes=0,
        cap=cap,
        history=history,
    )


def find_minimum(
    table: Table,
    backend: Backend = Backend.ANALYTIC_SAMPLER,
    params: SearchParams | None = None,
    timeout_override: float | None = None,
    rng=None,
    record_history: bool = False,
) -> RunResult:
    """One run; the default cap is 22.5*sqrt(N) + 1.4*lg^2(N) steps.

    A zero (or negative) cap returns the uniformly random start index
    unexamined, which makes a handy 1/N null baseline.  An infinite cap
    (``math.inf``) is the uncapped run: history is always recorded and the
    run stops once the threshold holds a minimal value, so
    ``first_hit_time == total_spent``.  Termination is sure because every
    accepted move strictly lowers the threshold value.
    """
    params = params or SearchParams()
    n = len(table)
    uncapped = timeout_override == math.inf
    record_history = record_history or uncapped
    if n == 1:
        return _immediate_result(table, 0, 0.0, record_history, known_hit=True)
    cap = timeout_cap(n) if timeout_override is None else float(timeout_override)
    y = rng.randrange(n)
    if cap <= 0.0:
        return _immediate_result(table, y, cap, record_history, known_hit=False)

    history = [(0.0, y)] if record_history else None
    ledger = CostLedger(cap=cap)
    analytic = backend is Backend.ANALYTIC_SAMPLER
    order, ranks = table.order, table.ranks
    # Entries strictly below the threshold: the marked count of its oracle.
    t = int(ranks[y]) - 1
    first_hit = 0.0 if record_history and t == 0 else None
    while not (uncapped and first_hit is not None):
        ledger.charge_init(n)
        if analytic:
            # A hit always improves the threshold; a miss still draws its
            # unmarked index, since later runs may share the stream.
            improved, used, interrupted = _search(n, t, ledger.remaining, params, rng)
            if improved:
                y = int(order[rng.randrange(t)])
            else:
                rng.randrange(t, n)
        else:
            oracle = Oracle(table.values < table.values[y])
            outcome = exponential_search(oracle, params, ledger.remaining, backend, rng)
            used, interrupted = outcome.iterations_used, outcome.interrupted
            improved = bool(oracle.mask[outcome.index])
            if improved:
                y = outcome.index
        ledger.charge_iterations(used)
        if improved:
            t = int(ranks[y]) - 1
            if record_history:
                history.append((ledger.spent, y))
                if first_hit is None and t == 0:
                    first_hit = ledger.spent
        if interrupted or ledger.exceeded:
            break
    return RunResult(
        returned_index=y,
        returned_is_minimum=t == 0,
        first_hit_time=first_hit,
        total_spent=ledger.spent,
        loop_passes=ledger.init_charges,
        cap=cap,
        history=history,
    )


def find_minimum_boosted(
    table: Table,
    backend: Backend = Backend.ANALYTIC_SAMPLER,
    params: SearchParams | None = None,
    c: int = 1,
    rng=None,
    strategy: str = "repeat",
) -> RunResult:
    """Push the success probability to at least 1 - 1/2^c.

    strategy="repeat" runs the capped algorithm c times and keeps the
    outcome with the smallest value; strategy="extend" performs a single
    run whose cap is c times the default (it reuses what earlier passes
    already learned, so it can only do better).
    """
    if c < 1:
        raise ValueError("boost count must be >= 1")
    params = params or SearchParams()
    n = len(table)
    if strategy == "extend":
        cap = None if n == 1 else c * timeout_cap(n)
        return find_minimum(table, backend, params, timeout_override=cap, rng=rng)
    if strategy != "repeat":
        raise ValueError(f"unknown boost strategy {strategy!r}")
    best: RunResult | None = None
    total_spent = 0.0
    total_passes = 0
    for _ in range(c):
        result = find_minimum(table, backend, params, rng=rng)
        total_spent += result.total_spent
        total_passes += result.loop_passes
        if best is None or table.values[result.returned_index] < table.values[best.returned_index]:
            best = result
    return RunResult(
        returned_index=best.returned_index,
        returned_is_minimum=best.returned_is_minimum,
        first_hit_time=None,
        total_spent=total_spent,
        loop_passes=total_passes,
        cap=best.cap,
        history=None,
    )
