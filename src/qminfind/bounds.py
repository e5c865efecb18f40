"""Closed forms for every cost bound the experiments compare against.

All quantities are in time steps (lg N per initialization, 1 per search
iteration) and use the real-valued binary logarithm, also for sizes that
are not powers of two.  The two headline expressions:

* expected cost of the uncapped run until the threshold holds the minimum:
  at most (45/4) sqrt(n) + (7/10) lg^2(n);
* the run cap, exactly twice that, 22.5 sqrt(n) + 1.4 lg^2(n), which by
  Markov's inequality leaves success probability at least 1/2.

The sweep helpers re-verify, in double precision, the two inequality
steps behind the first expression over a range of sizes: an exact finite
sum against its integral bound, and a bound on H_n, a direct sum at every n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "expected_cost_bound",
    "timeout_cap",
    "search_iterations_bound",
    "harmonic_number",
    "expected_search_cost_bound",
    "sweep_search_cost_bound",
    "sweep_harmonic_bound",
    "SweepResult",
]


def _require_size(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"size must be >= {minimum}, got {n}")


def expected_cost_bound(n: int) -> float:
    """Upper bound on the uncapped run's expected total time, in steps.

    (45/4) sqrt(n) + (7/10) lg^2(n); e.g. 430 at n=1024.
    """
    _require_size(n, 2)
    return 11.25 * math.sqrt(n) + 0.7 * math.log2(n) ** 2


def timeout_cap(n: int) -> float:
    """Default run cap 22.5 sqrt(n) + 1.4 lg^2(n) (22.5 at n = 1); twice ``expected_cost_bound``."""
    _require_size(n, 1)
    return 22.5 * math.sqrt(n) + 1.4 * math.log2(n) ** 2


def search_iterations_bound(n: int, t: int) -> float:
    """Expected-iteration bound 4.5 sqrt(n/t) for one search with t marked items.

    With nothing marked the search never ends on its own; that case is
    signaled as ``inf`` rather than a number.
    """
    _require_size(n, 1)
    if t < 0 or t > n:
        raise ValueError(f"marked count t={t} outside [0, {n}]")
    if t == 0:
        return math.inf
    return 4.5 * math.sqrt(n / t)


def harmonic_number(n: int) -> float:
    """H_n = sum of 1/k for k=1..n, summed in chunks of 10^6 terms (0.13 s at n = 2^24)."""
    _require_size(n, 1)
    total = 0.0
    chunk = 10**6
    for start in range(1, n + 1, chunk):
        stop = min(n, start + chunk - 1)
        total += float(np.sum(1.0 / np.arange(start, stop + 1, dtype=np.float64)))
    return total


def expected_search_cost_bound(n: int) -> float:
    """Exact finite sum bounding the expected search-iteration total.

    4.5 sqrt(n) * sum_{r=1}^{n-1} 1 / ((r+1) sqrt(r)): the per-threshold
    iteration bound weighted by the 1/rank selection probabilities.  The
    integral comparison keeps it below (45/4) sqrt(n) for every n.
    """
    _require_size(n, 2)
    return 4.5 * math.sqrt(n) * float(np.sum(_search_cost_terms(n)))


# The sums and sweeps compute in place, with ``out=`` ufuncs, so each holds
# at most two float arrays of its length (about 270 MB at 2^24).


def _search_cost_terms(n: int) -> np.ndarray:
    """1 / ((r + 1) sqrt(r)) for r = 1..n-1."""
    r = np.arange(1, n, dtype=np.float64)
    terms = np.sqrt(r)
    r += 1.0
    np.multiply(r, terms, out=terms)
    return np.divide(1.0, terms, out=terms)


@dataclass(frozen=True)
class SweepResult:
    """Worst case found while checking an inequality over n = 2..n_max."""

    ok: bool
    worst_n: int
    worst_ratio: float  # max of lhs/rhs; <= 1 when the inequality holds


def _worst(ratios: np.ndarray) -> SweepResult:
    # Entry k of a sweep's ratios is the one for n = k + 2.
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return SweepResult(ok=worst_ratio <= 1.0, worst_n=worst + 2, worst_ratio=worst_ratio)


def sweep_search_cost_bound(n_max: int) -> SweepResult:
    """Check expected_search_cost_bound(n) <= (45/4) sqrt(n) for n = 2..n_max."""
    _require_size(n_max, 2)
    # Partial sums of the terms; sqrt(n) cancels in the ratio.
    ratios = _search_cost_terms(n_max)
    np.cumsum(ratios, out=ratios)
    ratios *= 4.5
    ratios /= 11.25
    return _worst(ratios)


def sweep_harmonic_bound(n_max: int) -> SweepResult:
    """Check (H_n - 1) lg n <= 0.7 lg^2 n for n = 2..n_max."""
    _require_size(n_max, 2)
    harmonic = np.arange(1, n_max + 1, dtype=np.float64)
    np.divide(1.0, harmonic, out=harmonic)
    np.cumsum(harmonic, out=harmonic)
    ratios = harmonic[1:]
    ratios -= 1.0
    lg = np.arange(2, n_max + 1, dtype=np.float64)
    np.log2(lg, out=lg)
    ratios *= lg
    np.square(lg, out=lg)
    lg *= 0.7
    ratios /= lg
    return _worst(ratios)
