"""Input tables and rank utilities.

A table is an array of 64-bit signed integers; the algorithms only ever
compare entries, so the integer carrier sidesteps any floating-point
comparison ambiguity.  Tables are immutable after construction, so they
are safe to share across concurrent runs.  An exact pass of
``find_minimum`` marks the entries strictly below its threshold with a
boolean mask over the table; an analytic pass reads only ``order`` and
``ranks``.

Two ways to draw a table: ``generate_table`` arranges its values at random,
which the exact statevector backend needs; ``sorted_table`` holds them in
value order, which is all the analytic law needs, since that law depends
only on ranks and is the same for every arrangement of the values.

A table carries no distinct/duplicates flag: which kind of table a batch
of runs sees is a setting of the experiment (its mode, or the values of
its table file), decided once there rather than on every table.  Both
draws take the duplicates count ``k`` alone: None draws a distinct table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Table",
    "generate_table",
    "sorted_table",
    "read_table",
]

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Table:
    """Array of orderable values, with their sorted order and ranks computed at construction."""

    values: np.ndarray
    # Indices sorted by value (stable), and the 1-based rank of every index
    # (ties share the rank of their value); read-only, like ``values``.
    order: np.ndarray = field(default=None, repr=False, compare=False)
    ranks: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.int64, copy=True)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("table needs at least one value")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.order is None:
            order = np.argsort(vals, kind="stable")
            ranks = np.searchsorted(vals[order], vals, side="left") + 1
            order.setflags(write=False)
            ranks.setflags(write=False)
            object.__setattr__(self, "order", order)
            object.__setattr__(self, "ranks", ranks)

    @classmethod
    def permutation(cls, values) -> "Table":
        """Distinct table holding a permutation of 0..n-1, with order and ranks in O(n).

        Value v has rank v + 1, so a single scatter inverts the permutation
        into ``order``.  Reading it back (``values[order] == 0..n-1``) is a
        bijection test: it fails on a repeated value, which leaves some
        value missing, and is why no sort or ``np.unique`` is needed.
        """
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("table needs at least one value")
        n = len(vals)
        if vals.min() < 0 or vals.max() >= n:
            raise ValueError(f"permutation table holds a value outside 0..{n - 1}")
        positions = np.arange(n, dtype=np.int64)
        order = np.zeros(n, dtype=np.int64)
        order[vals] = positions
        if not (vals[order] == positions).all():
            raise ValueError("permutation table holds a duplicate value")
        ranks = vals + 1
        order.setflags(write=False)
        ranks.setflags(write=False)
        return cls(vals, order, ranks)

    def __len__(self) -> int:
        return len(self.values)


def generate_table(n: int, rng, k: int | None = None) -> Table:
    """Draw a fresh random table.

    The values come from a numpy PCG64 generator seeded with 128 bits of
    the caller's stream, so results are reproducible from the seed and the
    caller's stream advances by the same amount for every n.
    k=None: uniformly random permutation of 0..n-1.
    k in 1..n: each entry drawn uniformly from the k values 0..k-1.
    """
    _check_request(n, k)
    if k is None:
        return Table.permutation(_numpy_stream(rng).permutation(n))
    return Table(_numpy_stream(rng).integers(0, k, n))


def sorted_table(n: int, rng, k: int | None = None) -> Table:
    """Draw a table whose values sit in value order, so index i has rank-order position i.

    k=None: the values 0..n-1, one read-only table shared per n; nothing
    is drawn from the caller's stream.
    k in 1..n: how often each of the k values 0..k-1 occurs is a
    multinomial draw (the law of n uniform draws below k), taken from a
    numpy PCG64 generator seeded with 128 bits of the caller's stream.
    """
    _check_request(n, k)
    if k is None:
        return _identity_table(n)
    counts = _numpy_stream(rng).multinomial(n, np.full(k, 1.0 / k))
    # The values are sorted: their order is the identity, and each value's
    # entries rank 1 + the entries below them, so no ``Table`` sort is needed.
    ranks = np.repeat(np.cumsum(counts) - counts + 1, counts)
    ranks.setflags(write=False)
    values = np.repeat(np.arange(k, dtype=np.int64), counts)
    return Table(values, _identity_table(n).order, ranks)


def _check_request(n: int, k: int | None) -> None:
    if n < 1:
        raise ValueError("table size must be >= 1")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"duplicates count needs 1 <= k <= {n}, got {k}")


@lru_cache(maxsize=8)
def _identity_table(n: int) -> Table:
    return Table.permutation(np.arange(n, dtype=np.int64))


def _numpy_stream(rng) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(rng.getrandbits(128)))


def read_table(path: str | Path) -> Table:
    """Load a table from newline-delimited decimal integers."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text, 10)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: not a decimal integer: {text!r}") from exc
            if not _INT64.min <= value <= _INT64.max:
                raise ValueError(f"{path}:{line_no}: value outside int64 range")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no values")
    return Table(np.asarray(values, dtype=np.int64))
