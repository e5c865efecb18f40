"""Input tables, held as ranks in value order.

A run reads one array: the 1-based ranks of its table's entries in value
order (ties share the rank of their value), a read-only int64 array.  It is
nondecreasing, so the entries strictly below rank r are positions 0..r-2.
The law of a run depends only on these ranks (BBHT), so no run sees a value
or an arrangement.  ``sorted_table`` is the one table draw.  A table file
(``read_table``) also keeps ``order``, the file index of each sorted
position, which maps a run's returned position back to the file; values are
compared only while a file is read, as 64-bit signed integers.

A table carries no distinct/duplicates flag: which kind of table a batch
of runs sees is a setting of the experiment (its mode, or the ranks of
its table file), decided once there rather than on every table.  The draw
takes the duplicates count ``k`` alone: None draws a distinct table.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Table",
    "sorted_table",
    "read_table",
]


@dataclass(frozen=True)
class Table:
    """A table file in value order: the rank, and the file index, of each sorted position."""

    # Read-only int64 arrays; ``order`` is the stable sort of the file's
    # indices by value.
    ranks: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.ranks)


def sorted_table(n: int, rng, k: int | None = None) -> np.ndarray:
    """Draw the ranks of a table of n entries, in value order.

    k=None: the ranks 1..n of a distinct table, one read-only array shared
    per n; nothing is drawn from the caller's stream.
    k in 1..n: how often each of k values occurs is a multinomial draw (the
    law of n uniform draws below k), taken from a numpy PCG64 generator
    seeded with 128 bits of the caller's stream; each value's entries rank
    1 + the entries below them.
    """
    if n < 1:
        raise ValueError("table size must be >= 1")
    if k is None:
        return _distinct_ranks(n)
    if not 1 <= k <= n:
        raise ValueError(f"duplicates count needs 1 <= k <= {n}, got {k}")
    numpy_stream = np.random.Generator(np.random.PCG64(rng.getrandbits(128)))
    counts = numpy_stream.multinomial(n, np.full(k, 1.0 / k))
    ranks = np.repeat(np.cumsum(counts) - counts + 1, counts)
    ranks.setflags(write=False)
    return ranks


@lru_cache(maxsize=8)
def _distinct_ranks(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.int64)
    ranks.setflags(write=False)
    return ranks


def _parse_lines(lines, path: str | Path) -> array:
    """The values of ``lines``, blank ones skipped, or an error naming the first bad line."""
    # An int64 array rejects a value outside its range with OverflowError.
    parsed = array("q")
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            parsed.append(int(text, 10))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: not a decimal integer: {text!r}") from exc
        except OverflowError:
            raise ValueError(f"{path}:{line_no}: value outside int64 range") from None
    return parsed


def read_table(path: str | Path) -> Table:
    """Load a table from newline-delimited decimal integers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # One pass of C iterators: each line stripped, blank ones
            # dropped, the rest parsed, one line held at a time.
            parsed = array("q", map(int, filter(None, map(str.strip, fh))))
        except UnicodeDecodeError:  # a ValueError too, so caught first
            raise ValueError(f"{path}: not UTF-8 text") from None
        except (ValueError, OverflowError):
            # Some line is not an int64: read the file again line by line,
            # which names it.
            fh.seek(0)
            parsed = _parse_lines(fh, path)
    if not parsed:
        raise ValueError(f"{path}: no values")
    order = np.argsort(np.frombuffer(parsed, dtype=np.int64), kind="stable")
    values = np.frombuffer(parsed, dtype=np.int64)[order]
    del parsed  # so the peak holds three arrays: order, values and ranks
    # The values are sorted, so each one's rank is 1 + its first position.
    ranks = np.searchsorted(values, values, side="left")
    ranks += 1
    order.setflags(write=False)
    ranks.setflags(write=False)
    return Table(ranks, order)
