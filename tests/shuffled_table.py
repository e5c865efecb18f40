"""Randomly arranged tables, the test side's stand-in for ``--table`` files.

The package draws only sorted tables (``table.sorted_table``), so a table
file is the one input whose arrangement is arbitrary.  ``shuffled_table``
draws such arrangements for the tests that must hold on any of them.
"""
from __future__ import annotations

import numpy as np

from qminfind.table import Table


def shuffled_table(n: int, rng, k: int | None = None) -> Table:
    """A table of n values in random arrangement, drawn from 128 bits of ``rng``.

    k=None: a uniformly random permutation of 0..n-1.
    k in 1..n: each entry drawn uniformly from the k values 0..k-1.
    """
    stream = np.random.Generator(np.random.PCG64(rng.getrandbits(128)))
    return Table(stream.permutation(n) if k is None else stream.integers(0, k, n))
