"""Exact amplitude evolution for search over a marked subset.

The state is a dense vector of N complex amplitudes over basis indices
0..N-1 (a single register; no tensor structure is needed because the
algorithms here only ever distinguish marked from unmarked indices).
One search iteration is the usual pair of reflections: flip the phase of
every marked amplitude, then invert every amplitude about the mean.

Starting from the uniform state with t of N indices marked, j iterations
rotate the marked-subset amplitude to sin((2j+1) * theta) with
theta = arcsin(sqrt(t/N)); ``success_probability`` is that closed form.

The law of a search depends only on N and t, not on which t indices are
marked (Boyer, Brassard, Hoyer and Tapp), so the exact backend works in
rank space: it marks indices 0..t-1, the first t positions of a table's
sorted order, so a measured index is a position in that order.

``GroverLadder(n, t)`` serves searches that measure many rounds under one
marked count: every round starts from the uniform state, so the state
after j iterations is the same in each of them.  The ladder computes each
iteration once and keeps the measurement CDF of every state it has
passed, as a read-only ``memoryview`` of floats; ``GroverLadder.measure``
draws one index from such a state.  The exact backend's search rounds
make the same draw inline, on the CDFs the ladder holds, and call
``extend`` only for a state it does not yet hold; its closed-form t = 0
draw and equivalence's fixed-j draws call ``measure``, and equivalence's
closed-form check reads ``cdf``.  The uniform state is the same for every
t, so it is cached once per N, its read-only amplitudes with their CDF,
and shared by all ladders: a ladder's j = 0 CDF is the cached one, and it
copies the cached amplitudes only at its first iteration; an iteration
negates the slice of its first t amplitudes in place.  The test suite
keeps an independent statevector reference (``tests/reference_grover.py``)
that evolves one immutable state per iteration under a predicate queried
afresh each time; the ladder's states match it bit for bit with the first
t indices marked, and within 1e-12 once a scattered marked set's
probabilities are put first.

By Lemma 1 a pass searches under t with probability 1/(t + 1) on either
backend, so most passes search under a few small t and would otherwise
recompute the same states or hit probabilities.  Both backends keep
their per-(N, t) tables in a ``_Store`` for the most recent n, bounded in
bytes: ``_shelf(n)`` the exact ladders within ``KEPT_LADDER_BYTES``,
``_hit_tables(n)`` the analytic hit tables within ``KEPT_HIT_BYTES``.
Whoever grows a table tells the store first what it will hold; past the
bound the other tables leave largest t first, the least used, and the
growing one only when it alone is over.  A table that grows while
evicted is stored again.  Exact searches and equivalence's fixed-j
draws take their ladders from ``ladder(n, t)`` and grow them through
``extend``, which counts each ladder's own states after j = 0 and its
amplitude copy (the shared uniform CDF is held once per n).  A ladder
evicted while a search reads it is freed when that search ends.  Each
state is still computed by the ladder, once per (n, t) while it stays
stored, so every stream and report byte is what fresh ladders give.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

__all__ = [
    "GroverLadder",
    "KEPT_HIT_BYTES",
    "KEPT_LADDER_BYTES",
    "extend",
    "ladder",
    "rotation_angle",
    "success_probability",
]

NORM_TOL = 1e-9
# What the two stores may hold: the exact ladders' own states and amplitude
# copies (``extend``), and the analytic hit tables as ``qsearch`` counts them.
KEPT_LADDER_BYTES = 32 * 2**20
KEPT_HIT_BYTES = 8 * 2**20


def rotation_angle(n: int, t: int) -> float:
    """theta = arcsin(sqrt(t/n)), the rotation per iteration with t of n marked.

    j iterations from the uniform state hit a marked index with probability
    sin^2((2j+1) * theta); callers that evaluate many j for one (n, t)
    compute theta once here.
    """
    _check_counts(n, t)
    return math.asin(math.sqrt(t / n))


def _check_counts(n: int, t: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= t <= n:
        raise ValueError(f"marked count t={t} outside [0, {n}]")


def _check_norm(norm_sq: float) -> None:
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |a|^2 = {norm_sq!r}")


def _reflect(amps: np.ndarray, t: int) -> None:
    """One iteration in place: negate the first t amplitudes, then invert about the mean."""
    # Bare ufunc calls: the same loops as the in-place operators and the sum
    # method, without their dispatch.  The mean is the same float as
    # ``amps.mean()``, which divides this sum by the count; as a Python
    # complex it skips the numpy scalar's conversion inside ``subtract``.
    marked = amps[:t]
    np.negative(marked, out=marked)
    np.subtract(complex(2.0 * (np.add.reduce(amps) / len(amps))), amps, out=amps)


def _measured(amps: np.ndarray) -> memoryview:
    """The cumulative |a_i|^2 of ``amps``, norm-checked, as a read-only view of floats."""
    # Negation and the real mean keep every imaginary part at +-0, so the
    # squared real part is |a|^2 bit for bit.  ``add.accumulate`` is the
    # cumulative-sum loop itself, summed in the same order.  The view reads
    # its entries as Python floats, which ``bisect_right`` compares without
    # building a numpy scalar at every probe.
    cdf = np.add.accumulate(np.square(amps.real))
    _check_norm(cdf.item(-1))
    cdf.setflags(write=False)
    return memoryview(cdf)


@lru_cache(maxsize=8)
def _uniform(n: int) -> tuple[np.ndarray, memoryview]:
    """The uniform state over n indices, shared per n: read-only amplitudes and their CDF."""
    amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    amps.setflags(write=False)
    return amps, _measured(amps)


class GroverLadder:
    """Measurement CDFs after 0, 1, 2, ... iterations from the uniform state.

    The ladder's n >= 1 indices have their first t marked, 0 <= t <= n.
    ``cdf(0)`` is the shared uniform CDF of size n.  The first ``cdf(j)``
    with j >= 1 copies the shared uniform amplitude vector; from then on
    ``cdf(j)`` extends that copy in place by the iterations not yet
    computed, each negating amplitudes 0..t-1, and keeps the CDF of each
    state it passes (norm-checked once, a read-only ``memoryview``), so
    each iteration is computed once and depth j holds j + 1 CDFs of n
    floats.  ``measure(j, rng)`` reads the state through ``cdf(j)`` and
    draws one index from it, so measuring a state the ladder already holds
    computes nothing; ``qsearch.search`` reads ``_cdfs``, the CDFs held,
    in place and makes the same draw, and grows the ladder only through
    ``extend``.  A ladder only computes states: it serves every exact
    search over its (n, t), and the store it is taken from
    (``ladder(n, t)``) counts its bytes.
    """

    def __init__(self, n: int, t: int):
        _check_counts(n, t)
        self.n, self.t = n, t
        self._cdfs = [_uniform(n)[1]]
        self._amps: np.ndarray | None = None

    def cdf(self, j: int) -> memoryview:
        """Cumulative |a_i|^2 of the state after j iterations."""
        cdfs = self._cdfs
        if j < len(cdfs):
            if j < 0:
                raise ValueError("iteration count must be >= 0")
            return cdfs[j]
        if self._amps is None:
            self._amps = _uniform(self.n)[0].copy()
        while len(cdfs) <= j:
            _reflect(self._amps, self.t)
            cdfs.append(_measured(self._amps))
        return cdfs[j]

    def measure(self, j: int, rng) -> int:
        """Measure the state after j iterations: index i with probability |a_i|^2.

        The exact backend's closed-form t = 0 draw and equivalence's fixed-j
        draws call it; a search round makes the same draw inline (see
        ``qsearch.search``), and the two must stay the same draw.  Consumes
        exactly one ``rng.random()`` u and returns the first index
        whose cumulative sum exceeds u times the total, so cells of
        probability 0 are passed over.  On this nondecreasing CDF
        ``bisect_right`` finds the index ``searchsorted(side="right")``
        would, as a Python int and faster at the sizes the exact backend
        runs.  It returns at most n - 1 with no clamp: u <= 1 - 2^-53, and
        the total T is norm-checked near 1, so the round-to-nearest product
        u * T stays strictly below T, the CDF's last entry.
        """
        cdf = self.cdf(j)
        return bisect_right(cdf, rng.random() * cdf[-1])


class _Store(dict):
    """The tables of one n by t within ``bound`` bytes; ``held`` counts what they hold.

    ``grow`` alone counts and evicts; it records each t's bytes, so it never
    looks inside a table.
    """

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self.held = 0
        self._sizes: dict[int, int] = {}
        # -t for every stored t: the largest t is the heap's first entry.
        self._heap: list[int] = []

    def grow(self, t: int, table, size: int) -> None:
        """Store ``table`` as t's at ``size`` bytes, before it grows to them, within the bound.

        A table stored again after it was evicted, or in place of another
        table of t, is counted at ``size`` alone.  Past the bound the other
        tables leave largest t first, just until the count is back within
        it: a pass searches under t with probability 1/(t + 1), so the
        largest t are the least used.  ``table`` leaves last, so only when it
        alone is over the bound; whoever holds it still reads it.
        """
        sizes, heap = self._sizes, self._heap
        if t not in sizes:
            heappush(heap, -t)
        self[t] = table
        self.held += size - sizes.get(t, 0)
        sizes[t] = size
        set_aside = False
        while self.held > self.bound and heap:
            largest = -heappop(heap)
            if largest == t:
                set_aside = True
            else:
                del self[largest]
                self.held -= sizes.pop(largest)
        if self.held > self.bound:
            del self[t]
            self.held -= sizes.pop(t)
        elif set_aside:
            heappush(heap, -t)


@lru_cache(maxsize=1)
def _shelf(n: int) -> _Store:
    """The store of the most recent n's ladders, by t, within ``KEPT_LADDER_BYTES``."""
    return _Store(KEPT_LADDER_BYTES)


@lru_cache(maxsize=1)
def _hit_tables(n: int) -> _Store:
    """The store of the most recent n's analytic hit tables, by t, within ``KEPT_HIT_BYTES``."""
    return _Store(KEPT_HIT_BYTES)


def ladder(n: int, t: int) -> GroverLadder:
    """The stored ``GroverLadder(n, t)`` for a search, built and stored on first use.

    Each ladder computes every state the same way whenever it is asked
    for it, so a stored ladder hands a later search the very CDFs a fresh
    one would compute; only the work is shared.  A ladder the store
    evicted stays with the searches that hold it; the next call stores a
    new one.
    """
    store = _shelf(n)
    held = store.get(t)
    if held is None:
        held = GroverLadder(n, t)
        store.grow(t, held, 0)
    return held


def extend(ladder: GroverLadder, j: int) -> memoryview:
    """``ladder.cdf(j)`` for j >= 1, counted first in the ladder store of its n.

    It counts the ladder's states after j = 0, n floats each, and its
    amplitude copy of 2n, and stores the ladder again if it was evicted.
    """
    n = ladder.n
    _shelf(n).grow(ladder.t, ladder, (max(j, len(ladder._cdfs) - 1) + 2) * 8 * n)
    return ladder.cdf(j)


def success_probability(n: int, t: int, j: int) -> float:
    """Probability that measuring after j iterations from uniform hits a marked index.

    Closed form sin^2((2j+1) * arcsin(sqrt(t/n))).  Equals t/n at j=0 and
    stays exactly 0 / 1 at t=0 / t=n for every j.
    """
    if j < 0:
        raise ValueError("iteration count must be >= 0")
    return math.sin((2 * j + 1) * rotation_angle(n, t)) ** 2

