"""Exact amplitude evolution for search over a marked subset.

The state is a dense vector of N complex amplitudes over basis indices
0..N-1 (a single register; no tensor structure is needed because the
algorithms here only ever distinguish marked from unmarked indices).
One search iteration is the usual pair of reflections: flip the phase of
every marked amplitude, then invert every amplitude about the mean.

Starting from the uniform state with t of N indices marked, j iterations
rotate the marked-subset amplitude to sin((2j+1) * theta) with
theta = arcsin(sqrt(t/N)); ``success_probability`` is that closed form,
and the statevector path is checked against it in the test suite.

``GroverLadder`` serves searches that measure many rounds under one
fixed predicate: every round starts from the uniform state, so the state
after j iterations is the same in each of them.  The ladder evolves one
amplitude vector in place, computes each iteration once, and keeps the
measurement CDF of every state it has passed.  Both the exact backend
and the closed-form check read a ladder.  ``StateVector``,
``grover_iterate`` and ``marked_subset`` evolve one immutable state per
iteration under a predicate queried afresh each time; no production path
uses them, and they stay as the test suite's independent reference for
the closed form and for the ladder's states, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StateVector",
    "GroverLadder",
    "rotation_angle",
    "uniform_state",
    "grover_iterate",
    "success_probability",
    "sample",
    "marked_subset",
]

NORM_TOL = 1e-9

# Predicate over basis indices: maps an int array to a bool array.
MarkedPredicate = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StateVector:
    """Normalized vector of complex amplitudes over basis indices.

    Treat instances as immutable: operations return new vectors and never
    modify their input, so states can be shared freely between concurrent
    workers (each worker still needs its own random stream to measure).
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or len(amps) < 1:
            raise ValueError("state needs at least one amplitude")
        _check_norm(float(np.sum(np.abs(amps) ** 2)))

    def __len__(self) -> int:
        return len(self.amplitudes)

    def probabilities(self) -> np.ndarray:
        """Measurement distribution |a_i|^2."""
        return np.abs(self.amplitudes) ** 2

    def subset_probability(self, marked: MarkedPredicate) -> float:
        """Total probability mass on indices satisfying ``marked``."""
        mask = _evaluate(marked, len(self))
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))


def rotation_angle(n: int, t: int) -> float:
    """theta = arcsin(sqrt(t/n)), the rotation per iteration with t of n marked.

    j iterations from the uniform state hit a marked index with probability
    sin^2((2j+1) * theta); callers that evaluate many j for one (n, t)
    compute theta once here.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= t <= n:
        raise ValueError(f"marked count t={t} outside [0, {n}]")
    return math.asin(math.sqrt(t / n))


def uniform_state(n: int) -> StateVector:
    """Equal superposition 1/sqrt(n) over n basis indices."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return StateVector(np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128))


def _check_norm(norm_sq: float) -> None:
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |a|^2 = {norm_sq!r}")


def _evaluate(marked: MarkedPredicate, n: int) -> np.ndarray:
    mask = np.asarray(marked(np.arange(n)), dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"predicate returned shape {mask.shape}, expected ({n},)")
    return mask


def _reflect(amps: np.ndarray, sign: np.ndarray) -> None:
    """One iteration in place: multiply by the +-1 phase ``sign``, then invert about the mean."""
    amps *= sign
    np.subtract(2.0 * amps.mean(), amps, out=amps)


def grover_iterate(state: StateVector, marked: MarkedPredicate) -> StateVector:
    """One iteration: phase-flip marked amplitudes, invert all about the mean.

    The predicate is queried afresh on every call (one oracle query per
    iteration).  A search evolving many iterations under one predicate
    uses ``GroverLadder``, which queries it once and yields bit for bit the
    same states.
    """
    sign = np.where(_evaluate(marked, len(state)), -1.0, 1.0)
    amps = state.amplitudes.copy()
    _reflect(amps, sign)
    return StateVector(amps)


class GroverLadder:
    """Measurement CDFs after 0, 1, 2, ... iterations from the uniform state.

    The predicate is evaluated once, into ``mask``.  ``cdf(j)`` extends one
    amplitude vector in place by the iterations not yet computed and keeps
    the CDF of each state it passes (norm-checked once, read-only), so each
    iteration is computed once and depth j holds j + 1 CDFs of n floats.
    Oracles build their ladder on first use and keep it (``oracle.ladder``),
    so a ladder lives as long as its oracle and serves all of its searches.
    """

    def __init__(self, marked: MarkedPredicate, n: int):
        self.mask = _evaluate(marked, n)
        self._sign = np.where(self.mask, -1.0, 1.0)
        self._amps = uniform_state(n).amplitudes.copy()
        self._cdfs: list[np.ndarray] = []

    def cdf(self, j: int) -> np.ndarray:
        """Cumulative |a_i|^2 of the state after j iterations."""
        if j < 0:
            raise ValueError("iteration count must be >= 0")
        while len(self._cdfs) <= j:
            if self._cdfs:
                _reflect(self._amps, self._sign)
            cdf = _cumulative(self._amps)
            _check_norm(float(cdf[-1]))
            cdf.setflags(write=False)
            self._cdfs.append(cdf)
        return self._cdfs[j]


def success_probability(n: int, t: int, j: int) -> float:
    """Probability that measuring after j iterations from uniform hits a marked index.

    Closed form sin^2((2j+1) * arcsin(sqrt(t/n))).  Equals t/n at j=0 and
    stays exactly 0 / 1 at t=0 / t=n for every j.
    """
    if j < 0:
        raise ValueError("iteration count must be >= 0")
    return math.sin((2 * j + 1) * rotation_angle(n, t)) ** 2


def _cumulative(amps: np.ndarray) -> np.ndarray:
    return np.cumsum(np.abs(amps) ** 2)


def sample(cdf: np.ndarray, rng) -> int:
    """Draw index i with probability proportional to cdf[i] - cdf[i-1].

    Consumes one uniform draw from ``rng``; every measurement of a
    ``GroverLadder`` state draws through here.
    """
    # Scaling by the total and clamping guard the top end against float
    # round-off in the cumulative sum.
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, len(cdf) - 1)


def marked_subset(indices: Sequence[int]) -> MarkedPredicate:
    """Predicate marking exactly the given indices (test/demo helper)."""
    index_set = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)

    def predicate(idx: np.ndarray) -> np.ndarray:
        return np.isin(idx, index_set)

    return predicate
