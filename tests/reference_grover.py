"""Independent statevector reference for the ladder and the closed form.

``StateVector``, ``grover_iterate`` and ``marked_subset`` evolve one
immutable, norm-checked state per iteration under a predicate queried
afresh each time.  No production path uses them: they are what the
tests compare ``grover.GroverLadder`` (bit for bit) and
``grover.success_probability`` against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qminfind.grover import _check_norm

# Predicate over basis indices: maps an int array to a bool array.
MarkedPredicate = Callable[[np.ndarray], np.ndarray]


def _evaluate(marked: MarkedPredicate, n: int) -> np.ndarray:
    mask = np.asarray(marked(np.arange(n)), dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"predicate returned shape {mask.shape}, expected ({n},)")
    return mask


@dataclass(frozen=True)
class StateVector:
    """Normalized vector of complex amplitudes over basis indices.

    Treat instances as immutable: operations return new vectors and never
    modify their input.
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


def uniform_state(n: int) -> StateVector:
    """Equal superposition 1/sqrt(n) over n basis indices."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return StateVector(np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128))


def grover_iterate(state: StateVector, marked: MarkedPredicate) -> StateVector:
    """One iteration: phase-flip marked amplitudes, invert all about the mean.

    The predicate is queried afresh on every call (one oracle query per
    iteration).
    """
    sign = np.where(_evaluate(marked, len(state)), -1.0, 1.0)
    amps = state.amplitudes * sign
    return StateVector(2.0 * amps.mean() - amps)


def marked_subset(indices: Sequence[int]) -> MarkedPredicate:
    """Predicate marking exactly the given indices."""
    index_set = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)

    def predicate(idx: np.ndarray) -> np.ndarray:
        return np.isin(idx, index_set)

    return predicate
