"""Which checks fail when a known defect is planted in the algorithm.

A check is only useful if it can fail.  Each mutant plants one defect with
``monkeypatch``; each config is a user-facing verdict at a small fixed
size.  The table of failing check names is a ratchet: a later change may
add names to an entry, never drop one.  Correct code fails no check.
"""
import math
import types

import numpy as np
import pytest

from qminfind import harness, minfind
from qminfind.grover import GroverLadder
from qminfind.harness import ExperimentConfig, run_experiment
from qminfind.qsearch import Backend

ANALYTIC = Backend.ANALYTIC_SAMPLER


def _patch_search(monkeypatch, mutated):
    """Run every pass's search as ``mutated(search, n, t, budget, growth, rng, backend)``."""
    search = minfind.search

    def patched(n, t, budget, growth, rng, backend=ANALYTIC):
        return mutated(search, n, t, budget, growth, rng, backend)

    monkeypatch.setattr(minfind, "search", patched)


def _rank(monkeypatch):
    """On a hit with t > 1 marked, the analytic search returns a position
    below t - 1, as if it marked one entry too few; the correct law draws
    one below t."""

    def mutated(search, n, t, budget, growth, rng, backend):
        used, interrupted, index = search(n, t, budget, growth, rng, backend)
        if index < t and t > 1 and backend is ANALYTIC:
            index = rng.randrange(t - 1)
        return used, interrupted, index

    _patch_search(monkeypatch, mutated)


def _overcharge(monkeypatch):
    """Every search is charged 1.1 times the iterations it used."""

    def mutated(search, n, t, budget, growth, rng, backend):
        used, interrupted, index = search(n, t, budget, growth, rng, backend)
        return used * 1.1, interrupted, index

    _patch_search(monkeypatch, mutated)


def _fast_growth(monkeypatch):
    """Analytic passes search at growth 1.25 whatever the config says."""

    def mutated(search, n, t, budget, growth, rng, backend):
        return search(n, t, budget, 1.25 if backend is ANALYTIC else growth, rng, backend)

    _patch_search(monkeypatch, mutated)


def _ceil_budget(monkeypatch):
    """A finite remaining budget is rounded up, so a search may overrun the cap."""

    def mutated(search, n, t, budget, growth, rng, backend):
        budget = math.ceil(budget) if math.isfinite(budget) else budget
        return search(n, t, budget, growth, rng, backend)

    _patch_search(monkeypatch, mutated)


def _init_plus_one(monkeypatch):
    """Each initialization is charged lg N + 1 steps."""
    monkeypatch.setattr(
        minfind, "math", types.SimpleNamespace(log2=lambda x: math.log2(x) + 1, inf=math.inf)
    )


def _tie(monkeypatch):
    """On a hit, a rank is drawn uniformly among the distinct ranks below
    the threshold, then a position holding it.  The correct law draws a
    position uniformly, so a rank held by c entries is c times as likely."""
    find = harness.find_minimum
    run_ranks = []

    def seeing(ranks, *args):
        run_ranks[:] = [ranks]
        return find(ranks, *args)

    def mutated(search, n, t, budget, growth, rng, backend):
        used, interrupted, index = search(n, t, budget, growth, rng, backend)
        if index < t and backend is ANALYTIC:
            below = run_ranks[0][:t]
            held = np.unique(below)
            positions = np.flatnonzero(below == held[rng.randrange(len(held))])
            index = int(positions[rng.randrange(len(positions))])
        return used, interrupted, index

    monkeypatch.setattr(harness, "find_minimum", seeing)
    _patch_search(monkeypatch, mutated)


class _SkippingState13(list):
    """A ladder's list of CDFs that never stores the state after 13 iterations.

    The ladder appends states while the list is too short for the depth it
    is asked for, so it computes the next state in place of the skipped
    one: entry j >= 13 holds the state after j + 1 iterations.
    """

    skipped = False

    def append(self, cdf):
        if len(self) == 13 and not self.skipped:
            self.skipped = True
        else:
            super().append(cdf)


def _late_ladder(monkeypatch):
    """Every statevector past 12 iterations is measured one iteration late.

    The ladder's stored CDFs are shifted, so every reader sees it: ``cdf``,
    ``measure`` and the search rounds that read the stored CDFs in place.
    """
    init = GroverLadder.__init__

    def late_init(self, n, t):
        init(self, n, t)
        self._cdfs = _SkippingState13(self._cdfs)

    monkeypatch.setattr(GroverLadder, "__init__", late_init)


MUTANTS = {
    "correct": None,
    "rank": _rank,
    "overcharge-1.1": _overcharge,
    "growth-1.25": _fast_growth,
    "ceil-budget": _ceil_budget,
    "init-plus-1": _init_plus_one,
    "tie": _tie,
    "late-ladder": _late_ladder,
}
CONFIGS = {
    "lemma1": {"experiment": "lemma1", "n": 64, "runs": 2000, "seed": 1},
    "lemma1-dup:8": {"experiment": "lemma1", "n": 64, "runs": 2000, "seed": 1, "mode": "dup:8"},
    "success": {"experiment": "success", "n": 64, "runs": 2000, "seed": 1},
    "expected-cost": {"experiment": "expected-cost", "n": 64, "runs": 2000, "seed": 1},
    # Searches at n = 256 measure states up to 15 iterations, past the
    # closed-form check's floor of 12.
    "equivalence-256": {"experiment": "equivalence", "n": 256, "runs": 20, "seed": 1},
}
# Under the rank mutant, distinct tables read a worst asserted deviation of
# about 0.13 from 1/r (rank 2 is reached by 0.37 of runs, not 1/2); the dup
# check only bounds each frequency from above, which the mutant stays under.  The other run mutants move the means they
# target (x1.1 moves success's mean_spent from 230.0 to 249.4), but within
# the one-sided bounds' slack; only success's ledger check, which no run
# may overspend, catches x1.1.
FAILING = {
    ("correct", "lemma1"): set(),
    ("correct", "lemma1-dup:8"): set(),
    ("correct", "success"): set(),
    ("correct", "expected-cost"): set(),
    ("correct", "equivalence-256"): set(),
    ("rank", "lemma1"): {"rank-frequency"},
    ("rank", "lemma1-dup:8"): set(),
    ("rank", "success"): set(),
    ("rank", "expected-cost"): set(),
    **{
        (mutant, config): set()
        for mutant in ("overcharge-1.1", "growth-1.25", "ceil-budget", "init-plus-1", "tie")
        for config in ("lemma1", "lemma1-dup:8", "success", "expected-cost")
    },
    # Every run spends more than cap + lg N (max 252.4 against 236.4).
    ("overcharge-1.1", "success"): {"ledger-budget"},
    ("late-ladder", "equivalence-256"): {"closed-form"},
}


@pytest.mark.parametrize(("mutant", "config"), list(FAILING))
def test_failing_checks_under_each_mutant(monkeypatch, mutant, config):
    if MUTANTS[mutant] is not None:
        MUTANTS[mutant](monkeypatch)
    report = run_experiment(ExperimentConfig(**CONFIGS[config]))
    assert {check["check"] for check in report.checks if not check["ok"]} == FAILING[mutant, config]
