"""Which checks fail when a known defect is planted in the algorithm.

A check is only useful if it can fail.  Each mutant plants one defect with
``monkeypatch``; each config is a user-facing verdict at a small fixed
size.  The table of failing check names is a ratchet: a later change may
add names to an entry, never drop one.  Correct code fails no check.
"""
import pytest

from qminfind import minfind
from qminfind.harness import ExperimentConfig, run_experiment


def _rank_mutant(search):
    """On a hit, the analytic search returns a class position at or below the
    threshold's own rank, where the correct law draws one strictly below it."""

    def mutated(n, t, budget, growth, rng, ladder=None):
        hit, used, interrupted, index = search(n, t, budget, growth, rng, ladder)
        if hit and ladder is None:
            index = rng.randrange(t + 1)
        return hit, used, interrupted, index

    return mutated


MUTANTS = {"correct": None, "rank": _rank_mutant}
CONFIGS = {
    "lemma1": {"experiment": "lemma1", "n": 64, "runs": 2000, "seed": 1},
    "lemma1-dup:8": {"experiment": "lemma1", "n": 64, "runs": 2000, "seed": 1, "mode": "dup:8"},
}
# Under the rank mutant, distinct tables read a worst asserted deviation of
# about 0.5 from 1/r; the dup check only bounds each frequency from above,
# which the mutant stays under.
FAILING = {
    ("correct", "lemma1"): set(),
    ("correct", "lemma1-dup:8"): set(),
    ("rank", "lemma1"): {"rank-frequency"},
    ("rank", "lemma1-dup:8"): set(),
}


@pytest.mark.parametrize(("mutant", "config"), list(FAILING))
def test_failing_checks_under_each_mutant(monkeypatch, mutant, config):
    if MUTANTS[mutant] is not None:
        monkeypatch.setattr(minfind, "search", MUTANTS[mutant](minfind.search))
    report = run_experiment(ExperimentConfig(**CONFIGS[config]))
    assert {check["check"] for check in report.checks if not check["ok"]} == FAILING[mutant, config]
