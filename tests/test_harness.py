import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import __version__, grover, harness, minfind, qsearch
from qminfind.bounds import timeout_cap
from qminfind.harness import (
    ExperimentConfig,
    _spans,
    build_identifier,
    closed_form_deviation,
    run_experiment,
    two_sample_chisquare,
    uniform_chisquare,
    wilson_interval,
)
from qminfind.grover import GroverLadder, success_probability
from qminfind.qsearch import Backend
from qminfind.table import sorted_table
from test_pinned_reports import TIES_TABLE

RECORD_FIELDS = [
    "n",
    "seed",
    "backend",
    "lambda",
    "cap",
    "returned_index",
    "returned_is_minimum",
    "first_hit_time",
    "total_spent",
    "loop_passes",
]


def test_wilson_reference_values():
    # The interval is always the 99% one; scipy computes it independently.
    from scipy.stats import binomtest

    for k, n in ((55, 100), (0, 50), (50, 50), (15, 20), (1, 3)):
        expected = binomtest(k, n).proportion_ci(0.99, method="wilson")
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(expected.low, abs=1e-12)
        assert hi == pytest.approx(expected.high, abs=1e-12)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.11715209171762796, abs=1e-12)
    lo, hi = wilson_interval(50, 50)
    assert hi == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@given(s=st.integers(0, 200), n=st.integers(1, 200))
def test_wilson_interval_contains_the_estimate(s, n):
    s = min(s, n)
    lo, hi = wilson_interval(s, n)
    assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_chisquare_matches_scipy_reference():
    # Frozen against scipy.stats.chi2_contingency(correction=False).
    a = Counter({0: 500, 1: 300, 2: 200})
    b = Counter({0: 480, 1: 310, 2: 230})
    stat, p, dof = two_sample_chisquare(a, b)
    assert stat == pytest.approx(2.4673430180306957, abs=1e-9)
    assert p == pytest.approx(0.291221390486803, abs=1e-9)
    assert dof == 2


def test_replaced_scipy_calls_match_scipy_bit_for_bit():
    # The package computes these without importing scipy.stats; the
    # constants are literals and the chi-square tail calls chdtrc directly.
    from scipy import stats
    from scipy.special import ndtr, ndtri

    assert harness.Z99 == float(ndtri(0.995))
    assert harness.FIXED_J_ALPHA == float(2.0 * ndtr(-4.0))
    rng = np.random.default_rng(12)
    for dof in range(1, 201):
        for stat in (0.0, 1e-3, 0.5 * dof, dof - 1.0, dof, dof + 3.0 * math.sqrt(2 * dof), 4.0 * dof + 50):
            assert harness._chi2_sf(stat, dof) == float(stats.chi2.sf(stat, dof)), (stat, dof)
        flat = np.full(dof + 1, 40)
        for counts in (flat, rng.poisson(40, dof + 1), flat + np.arange(dof + 1) % 7 * 9):
            stat, p, k = uniform_chisquare(counts)
            assert k == dof and p == float(stats.chi2.sf(stat, dof)), (counts, dof)
            a = Counter(dict(enumerate(counts.tolist())))
            b = Counter(dict(enumerate(rng.poisson(40, dof + 1).tolist())))
            for other in (a, b):
                stat, p, k = two_sample_chisquare(a, other)
                assert k == dof and p == float(stats.chi2.sf(stat, dof)), (a, other)


def test_chisquare_identical_samples():
    a = Counter({0: 10, 1: 20})
    assert two_sample_chisquare(a, a) == (0.0, 1.0, 1)


def test_chisquare_pools_sparse_bins():
    a = Counter({0: 100, 1: 3, 2: 2, 3: 1})
    b = Counter({0: 90, 1: 4, 2: 4, 3: 3})
    stat, p, dof = two_sample_chisquare(a, b)
    assert dof == 1
    assert stat == pytest.approx(1.8772263347019318, abs=1e-9)


def test_chisquare_degenerate_single_bin():
    a = Counter({0: 5})
    b = Counter({0: 7})
    assert two_sample_chisquare(a, b) == (0.0, 1.0, 0)


def test_chisquare_rejects_empty():
    with pytest.raises(ValueError):
        two_sample_chisquare(Counter(), Counter({0: 1}))


def test_uniform_gof_reference():
    stat, p, dof = uniform_chisquare(np.array([98, 105, 99, 102, 96]))
    assert stat == pytest.approx(0.5, abs=1e-12)
    assert p == pytest.approx(0.9735009788392561, abs=1e-12)
    assert dof == 4


def test_uniform_gof_skips_thin_data():
    assert uniform_chisquare(np.array([2, 1, 0])) == (0.0, 1.0, 0)
    assert uniform_chisquare(np.array([100])) == (0.0, 1.0, 0)


@given(runs=st.integers(1, 500), pieces=st.integers(1, 32))
def test_spans_partition_the_run_range(runs, pieces):
    spans = _spans(runs, pieces)
    covered = [i for a, b in spans for i in range(a, b)]
    assert covered == list(range(runs))


def test_config_validation():
    with pytest.raises(ValueError, match="experiment"):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(experiment="success", mode="weird")
    for mode in ("dup", "dup:", "dup:x", "Distinct", "dup:0", "dup:65"):
        with pytest.raises(ValueError, match="--mode"):
            ExperimentConfig(experiment="success", mode=mode)
    with pytest.raises(ValueError, match="growth"):
        ExperimentConfig(experiment="success", growth=2.0)
    with pytest.raises(ValueError, match="exact backend"):
        ExperimentConfig(experiment="success", backend=Backend.EXACT_STATEVECTOR, n=2**15)
    with pytest.raises(ValueError, match="equivalence"):
        ExperimentConfig(experiment="equivalence", n=2**11)
    with pytest.raises(ValueError, match="boost"):
        ExperimentConfig(experiment="success", boost=0)
    with pytest.raises(ValueError, match="needs n >= 2"):
        ExperimentConfig(experiment="expected-cost", n=1)
    with pytest.raises(ValueError, match="timeout"):
        ExperimentConfig(experiment="success", boost=2, timeout=3.0)
    for experiment in ("lemma1", "expected-cost"):
        with pytest.raises(ValueError, match=f"{experiment} does not read timeout"):
            ExperimentConfig(experiment=experiment, timeout=3.0)
        with pytest.raises(ValueError, match=f"{experiment} does not read boost"):
            ExperimentConfig(experiment=experiment, boost=2)
    for experiment in ("bounds", "equivalence"):
        for flags in ({"table_path": "t.txt"}, {"timeout": 3.0}, {"boost": 2}, {"mode": "dup:2"}):
            name = next(iter(flags))
            with pytest.raises(ValueError, match=f"{experiment} does not read {name}"):
                ExperimentConfig(experiment=experiment, n=8, **flags)
    with pytest.raises(ValueError, match="n must lie in"):
        ExperimentConfig(experiment="success", n=2**24 + 1)
    # The limits themselves are accepted (building a config allocates nothing).
    ExperimentConfig(experiment="success", n=2**24)
    ExperimentConfig(experiment="lemma1", n=2**17)


def test_backend_given_as_text_is_coerced_before_it_is_checked():
    # The CLI parses --backend into a Backend; a config built in code from
    # text must meet the same checks, and run.
    config = ExperimentConfig(experiment="single-run", n=8, runs=2, seed=1, backend="exact")
    assert config.backend is Backend.EXACT_STATEVECTOR
    assert run_experiment(config).config["backend"] == "exact"
    with pytest.raises(ValueError, match="exact backend"):
        ExperimentConfig(experiment="success", backend="exact", n=2**20, runs=1)
    # Text naming the default is the default, even where backend is not read.
    ExperimentConfig(experiment="bounds", backend="analytic")
    with pytest.raises(ValueError, match="--backend"):
        ExperimentConfig(experiment="success", backend="bogus")


def test_mode_label_renders_the_duplicates_count():
    for text in ("dup:3", "dup:03", "dup:+3"):
        config = ExperimentConfig(experiment="lemma1", mode=text)
        assert config.dup_k == 3
        assert config.to_dict()["mode"] == "dup:3"
    assert ExperimentConfig(experiment="lemma1").dup_k is None


_INT64 = st.integers(-(2**63), 2**63 - 1)


@given(
    st.one_of(
        st.builds(lambda value, n: [value] * n, _INT64, st.integers(1, 50)),
        st.lists(_INT64, min_size=1, max_size=200, unique=True),
        st.lists(st.integers(-3, 3), min_size=1, max_size=200),
    )
)
def test_mode_label_counts_what_np_unique_counts(values):
    # A table file's label counts its distinct ranks in one pass over the
    # sorted ranks: all equal, all distinct, or mixed, that is the count
    # np.unique gives.
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.txt"
        path.write_text("".join(f"{value}\n" for value in values))
        config = ExperimentConfig("success", len(values), 1, table_path=str(path))
        k = len(np.unique(config.fixed_table.ranks))
    assert k == len(set(values))
    assert config.mode_label == ("distinct" if k == len(values) else f"dup:{k}")


@pytest.mark.parametrize("experiment", ["lemma1", "success", "expected-cost", "single-run"])
def test_mode_label_reads_a_table_file_once_per_invocation(monkeypatch, tmp_path, experiment):
    # A table file's kind is one pass of np.count_nonzero over its ranks;
    # lemma1 reads the label in its fold and in its report.
    path = tmp_path / "ties.txt"
    path.write_text("".join(f"{v}\n" for v in (5, 3, 3, 9, 1, 1, 1, 7, 2, 5, 8, 0)))
    count_nonzero, calls = np.count_nonzero, []

    def counting(*args, **kwargs):
        calls.append(args)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counting)
    config = ExperimentConfig(experiment=experiment, n=12, runs=20, seed=1, table_path=str(path))
    assert run_experiment(config).config["mode"] == "dup:8"
    assert len(calls) == 1


def test_unknown_boost_strategy_is_rejected():
    # Boosting is c repetitions and nothing else; the config has no field
    # that picks another way to spend the boost.
    for strategy in ("repeat", "extend"):
        with pytest.raises(TypeError, match="boost_strategy"):
            ExperimentConfig(experiment="success", boost=2, boost_strategy=strategy)


@pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENT_FIELDS))
def test_no_config_field_is_silently_ignored(tmp_path, experiment):
    # Every field away from its default must either be rejected or show in
    # the report's config.  The loop walks the fields themselves, so a new
    # field without a value here fails with a KeyError.
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{v}\n" for v in range(64)))
    non_default = {
        "n": 32,
        "runs": 7,
        "seed": 1,
        "backend": Backend.EXACT_STATEVECTOR,
        "growth": 1.25,
        "mode": "dup:5",
        "boost": 2,
        "timeout": 5.0,
        "max_rank": 3,
        "table_path": str(table),
    }
    default = ExperimentConfig(experiment).to_dict()
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in ("experiment", "workers"):  # workers changes no result
            continue
        try:
            config = ExperimentConfig(experiment, **{field.name: non_default[field.name]})
        except ValueError:
            continue
        assert config.to_dict() != default, field.name


@pytest.mark.parametrize(
    ("fields", "expected"),
    [
        ({"experiment": "lemma1"}, math.inf),
        ({"experiment": "expected-cost"}, math.inf),
        ({"experiment": "success", "timeout": 7.5}, 7.5),
        ({"experiment": "single-run", "timeout": 0.0}, 0.0),
        ({"experiment": "success", "boost": 3}, timeout_cap(64)),
        ({"experiment": "success"}, timeout_cap(64)),
        ({"experiment": "single-run"}, timeout_cap(64)),
        ({"experiment": "single-run", "n": 1}, 0.0),
        ({"experiment": "lemma1", "n": 1}, math.inf),
    ],
    ids=[
        "lemma1", "expected-cost", "timeout", "timeout-zero", "repeat", "success", "single-run",
        "n1", "n1-lemma1",
    ],
)
def test_config_decides_each_runs_cap_once(fields, expected):
    config = ExperimentConfig(**fields)
    assert config.cap == expected
    assert isinstance(config.cap, float)
    assert config.cap is config.cap  # computed once per config


def test_integer_timeout_becomes_a_float_cap():
    # The cap lands in single-run records, which must not print 30 for 30.0.
    assert repr(ExperimentConfig(experiment="single-run", timeout=30).cap) == "30.0"


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize(
    "extra", [{}, {"timeout": 3}, {"boost": 2}], ids=["default-cap", "timeout-3", "boost-2"]
)
def test_one_entry_runs_report_a_zero_cap_and_spend_nothing(backend, extra):
    # The only entry is the minimum, so every run needs no step, whatever
    # cap the flags ask for.
    fields = {"n": 1, "runs": 20, "seed": 1, "backend": backend, **extra}
    for record in run_experiment(ExperimentConfig(experiment="single-run", **fields)).rows:
        assert repr(record["cap"]) == "0.0"
        assert (record["returned_index"], record["loop_passes"], record["total_spent"]) == (0, 0, 0.0)
        # A boosted result keeps no single history, so it has no first-hit time.
        assert record["first_hit_time"] == (None if "boost" in extra else 0.0)
    summary = run_experiment(ExperimentConfig(experiment="success", **fields)).summary
    assert summary["successes"] == 20
    assert summary["mean_spent"] == summary["mean_loop_passes"] == 0.0


@pytest.mark.parametrize("n", [1, 2, 64, 2**14, 2**24])
def test_growth_near_one_is_rejected_and_the_smallest_accepted_is_named(n):
    # Only n = 1, whose searches have no growing round, takes any growth.
    if n == 1:
        ExperimentConfig(experiment="success", n=n, growth=1.00000001)
        return
    with pytest.raises(ValueError, match="growth factor 1.00000001") as caught:
        ExperimentConfig(experiment="success", n=n, growth=1.00000001)
    least = float(str(caught.value).rsplit(" ", 1)[1])
    ExperimentConfig(experiment="success", n=n, growth=least)
    with pytest.raises(ValueError, match="growing search rounds"):
        ExperimentConfig(experiment="success", n=n, growth=least - 2e-9)
    growing, _ = qsearch._round_schedule(n, least)
    assert len(growing) <= harness.MAX_GROWING_ROUNDS
    qsearch._round_schedule.cache_clear()


def test_config_dict_omits_worker_count():
    # Worker count must never influence report bytes, so it cannot appear.
    config = ExperimentConfig(experiment="success", workers=3)
    assert "workers" not in config.to_dict()
    assert config.to_dict()["lambda"] == config.growth


def test_build_identifier_names_the_package():
    assert build_identifier() == f"qminfind {__version__}"


def test_experiments_start_no_subprocess(monkeypatch):
    # The report's build field is the version alone, so reports from two
    # commits differ only where their results do.
    def refuse(*args, **kwargs):
        raise AssertionError("the harness started a subprocess")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    report = run_experiment(ExperimentConfig(experiment="success", n=16, runs=20, seed=1))
    assert report.build == f"qminfind {__version__}"


@pytest.mark.parametrize(
    ("experiment", "extra"),
    [("success", {"max_rank": 10, "workers": 2}), ("lemma1", {"max_rank": 1, "workers": 2})],
)
def test_benchmark_configs_are_accepted(experiment, extra):
    # perfbench sets max_rank on every workload: at its default it is
    # accepted by an experiment that does not read it.
    config = ExperimentConfig(experiment=experiment, n=1024, runs=15, **extra)
    assert config.to_dict()["max_rank"] == extra["max_rank"]


def test_bounds_experiment_passes():
    report = run_experiment(ExperimentConfig(experiment="bounds", n=64))
    assert report.passed
    assert report.summary["cap_identity_error"] <= 1e-9
    json.loads(report.to_json())  # serializable


def test_single_run_records_have_the_full_schema():
    config = ExperimentConfig(experiment="single-run", n=8, runs=5, seed=1)
    report = run_experiment(config)
    assert len(report.rows) == 5
    for row in report.rows:
        assert list(row) == RECORD_FIELDS
    payload = json.loads(report.to_json())
    assert payload["rows"][0]["n"] == 8


def test_single_run_csv_mirrors_json_fields():
    config = ExperimentConfig(experiment="single-run", n=8, runs=3, seed=2)
    report = run_experiment(config)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert len(lines) == 4


def test_reports_identical_across_worker_counts():
    base = dict(experiment="success", n=16, runs=200, seed=5)
    solo = run_experiment(ExperimentConfig(**base, workers=1))
    duo = run_experiment(ExperimentConfig(**base, workers=2))
    assert solo.to_json() == duo.to_json()
    assert solo.to_csv() == duo.to_csv()


def test_table_file_reports_identical_across_worker_counts(tmp_path):
    # Workers receive the table already read.
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{i * 7 % 5}\n" for i in range(16)))
    config = ExperimentConfig(experiment="success", n=16, runs=200, seed=5, table_path=str(path))
    solo = run_experiment(config)
    duo = run_experiment(dataclasses.replace(config, workers=2))
    assert solo.to_json() == duo.to_json()
    assert json.loads(solo.to_json())["config"]["mode"] == "dup:5"


def test_repeated_runs_are_byte_identical():
    config = ExperimentConfig(experiment="lemma1", n=8, runs=150, seed=6)
    assert run_experiment(config).to_json() == run_experiment(config).to_json()


def test_report_renders_json_or_csv_only():
    report = run_experiment(ExperimentConfig(experiment="success", n=4, runs=2, seed=1))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        report.render("xml")


def test_success_report_shape():
    report = run_experiment(ExperimentConfig(experiment="success", n=16, runs=300, seed=7))
    summary = report.summary
    assert summary["runs"] == 300
    assert 0.0 <= summary["wilson99_low"] <= summary["success_fraction"] <= 1.0
    assert summary["floor"] == 0.5


def test_boosted_success_uses_higher_floor():
    report = run_experiment(
        ExperimentConfig(experiment="success", n=16, runs=200, seed=8, boost=2)
    )
    assert report.summary["floor"] == 0.75


def test_lemma1_report_includes_all_ranks():
    report = run_experiment(ExperimentConfig(experiment="lemma1", n=8, runs=400, seed=9))
    assert [row["rank"] for row in report.rows] == list(range(1, 9))
    assert report.rows[0]["frequency"] == 1.0  # the minimum is always reached
    assert {c["check"]: c["ok"] for c in report.checks}["minimum-always-chosen"]


def test_lemma1_dup_verdict_fails_when_it_asserts_no_rank():
    # 50 runs over 8 values leave every rank below MIN_ASSERT_PAIRS pairs.
    config = ExperimentConfig(experiment="lemma1", n=8, runs=50, seed=1, mode="dup:8")
    report = run_experiment(config)
    assert report.summary["asserted_ranks"] == 0
    assert report.summary["worst_asserted_deviation"] is None
    [check] = report.checks
    assert (check["check"], check["estimate"], check["ok"]) == ("rank-frequency", None, False)
    assert not report.passed


def test_lemma1_dup_estimate_is_the_signed_worst_deviation():
    # With one value every entry has rank 1 and a run's only threshold is
    # its start, one of 8 entries: frequency 1/8, a negative deviation that
    # no floor at 0 may hide.
    config = ExperimentConfig(experiment="lemma1", n=8, runs=300, seed=5, mode="dup:1")
    report = run_experiment(config)
    assert report.summary["asserted_ranks"] == 1
    assert report.summary["worst_asserted_deviation"] == -0.875
    assert report.checks[0]["estimate"] == -0.875
    assert report.passed


@pytest.mark.parametrize(
    ("fields", "table_values"),
    [
        ({}, None),
        ({"mode": "dup:3"}, None),
        ({"backend": Backend.EXACT_STATEVECTOR}, None),
        ({}, [4, 2, 7, 2, 9, 0, 4, 0]),
        ({"workers": 2}, [4, 2, 7, 2, 9, 0, 4, 0]),
        ({"mode": "dup:3", "workers": 2}, None),
        ({"backend": Backend.EXACT_STATEVECTOR, "workers": 2}, None),
    ],
    ids=[
        "distinct", "dup", "exact", "table-ties", "table-ties-workers-2", "dup-workers-2",
        "exact-workers-2",
    ],
)
def test_lemma1_fold_matches_a_per_run_bincount_fold(tmp_path, fields, table_values):
    # The report counts ranks by the config's table kind, once per span
    # unless each run draws a dup table; the reference counts every run's
    # ranks and chosen ranks with its own bincount over the same runs.
    if table_values is not None:
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{v}\n" for v in table_values))
        fields = {**fields, "table_path": str(path)}
    config = ExperimentConfig(experiment="lemma1", n=8, runs=300, seed=4, **fields)
    represented = np.zeros(config.n + 1, dtype=np.int64)
    chosen = np.zeros(config.n + 1, dtype=np.int64)
    for ranks, result in harness._run_span(config, ("lemma1",), (0, config.runs)):
        chosen_ranks = [ranks.item(y) for _, y in result.history]
        represented += np.bincount(ranks, minlength=config.n + 1)
        chosen += np.bincount(chosen_ranks, minlength=config.n + 1)
    report = run_experiment(config)
    rows = {row["rank"]: (row["pairs"], row["ever_chosen"]) for row in report.rows}
    expected = {
        r: (int(represented[r]), int(chosen[r])) for r in range(1, config.n + 1) if represented[r]
    }
    assert rows == expected


CHECK_COLUMNS = ["check", "t", "j", "estimate", "expected", "tolerance", "p_value", "ok"]
UNIFORMITY = {f"uniformity-{c}-{b.value}" for b in Backend for c in ("hit", "miss")}
SUCCESS_CHECKS = {"success-floor", "ledger-budget"}
EQUIVALENCE_CHECKS = {"closed-form", "fixed-j", "outcome-distribution", "full-algorithm-success"}


@pytest.mark.parametrize(
    ("fields", "names", "passed"),
    [
        ({"experiment": "success", "n": 16, "runs": 50}, SUCCESS_CHECKS, True),
        ({"experiment": "success", "n": 16, "runs": 50, "boost": 2}, SUCCESS_CHECKS, True),
        # A one-step cap examines nothing, so the floor check fails.
        (
            {"experiment": "success", "n": 64, "runs": 300, "seed": 2, "timeout": 1.0},
            SUCCESS_CHECKS,
            False,
        ),
        (
            {"experiment": "expected-cost", "n": 16, "runs": 50},
            {"first-hit-time-bound", "search-steps-bound"},
            True,
        ),
        # At 50 runs the per-rank 3 SE margins fail some seeds of correct
        # code, so the lemma1 verdicts are not pinned (None).
        (
            {"experiment": "lemma1", "n": 8, "runs": 50},
            {"rank-frequency", "minimum-always-chosen"},
            None,
        ),
        (
            {"experiment": "lemma1", "n": 8, "runs": 50, "backend": Backend.EXACT_STATEVECTOR},
            {"rank-frequency", "minimum-always-chosen"},
            None,
        ),
        ({"experiment": "lemma1", "n": 8, "runs": 50, "mode": "dup:3"}, {"rank-frequency"}, None),
        (
            {"experiment": "bounds", "n": 16},
            {"cap-identity", "search-cost-sweep", "harmonic-sweep"},
            True,
        ),
        (
            {"experiment": "equivalence", "n": 4, "runs": 20},
            EQUIVALENCE_CHECKS | UNIFORMITY,
            True,
        ),
        # No checks, so it always passes.
        ({"experiment": "single-run", "n": 8, "runs": 3}, set(), True),
    ],
    ids=[
        "success", "success-boost", "success-failing", "expected-cost", "lemma1",
        "lemma1-exact", "lemma1-dup", "bounds", "equivalence", "single-run",
    ],
)
def test_every_verdict_is_all_of_its_checks(fields, names, passed):
    report = run_experiment(ExperimentConfig(**fields))
    assert {check["check"] for check in report.checks} == names
    assert all(list(check) == CHECK_COLUMNS for check in report.checks)
    assert report.passed == all(check["ok"] for check in report.checks)
    assert json.loads(report.to_json())["passed"] is report.passed
    if passed is not None:
        assert report.passed is passed


@pytest.mark.parametrize(("n", "passes", "steps"), [(100, 4, 10), (1000, 5, 3)])
def test_ledger_check_allows_for_rounding_at_a_non_power_of_two_n(n, passes, steps):
    # A timeout of exactly passes * lg N + steps lets a run start its last
    # pass with spent equal to the cap, so it ends on cap + lg N up to
    # rounding: some runs' floats read one ulp above it.  Correct code must
    # pass the ledger check all the same.
    lg_n = math.log2(n)
    cap = passes * lg_n + steps
    config = ExperimentConfig(experiment="success", n=n, runs=200, seed=1, timeout=cap)
    runs = harness._run_span(config, ("success",), (0, config.runs))
    spent = max(result.total_spent for _, result in runs)
    assert cap + lg_n < spent <= (cap + lg_n) * (1 + 2**-50)
    checks = {check["check"]: check for check in run_experiment(config).checks}
    assert (checks["ledger-budget"]["estimate"], checks["ledger-budget"]["ok"]) == (0, True)


def test_expected_cost_report_compares_both_bounds():
    report = run_experiment(ExperimentConfig(experiment="expected-cost", n=16, runs=300, seed=10))
    summary = report.summary
    assert summary["mean_first_hit_time"] > 0
    assert summary["cost_bound"] == pytest.approx(45.0 + 0.7 * 16.0, abs=1e-9)
    assert summary["search_steps_bound"] > 0


def test_expected_cost_search_steps_are_exact_integer_means():
    # lg 10 is irrational, so only counted iterations, not total_spent less
    # the init charges, give the exact mean of 2000 integers.
    report = run_experiment(ExperimentConfig(experiment="expected-cost", n=10, runs=2000, seed=1))
    assert report.summary["mean_search_steps"] == 1.294


def test_pickled_config_carries_its_table_file(tmp_path):
    # Workers get the config pickled, with the table it has already read.
    path = tmp_path / "table.txt"
    path.write_text("9\n4\n7\n1\n")
    config = ExperimentConfig(experiment="success", n=4, runs=2, table_path=str(path))
    table = config.fixed_table
    path.unlink()
    clone = pickle.loads(pickle.dumps(config))
    assert np.array_equal(clone.fixed_table.ranks, table.ranks)
    assert np.array_equal(clone.fixed_table.order, table.order)


def test_fixed_table_size_mismatch_is_an_error(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("3\n1\n2\n")
    with pytest.raises(ValueError, match="table file"):
        ExperimentConfig(experiment="success", n=8, runs=10, table_path=str(path))


# The lemma1 config fields of each case, its table file's bytes ("dir" for a
# directory, None for no file at t.txt) and the error it must raise.
BAD_INPUTS = {
    "missing": ({"table_path": "t.txt"}, None, FileNotFoundError, "t.txt"),
    "directory": ({"table_path": "t.txt"}, "dir", IsADirectoryError, "t.txt"),
    "words": ({"table_path": "t.txt"}, b"1\ntwo\n", ValueError, "t.txt:2: not a decimal integer"),
    "empty": ({"table_path": "t.txt"}, b"", ValueError, "t.txt: no values"),
    "binary": ({"table_path": "t.txt"}, b"\xff\xfe", ValueError, "t.txt: not UTF-8 text"),
    "overflow": (
        {"table_path": "t.txt"}, b"1\n9223372036854775808\n", ValueError,
        "t.txt:2: value outside int64 range",
    ),
    "size-mismatch": (
        {"table_path": "t.txt"}, b"1\n2\n", ValueError, "holds 2 values but --n is 8"
    ),
    "max-rank-dup-mode": (
        {"mode": "dup:8", "max_rank": 3}, None, ValueError, "only on distinct tables, not dup:8"
    ),
    "max-rank-tied-file": (
        {"table_path": "t.txt", "max_rank": 3}, b"2\n1\n" * 4, ValueError,
        "only on distinct tables, not dup:2",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_every_input_error_is_raised_while_the_config_is_built(tmp_path, monkeypatch, case):
    # A config that builds is a valid input, so no run may meet one of these.
    fields, contents, error, message = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    if contents == "dir":
        (tmp_path / "t.txt").mkdir()
    elif contents is not None:
        (tmp_path / "t.txt").write_bytes(contents)

    def no_runs(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_fold_runs", no_runs)
    with pytest.raises(error, match=re.escape(message)):
        ExperimentConfig("lemma1", n=8, runs=5, **fields)


def test_fixed_table_is_used_verbatim(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("9\n4\n7\n1\n")
    config = ExperimentConfig(experiment="single-run", n=4, runs=6, seed=11, table_path=str(path))
    report = run_experiment(config)
    # index 3 holds the unique minimum of the fixed table
    for row in report.rows:
        assert row["returned_is_minimum"] == (row["returned_index"] == 3)


def test_closed_form_deviation_is_tiny_for_small_sizes():
    assert closed_form_deviation(8, 6) <= 1e-12


@pytest.mark.parametrize(("n", "depth"), [(169, 12), (170, 13), (256, 15)])
def test_closed_form_is_checked_as_deep_as_a_search_measures(n, depth):
    # A search's saturated cap is ceil(sqrt(n)), so its rounds measure up to
    # ceil(sqrt(n)) - 1 iterations; the check never stops short of 12.
    report = run_experiment(ExperimentConfig(experiment="equivalence", n=n, runs=2, seed=1))
    closed_form = next(row for row in report.checks if row["check"] == "closed-form")
    assert closed_form["j"] == depth
    assert closed_form["ok"]


def test_equivalence_battery_passes_at_small_size():
    report = run_experiment(
        ExperimentConfig(experiment="equivalence", n=8, runs=800, seed=12)
    )
    assert report.passed
    assert all(row["ok"] for row in report.checks)
    assert report.summary["closed_form_deviation"] <= 1e-9
    checks = {row["check"] for row in report.checks}
    assert "closed-form" in checks
    assert "outcome-distribution" in checks
    assert "full-algorithm-success" in checks



def test_equivalence_battery_fails_when_the_analytic_law_is_wrong(monkeypatch):
    # A sampler rotating 10% too far per iteration (t < n; at t = n every
    # round hits whatever the angle) must fail the cross-backend comparison.
    # Only the analytic hit tables are skewed: ``success_probability``,
    # which the closed-form and fixed-j rows read, keeps the true angle.
    extend_hits = grover.extend_hits

    def skewed(probs, n, t, high):
        extend_hits(probs, n, t, high)
        theta = grover.rotation_angle(n, t) * (1.1 if t < n else 1.0)
        probs[:] = [math.sin((2 * j + 1) * theta) ** 2 for j in range(high)]

    monkeypatch.setattr(grover, "extend_hits", skewed)
    report = run_experiment(ExperimentConfig(experiment="equivalence", n=16, runs=1000, seed=1))
    assert not report.passed
    failed = {row["check"] for row in report.checks if not row["ok"]}
    assert "outcome-distribution" in failed


def test_equivalence_fails_when_searches_with_nothing_marked_spend_differently(monkeypatch):
    # With nothing marked both backends must spend exactly the budget's floor.
    search = harness.search

    def short_exact(n, t, budget, growth, rng, backend=Backend.ANALYTIC_SAMPLER):
        used, interrupted, index = search(n, t, budget, growth, rng, backend)
        if t == 0 and backend is Backend.EXACT_STATEVECTOR:
            used -= 1
        return used, interrupted, index

    monkeypatch.setattr(harness, "search", short_exact)
    report = run_experiment(ExperimentConfig(experiment="equivalence", n=16, runs=100, seed=1))
    failed = [(row["check"], row["t"]) for row in report.checks if not row["ok"]]
    assert ("outcome-distribution", 0) in failed

@pytest.mark.parametrize("seed", [29, 31])
def test_fixed_j_rows_pass_near_certain_hits_and_fail_one_iteration_late(monkeypatch, seed):
    # At t = 2, j = 6 of n = 16 a hit has probability 0.99979, so one miss
    # in 200 samples (about 4% likely) is no evidence against the law: the
    # exact binomial test passes it.  Sampling the state one iteration late
    # must still fail every row whose probability that moves by 0.25 or more.
    config = ExperimentConfig(experiment="equivalence", n=16, runs=200, seed=seed)
    rows = [row for row in run_experiment(config).checks if row["check"] == "fixed-j"]
    near_certain = next(row for row in rows if (row["t"], row["j"]) == (2, 6))
    assert near_certain["estimate"] == 0.995 and near_certain["ok"]
    assert all(row["ok"] for row in rows)

    cdf = GroverLadder.cdf
    monkeypatch.setattr(GroverLadder, "cdf", lambda self, j: cdf(self, j + 1))
    late = [row for row in run_experiment(config).checks if row["check"] == "fixed-j"]
    moved = [
        row for row in late
        if abs(success_probability(16, row["t"], row["j"] + 1) - row["expected"]) >= 0.25
    ]
    assert len(moved) >= 10
    assert not any(row["ok"] for row in moved)


def test_equivalence_builds_one_ladder_per_cell(monkeypatch):
    # Each cell's ladder is ``grover.ladder(n, t)``, the ladder an exact
    # search reads.  On the empty shelf a test starts with, the cell builds
    # it once for its fixed-j draws, and each search is handed its backend
    # alone: the exact searches find the ladder in the store.
    ladders = []
    handed = []
    cells = {}
    build = GroverLadder.__init__
    search = harness.search
    cell = harness._equivalence_cell

    def counting_build(self, n, t):
        ladders.append(self)
        build(self, n, t)

    def recording_search(n, t, budget, growth, rng, backend=Backend.ANALYTIC_SAMPLER):
        handed.append(backend)
        return search(n, t, budget, growth, rng, backend)

    def recording_cell(config, t):
        built, searched = len(ladders), len(handed)
        rows = cell(config, t)
        cells[t] = ladders[built:], handed[searched:]
        return rows

    monkeypatch.setattr(GroverLadder, "__init__", counting_build)
    monkeypatch.setattr(harness, "search", recording_search)
    monkeypatch.setattr(harness, "_equivalence_cell", recording_cell)
    run_experiment(ExperimentConfig(experiment="equivalence", n=16, runs=200, seed=1))
    assert sorted(cells) == harness._equivalence_cells(16)
    for t, ((ladder,), searches) in cells.items():
        assert (ladder.n, ladder.t) == (16, t)
        assert ladder is grover.ladder(16, t)
        assert searches == [Backend.EXACT_STATEVECTOR] * 200 + [Backend.ANALYTIC_SAMPLER] * 200


def test_equivalence_cells_make_the_search_call_of_the_runs(monkeypatch):
    # Every search of an equivalence cell and of every algorithm pass is the
    # one ``qsearch.search`` call, handed the backend it runs on, so the cells' analytic rows test the search the analytic
    # runs make.  Each run's searches are counted against its passes.
    calls = []
    run_backends = Counter()
    search = qsearch.search
    find = harness.find_minimum

    def counting(caller):
        def counted(n, t, budget, growth, rng, backend=Backend.ANALYTIC_SAMPLER):
            calls.append((caller, backend is Backend.ANALYTIC_SAMPLER))
            return search(n, t, budget, growth, rng, backend)

        return counted

    def checked_find(table, backend, *args, **kwargs):
        made = len(calls)
        result = find(table, backend, *args, **kwargs)
        analytic = backend is Backend.ANALYTIC_SAMPLER
        assert calls[made:] == [("run", analytic)] * result.loop_passes
        run_backends[backend] += 1
        return result

    monkeypatch.setattr(minfind, "search", counting("run"))
    monkeypatch.setattr(harness, "search", counting("cell"))
    monkeypatch.setattr(harness, "find_minimum", checked_find)
    n, runs = 8, 30
    run_experiment(ExperimentConfig(experiment="equivalence", n=n, runs=runs, seed=2))
    cell_calls = [analytic for caller, analytic in calls if caller == "cell"]
    assert cell_calls == ([False] * runs + [True] * runs) * len(harness._equivalence_cells(n))
    assert run_backends == {backend: runs for backend in Backend}
    for backend in Backend:
        run_experiment(ExperimentConfig(experiment="success", n=n, runs=runs, seed=3, backend=backend))
    assert run_backends == {backend: 2 * runs for backend in Backend}
    assert {caller for caller, _ in calls} == {"run", "cell"}


@pytest.mark.parametrize("experiment", ["success", "single-run"])
@pytest.mark.parametrize("boost", [None, 1, 3])
def test_every_run_and_repetition_is_one_harness_find_minimum_call(monkeypatch, experiment, boost):
    # Boosting repeats the harness's own lookup, so a wrapper on it (as the
    # benchmark's tracer installs) sees each of the c repetitions of a run.
    calls = []
    find = harness.find_minimum

    def counting_find(*args):
        calls.append(args[0])
        return find(*args)

    monkeypatch.setattr(harness, "find_minimum", counting_find)
    config = ExperimentConfig(experiment=experiment, n=64, runs=50, seed=1, boost=boost)
    run_experiment(config)
    assert len(calls) == config.runs * (boost or 1)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    ("workers", "runs", "cpus", "expected"),
    [(64, 10, 3, [3]), (64, 2, 8, [2]), (2, 50, 8, [2]), (5, 50, None, []), (1, 50, 8, [])],
)
def test_workers_are_clamped_to_runs_and_cpus(monkeypatch, workers, runs, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = ExperimentConfig(experiment="success", n=16, runs=runs, seed=13, workers=workers)
    report = run_experiment(config)
    assert _InlineExecutor.started == expected
    # The clamp is a throughput knob only: the report matches a serial run.
    serial = run_experiment(ExperimentConfig(experiment="success", n=16, runs=runs, seed=13))
    assert report.to_json() == serial.to_json()


@pytest.mark.parametrize(
    "fields",
    [
        {"experiment": "success", "n": 100, "runs": 300},
        {"experiment": "expected-cost", "n": 16, "runs": 300},
        {"experiment": "expected-cost", "n": 100, "runs": 300},
        {"experiment": "lemma1", "n": 16, "runs": 300},
        {"experiment": "lemma1", "n": 16, "runs": 300, "mode": "dup:8"},
        {"experiment": "lemma1", "n": 8, "runs": 300, "table_path": "ties"},
        {"experiment": "single-run", "n": 100, "runs": 300},
    ],
    ids=["success", "cost-16", "cost-100", "lemma1", "lemma1-dup", "lemma1-table", "single-run"],
)
def test_reports_do_not_depend_on_how_the_runs_are_split(monkeypatch, tmp_path, fields):
    # The parent adds up exact per-span sums (or concatenates records in
    # span order), so every split of the run range, however uneven, renders
    # the bytes of one serial span.
    if "table_path" in fields:
        path = tmp_path / "table.txt"
        path.write_text("4\n2\n7\n2\n9\n0\n4\n0\n")
        fields = {**fields, "table_path": str(path)}
    serial = run_experiment(ExperimentConfig(**fields, seed=6))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for edges in ([0, 1, 300], [0, 299, 300], [0, 3, 4, 181, 300], [0, 97, 98, 99, 250, 300]):
        monkeypatch.setattr(harness, "_spans", lambda runs, pieces: list(zip(edges, edges[1:])))
        split = run_experiment(ExperimentConfig(**fields, seed=6, workers=2))
        for fmt in ("json", "csv"):
            assert split.render(fmt) == serial.render(fmt), edges
    assert len(_InlineExecutor.started) == 4


@pytest.mark.parametrize("experiment", ["success", "expected-cost"])
def test_fold_state_does_not_grow_with_the_runs(experiment):
    # Each span folds its runs into a few integer sums, so 2 * 10^4 runs
    # keep no per-run record; holding one per run took about 3.5 MB here.
    run_experiment(ExperimentConfig(experiment=experiment, n=4, runs=10, seed=1))
    tracemalloc.start()
    try:
        run_experiment(ExperimentConfig(experiment=experiment, n=4, runs=20_000, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["distinct", "dup:3"])
def test_analytic_runs_fetch_the_shared_distinct_table_once_per_span(monkeypatch, workers, mode):
    # The analytic backend's distinct table is one shared table whose draw
    # reads nothing from the stream, so each span fetches it once; a dup
    # table is drawn from run i's stream, once per run.
    calls = []

    def counting_sorted_table(n, rng, k=None):
        calls.append(k)
        return sorted_table(n, rng, k)

    monkeypatch.setattr(harness, "sorted_table", counting_sorted_table)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = ExperimentConfig(experiment="success", n=16, runs=40, seed=3, mode=mode, workers=workers)
    (tables,) = harness._fold_runs(
        config, ("success",), lambda config, runs: ([ranks for ranks, _ in runs],)
    )
    assert len(tables) == config.runs
    if mode == "distinct":
        spans = 1 if workers == 1 else len(_spans(config.runs, 4 * workers))
        assert calls == [None] * spans
        assert all(ranks is sorted_table(16, None) for ranks in tables)
    else:
        assert calls == [3] * config.runs


_SERIAL_START = """
import json, sys
import qminfind.cli, qminfind.harness
from qminfind.harness import ExperimentConfig, run_experiment
from qminfind.qsearch import Backend

for experiment, backend in json.loads(sys.argv[1]):
    config = ExperimentConfig(experiment=experiment, n=32, runs=20, seed=1, backend=Backend(backend))
    for fmt in ("json", "csv"):
        run_experiment(config).render(fmt)
print(json.dumps(sorted(
    name for name in ("concurrent.futures", "multiprocessing", "subprocess") if name in sys.modules
)))
"""


def test_serial_runs_load_no_process_machinery():
    # Importing the package and running experiments on one worker starts
    # no process, so it loads neither the executor nor subprocess.
    cells = [
        [experiment, backend]
        for experiment in ("single-run", "lemma1", "success", "expected-cost")
        for backend in ("analytic", "exact")
    ]
    result = subprocess.run(
        [sys.executable, "-c", _SERIAL_START, json.dumps(cells)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_runs_draw_sorted_tables_on_both_backends(monkeypatch):
    # Without a table file, runs on either backend take a sorted table: the
    # shared distinct one once per span, a dup one per run.
    calls = Counter()

    def counted(n, rng, k=None):
        calls[k] += 1
        return sorted_table(n, rng, k)

    monkeypatch.setattr(harness, "sorted_table", counted)
    for backend in Backend:
        for mode, drawn in (("distinct", {None: 1}), ("dup:3", {3: 5})):
            calls.clear()
            run_experiment(
                ExperimentConfig(experiment="success", n=16, runs=5, backend=backend, mode=mode)
            )
            assert calls == drawn
        # The choice reaches the runs: single-run records return rank-order
        # positions, so index 0 is the minimum of a distinct table.
        config = ExperimentConfig(experiment="single-run", n=16, runs=40, seed=3, backend=backend)
        for row in run_experiment(config).rows:
            assert row["returned_is_minimum"] == (row["returned_index"] == 0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("uncapped", [False, True], ids=["capped", "uncapped"])
def test_analytic_runs_on_the_sorted_table_match_runs_on_random_permutations(tmp_path, n, uncapped):
    # The law of a run depends only on ranks, so a run reads its table's
    # ranks in value order alone: a file holding a random permutation of
    # 0..n-1 gives every run the drawn distinct table's 1..n, so the same
    # runs on the same streams.  Only a record's returned_index differs: it
    # is the index of the file entry holding the drawn run's position.
    experiments = ("expected-cost", "lemma1") if uncapped else ("success", "single-run")
    path = tmp_path / "permutation.txt"
    for experiment in experiments:
        config = ExperimentConfig(experiment=experiment, n=n, runs=300, seed=17)
        drawn = run_experiment(config)
        for i in range(3):
            values = np.random.default_rng([17, n, i]).permutation(n)
            path.write_text("".join(f"{v}\n" for v in values.tolist()))
            report = run_experiment(dataclasses.replace(config, table_path=str(path)))
            rows = report.rows
            if experiment == "single-run":
                rows = [{**row, "returned_index": values.item(row["returned_index"])} for row in rows]
            assert rows == drawn.rows
            assert (report.summary, report.checks) == (drawn.summary, drawn.checks)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", list(Backend))
def test_table_file_reports_do_not_depend_on_its_arrangement(tmp_path, backend, workers):
    # Runs read a table file's ranks in value order, so the ties file, its
    # sorted copy and a shuffle give the same reports, byte for byte; only a
    # record's returned_index indexes the file, so it names an entry
    # holding the same value in each.
    shuffled = random.Random(3).sample(TIES_TABLE, len(TIES_TABLE))
    arrangements = [TIES_TABLE, sorted(TIES_TABLE, key=int), shuffled]
    assert shuffled not in arrangements[:2]
    reports, records = set(), []
    for i, values in enumerate(arrangements):
        path = tmp_path / f"table-{i}.txt"
        path.write_text("\n".join(values) + "\n")
        fields = dict(n=12, runs=400, seed=4, backend=backend, workers=workers)
        fields["table_path"] = str(path)
        reports.add(tuple(
            run_experiment(ExperimentConfig(experiment=experiment, **fields)).render("csv")
            for experiment in ("lemma1", "success", "expected-cost")
        ))
        rows = run_experiment(ExperimentConfig(experiment="single-run", **fields)).rows
        records.append([{**row, "returned_index": values[row["returned_index"]]} for row in rows])
    assert len(reports) == 1
    assert records[0] == records[1] == records[2]
