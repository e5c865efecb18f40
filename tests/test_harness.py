import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import __version__, harness, minfind, qsearch
from qminfind.bounds import timeout_cap
from qminfind.harness import (
    CHI2_ALPHA,
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
from qminfind.minfind import find_minimum
from qminfind.qsearch import DEFAULT_GROWTH, Backend
from qminfind.seeding import derive_stream
from qminfind.table import generate_table, sorted_table

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
    # Standard textbook example, worked out independently.
    lo, hi = wilson_interval(55, 100, z=1.96)
    assert lo == pytest.approx(0.45244427031643447, abs=1e-12)
    assert hi == pytest.approx(0.6438562489359654, abs=1e-12)


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
    stat, p, dof = two_sample_chisquare(a, b, min_pooled=1)
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
                stat, p, k = two_sample_chisquare(a, other, min_pooled=1)
                assert k == dof and p == float(stats.chi2.sf(stat, dof)), (a, other)


def test_chisquare_identical_samples():
    a = Counter({0: 10, 1: 20})
    assert two_sample_chisquare(a, a) == (0.0, 1.0, 1)


def test_chisquare_pools_sparse_bins():
    a = Counter({0: 100, 1: 3, 2: 2, 3: 1})
    b = Counter({0: 90, 1: 4, 2: 4, 3: 3})
    stat, p, dof = two_sample_chisquare(a, b, min_pooled=10)
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
    with pytest.raises(ValueError, match="sweep_max must lie in"):
        ExperimentConfig(experiment="bounds", sweep_max=10**7 + 1)
    # The limits themselves are accepted (building a config allocates nothing).
    ExperimentConfig(experiment="success", n=2**24)
    ExperimentConfig(experiment="lemma1", n=2**17)
    ExperimentConfig(experiment="bounds", sweep_max=10**7)


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


@pytest.mark.parametrize("experiment", ["lemma1", "success", "expected-cost", "single-run"])
def test_mode_label_reads_a_table_file_once_per_invocation(monkeypatch, tmp_path, experiment):
    # A table file's kind is an np.unique over its values, which sorts the
    # whole table; lemma1 reads the label in its fold and in its report.
    path = tmp_path / "ties.txt"
    path.write_text("".join(f"{v}\n" for v in (5, 3, 3, 9, 1, 1, 1, 7, 2, 5, 8, 0)))
    unique, calls = np.unique, []

    def counting(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
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
        "j_max": 4,
        "sweep_max": 100,
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
    report = run_experiment(ExperimentConfig(experiment="bounds", n=64, sweep_max=10**4))
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


def _full_ranks_record(table, result):
    """Every rank of the run's table, and the ranks its threshold held."""
    return table.ranks, [table.ranks.item(y) for _, y in result.history]


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
def test_lemma1_fold_matches_a_per_run_bincount_fold(
    monkeypatch, tmp_path, fields, table_values
):
    # The report counts ranks by the config's table kind; the reference
    # counts every run's ranks and chosen ranks with its own bincount over
    # the same runs.
    if table_values is not None:
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{v}\n" for v in table_values))
        fields = {**fields, "table_path": str(path)}
    config = ExperimentConfig(experiment="lemma1", n=8, runs=300, seed=4, **fields)
    represented = np.zeros(config.n + 1, dtype=np.int64)
    chosen = np.zeros(config.n + 1, dtype=np.int64)
    for ranks, chosen_ranks in harness._map_runs(config, ("lemma1",), _full_ranks_record):
        represented += np.bincount(ranks, minlength=config.n + 1)
        chosen += np.bincount(chosen_ranks, minlength=config.n + 1)
    # Only a drawn dup table's record ships its rank classes, at most k.
    records = []
    map_runs = harness._map_runs

    def recording_map_runs(*args):
        for record in map_runs(*args):
            records.append(record)
            yield record

    monkeypatch.setattr(harness, "_map_runs", recording_map_runs)
    report = run_experiment(config)
    assert len(records) == config.runs
    for classes, _ in records:
        if table_values is None and config.dup_k is not None:
            ranks, counts = classes
            assert len(ranks) == len(counts) <= config.dup_k
            assert counts.sum() == config.n
        else:
            assert classes is None
    rows = {row["rank"]: (row["pairs"], row["ever_chosen"]) for row in report.rows}
    expected = {
        r: (int(represented[r]), int(chosen[r])) for r in range(1, config.n + 1) if represented[r]
    }
    assert rows == expected


CHECK_COLUMNS = ["check", "t", "j", "estimate", "expected", "tolerance", "p_value", "ok"]
UNIFORMITY = {f"uniformity-{c}-{b.value}" for b in Backend for c in ("hit", "miss")}
EQUIVALENCE_CHECKS = {"closed-form", "fixed-j", "outcome-distribution", "full-algorithm-success"}


@pytest.mark.parametrize(
    ("fields", "names", "passed"),
    [
        ({"experiment": "success", "n": 16, "runs": 50}, {"success-floor"}, True),
        ({"experiment": "success", "n": 16, "runs": 50, "boost": 2}, {"success-floor"}, True),
        # A one-step cap examines nothing, so the floor check fails.
        (
            {"experiment": "success", "n": 64, "runs": 300, "seed": 2, "timeout": 1.0},
            {"success-floor"},
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
            {"experiment": "bounds", "n": 16, "sweep_max": 100},
            {"cap-identity", "search-cost-sweep", "harmonic-sweep"},
            True,
        ),
        (
            {"experiment": "equivalence", "n": 4, "runs": 20, "j_max": 2},
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
    assert np.array_equal(clone.fixed_table.values, table.values)


def test_fixed_table_size_mismatch_is_an_error(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("3\n1\n2\n")
    config = ExperimentConfig(experiment="success", n=8, runs=10, table_path=str(path))
    with pytest.raises(ValueError, match="table file"):
        run_experiment(config)


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
    rotation_angle = qsearch.rotation_angle

    def skewed(n, t):
        return rotation_angle(n, t) * (1.1 if t < n else 1.0)

    monkeypatch.setattr(qsearch, "rotation_angle", skewed)
    report = run_experiment(ExperimentConfig(experiment="equivalence", n=16, runs=1000, seed=1))
    assert not report.passed
    failed = {row["check"] for row in report.checks if not row["ok"]}
    assert "outcome-distribution" in failed


def test_equivalence_fails_when_searches_with_nothing_marked_spend_differently(monkeypatch):
    # With nothing marked both backends must spend exactly the budget's floor.
    search = harness.search

    def short_exact(n, t, budget, growth, rng, ladder=None):
        hit, used, interrupted, index = search(n, t, budget, growth, rng, ladder)
        if t == 0 and ladder is not None:
            used -= 1
        return hit, used, interrupted, index

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
    # Each cell builds one ladder marking 0..t-1, which serves the cell's
    # fixed-j draws and is handed to every exact search of the cell; its
    # analytic searches get none.
    ladders = []
    handed = []
    cells = {}
    build = GroverLadder.__init__
    search = harness.search
    cell = harness._equivalence_cell

    def counting_build(self, mask):
        ladders.append(self)
        build(self, mask)

    def recording_search(n, t, budget, growth, rng, ladder=None):
        handed.append(ladder)
        return search(n, t, budget, growth, rng, ladder)

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
        assert ladder.mask.tolist() == [i < t for i in range(16)]
        assert searches == [ladder] * 200 + [None] * 200


def test_equivalence_cells_make_the_search_call_of_the_runs(monkeypatch):
    # Every search of an equivalence cell and of every algorithm pass is the
    # one ``qsearch.search`` call, with a ladder exactly on the exact
    # backend, so the cells' analytic rows test the search the analytic
    # runs make.  Each run's searches are counted against its passes.
    calls = []
    run_backends = Counter()
    search = qsearch.search
    find = harness.find_minimum

    def counting(caller):
        def counted(n, t, budget, growth, rng, ladder=None):
            calls.append((caller, ladder is None))
            return search(n, t, budget, growth, rng, ladder)

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
    run_experiment(ExperimentConfig(experiment="equivalence", n=n, runs=runs, seed=2, j_max=2))
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
    tables = list(harness._map_runs(config, ("success",), lambda table, result: table))
    assert len(tables) == config.runs
    if mode == "distinct":
        spans = 1 if workers == 1 else len(_spans(config.runs, 4 * workers))
        assert calls == [None] * spans
        assert all(table is sorted_table(16, None) for table in tables)
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


def test_runs_draw_sorted_tables_on_the_analytic_backend_only(monkeypatch):
    # Without a table file, exact runs draw a random arrangement per run and
    # analytic runs a sorted table: the shared distinct one once per span,
    # a dup one per run.
    calls = Counter()

    def counting(draw):
        def counted(n, rng, k=None):
            calls[draw.__name__] += 1
            return draw(n, rng, k)

        return counted

    monkeypatch.setattr(harness, "sorted_table", counting(sorted_table))
    monkeypatch.setattr(harness, "generate_table", counting(generate_table))
    expected = {
        (Backend.EXACT_STATEVECTOR, "distinct"): {"generate_table": 5},
        (Backend.EXACT_STATEVECTOR, "dup:3"): {"generate_table": 5},
        (Backend.ANALYTIC_SAMPLER, "distinct"): {"sorted_table": 1},
        (Backend.ANALYTIC_SAMPLER, "dup:3"): {"sorted_table": 5},
    }
    for (backend, mode), drawn in expected.items():
        calls.clear()
        run_experiment(
            ExperimentConfig(experiment="success", n=16, runs=5, backend=backend, mode=mode)
        )
        assert calls == drawn
    # The choice reaches the runs: analytic single-run records return
    # rank-order positions, so index 0 is the minimum of a distinct table.
    report = run_experiment(ExperimentConfig(experiment="single-run", n=16, runs=40, seed=3))
    for row in report.rows:
        assert row["returned_is_minimum"] == (row["returned_index"] == 0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("uncapped", [False, True], ids=["capped", "uncapped"])
def test_analytic_runs_on_the_sorted_table_match_runs_on_random_permutations(n, uncapped):
    # The analytic law depends only on ranks, so runs on the table analytic
    # runs draw must be distributed as runs on random permutations: compare
    # loop passes and first-hit times by a two-sample chi-square.
    runs = 2500
    cap = math.inf if uncapped else timeout_cap(n)
    passes = {"sorted": Counter(), "random": Counter()}
    first_hit = {"sorted": Counter(), "random": Counter()}
    for label, source in (("sorted", sorted_table), ("random", generate_table)):
        for i in range(runs):
            rng = derive_stream(17, "unit-rank-space", label, n, i)
            table = source(n, rng)
            result = find_minimum(table, Backend.ANALYTIC_SAMPLER, DEFAULT_GROWTH, cap, rng)
            passes[label][result.loop_passes] += 1
            first_hit[label][-1.0 if result.first_hit_time is None else result.first_hit_time] += 1
    for counts in (passes, first_hit):
        _, p_value, dof = two_sample_chisquare(counts["sorted"], counts["random"])
        assert dof >= 3
        assert p_value > CHI2_ALPHA
