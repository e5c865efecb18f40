import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import harness
from qminfind.bounds import timeout_cap
from qminfind.harness import ExperimentConfig
from qminfind.minfind import RunResult, find_minimum
from qminfind.qsearch import DEFAULT_GROWTH, Backend
from qminfind.seeding import derive_stream
from qminfind.table import Table, generate_table, read_table, sorted_table

ANALYTIC = Backend.ANALYTIC_SAMPLER
GROWTH = DEFAULT_GROWTH


@pytest.mark.parametrize("backend", list(Backend))
def test_run_account_charges_lg_n_per_pass_and_one_step_per_iteration(backend):
    table = generate_table(64, random.Random(20))
    for seed in range(20):
        for cap in (timeout_cap(64), math.inf, 30.0):
            rng = derive_stream(seed, "unit-account", backend.value)
            result = find_minimum(table, backend, GROWTH, cap, rng)
            assert isinstance(result.search_steps, int)
            # lg 64 = 6 and every charge is an integer, so the sum is exact.
            assert result.total_spent == result.loop_passes * 6 + result.search_steps
    cap = timeout_cap(64)
    config = ExperimentConfig(experiment="success", n=64, backend=backend, boost=3)
    boosted = harness._run(config, table, derive_stream(21, "unit-account"))
    replay = derive_stream(21, "unit-account")
    repetitions = [find_minimum(table, backend, GROWTH, cap, replay) for _ in range(3)]
    assert boosted.search_steps == sum(r.search_steps for r in repetitions)
    assert boosted.total_spent == boosted.loop_passes * 6 + boosted.search_steps


def test_single_entry_table_is_immediate():
    table = Table(np.array([7]))
    cap = ExperimentConfig(experiment="single-run", n=1).cap
    result = find_minimum(table, ANALYTIC, GROWTH, cap, random.Random(0))
    assert result.returned_index == 0
    assert result.returned_is_minimum
    # Its only entry is the minimum, known before any step.
    assert result.first_hit_time == 0.0
    assert result.total_spent == 0.0
    assert result.loop_passes == 0
    assert result.search_steps == 0


def test_zero_cap_returns_unexamined_start():
    table = generate_table(32, random.Random(1))
    result = find_minimum(table, ANALYTIC, GROWTH, 0.0, random.Random(2))
    assert result.total_spent == 0.0
    assert result.loop_passes == 0
    assert result.search_steps == 0
    assert 0 <= result.returned_index < 32


@given(seed=st.integers(0, 10**6), n=st.integers(2, 128))
def test_capped_run_respects_budget_accounting(seed, n):
    table = generate_table(n, random.Random(seed))
    cap = timeout_cap(n)
    result = find_minimum(table, ANALYTIC, GROWTH, cap, derive_stream(seed, "unit-cap", n))
    # Init charges land before the overrun check, so a run may finish at
    # most one lg(n) beyond the cap, never more.
    assert result.total_spent <= cap + math.log2(n)
    assert result.loop_passes >= 1
    assert 0 <= result.returned_index < n


@given(seed=st.integers(0, 2000), n=st.integers(2, 64))
def test_uncapped_run_always_finds_the_minimum(seed, n):
    table = generate_table(n, random.Random(seed))
    result = find_minimum(table, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-inf", n))
    assert result.returned_is_minimum
    assert table.ranks[result.returned_index] == 1
    assert result.first_hit_time == result.total_spent


@given(seed=st.integers(0, 2000), n=st.integers(2, 64), k=st.integers(1, 8))
def test_uncapped_run_reaches_minimal_value_with_duplicates(seed, n, k):
    table = generate_table(n, random.Random(seed), k=min(k, n))
    result = find_minimum(table, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-dup", n, k))
    assert int(table.values[result.returned_index]) == table.values.min()


@given(seed=st.integers(0, 2000))
def test_history_thresholds_strictly_improve(seed):
    table = generate_table(48, random.Random(seed), k=6)
    result = find_minimum(table, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-hist"))
    times = [entry[0] for entry in result.history]
    values = [int(table.values[entry[1]]) for entry in result.history]
    assert times[0] == 0.0
    assert times == sorted(times)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.history[-1][1] == result.returned_index


def test_history_records_first_hit():
    table = generate_table(16, random.Random(5))
    result = find_minimum(table, ANALYTIC, GROWTH, timeout_cap(16), random.Random(6))
    if result.returned_is_minimum:
        assert result.first_hit_time is not None
        assert result.first_hit_time <= result.total_spent


@pytest.mark.parametrize("backend", list(Backend))
def test_runs_are_deterministic_per_stream(backend):
    table = generate_table(32, random.Random(7))
    cap = timeout_cap(32)
    a = find_minimum(table, backend, GROWTH, cap, derive_stream(8, "unit-det", backend.value))
    b = find_minimum(table, backend, GROWTH, cap, derive_stream(8, "unit-det", backend.value))
    assert a == b


def test_boost_one_repeat_equals_single_run():
    table = generate_table(24, random.Random(9))
    config = ExperimentConfig(experiment="success", n=24, boost=1)
    boosted = harness._run(config, table, derive_stream(10, "unit-boost"))
    single = find_minimum(table, ANALYTIC, GROWTH, timeout_cap(24), derive_stream(10, "unit-boost"))
    assert boosted.returned_index == single.returned_index
    assert boosted.total_spent == single.total_spent
    assert boosted.loop_passes == single.loop_passes


def test_boost_repeat_accumulates_cost():
    table = generate_table(24, random.Random(11))
    config = ExperimentConfig(experiment="success", n=24, boost=3)
    boosted = harness._run(config, table, derive_stream(12, "unit-boost3"))
    replay = derive_stream(12, "unit-boost3")
    repetitions = [find_minimum(table, ANALYTIC, GROWTH, config.cap, replay) for _ in range(3)]
    total = sum(result.total_spent for result in repetitions)
    assert boosted.total_spent == pytest.approx(total)
    assert boosted.loop_passes >= 3


@pytest.mark.parametrize("backend", list(Backend))
def test_boost_keeps_the_first_repetition_holding_the_least_value(backend):
    # Ties make several indices hold the least value, and a starved cap
    # makes repetitions return different values; the reference keeps a
    # later repetition only when its value is strictly smaller.
    stand_in = SimpleNamespace(boost=4, backend=backend, growth=GROWTH, cap=14.0)
    for seed in range(40):
        table = generate_table(24, random.Random(seed), k=4)
        boosted = harness._run(stand_in, table, derive_stream(seed, "unit-boost-best"))
        replay = derive_stream(seed, "unit-boost-best")
        best = None
        for _ in range(4):
            result = find_minimum(table, backend, GROWTH, 14.0, replay)
            value = table.values[result.returned_index]
            if best is None or value < table.values[best.returned_index]:
                best = result
        assert boosted.returned_index == best.returned_index
        assert boosted.returned_is_minimum == best.returned_is_minimum


def test_boost_raises_success_rate():
    # A starved cap makes single runs fail often enough to see the gain.
    # The analytic law depends only on ranks, so every run has the same
    # single-run success probability p, and the best of three independent
    # repetitions succeeds with probability 1 - (1 - p)^3.  The config
    # rejects a timeout with boosting, so a stand-in carries the fields
    # ``_run`` reads.
    runs, cap = 6000, 12.0
    stand_in = SimpleNamespace(boost=3, backend=ANALYTIC, growth=GROWTH, cap=cap)
    table = generate_table(64, random.Random(16))
    plain_hits = boosted_hits = 0
    for i in range(runs):
        plain = find_minimum(table, ANALYTIC, GROWTH, cap, derive_stream(16, "unit-plain", i))
        boosted = harness._run(stand_in, table, derive_stream(16, "unit-boosted", i))
        plain_hits += plain.returned_is_minimum
        boosted_hits += boosted.returned_is_minimum
    assert boosted_hits > plain_hits
    p = plain_hits / runs
    predicted = 1 - (1 - p) ** 3
    # The boosted fraction's binomial variance plus the prediction's, by the
    # delta method through p-hat.
    se = math.sqrt(
        predicted * (1 - predicted) / runs + (3 * (1 - p) ** 2) ** 2 * p * (1 - p) / runs
    )
    assert abs(boosted_hits / runs - predicted) <= 4 * se


@pytest.mark.parametrize("backend", list(Backend))
def test_backends_share_interfaces_end_to_end(backend):
    table = generate_table(16, random.Random(17))
    rng = derive_stream(18, backend.value)
    result = find_minimum(table, backend, GROWTH, math.inf, rng)
    assert result.returned_is_minimum


@pytest.mark.parametrize("backend", list(Backend))
def test_single_entry_table_under_a_positive_cap_makes_one_free_pass(backend):
    # lg 1 = 0, and the pass's one round draws j = 0 and ends the search.
    result = find_minimum(Table(np.array([4])), backend, GROWTH, 9.0, random.Random(0))
    assert (result.returned_index, result.returned_is_minimum) == (0, True)
    assert result.first_hit_time == result.total_spent == 0.0
    assert (result.loop_passes, result.search_steps) == (1, 0)


def test_uncapped_single_entry_run_records_history():
    result = find_minimum(Table(np.array([4])), ANALYTIC, GROWTH, math.inf, random.Random(0))
    assert result.history == [(0.0, 0)]
    assert result.first_hit_time == result.total_spent == 0.0


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("kind", ["distinct", "dup", "table-file"])
def test_run_results_hold_python_scalars(tmp_path, backend, kind):
    # Reports render and fold these fields as they come, so none may be a
    # numpy scalar (np.float64 even passes isinstance(value, float)).
    n = 16
    if kind == "table-file":
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{i * 7 % 5}\n" for i in range(n)))
        table = read_table(path)
    else:
        draw = sorted_table if backend is ANALYTIC else generate_table
        table = draw(n, random.Random(23), None if kind == "distinct" else 3)
    results = []
    for seed in range(10):
        rng = derive_stream(seed, "unit-scalars")
        for cap in (timeout_cap(n), math.inf, 25.0, 0.0):
            results.append(find_minimum(table, backend, GROWTH, cap, rng))
        boosted = ExperimentConfig(experiment="success", n=n, backend=backend, boost=3)
        results.append(harness._run(boosted, table, rng))
    for result in results:
        for f in dataclasses.fields(RunResult):
            value = getattr(result, f.name)
            if f.name == "history" and value is not None:
                assert all(type(time) is float and type(y) is int for time, y in value)
            else:
                assert type(value) in (int, float, bool, type(None)), (f.name, type(value))
