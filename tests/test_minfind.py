import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind.bounds import timeout_cap
from qminfind.minfind import RunResult, find_minimum, find_minimum_boosted
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
    boosted = find_minimum_boosted(table, backend, GROWTH, cap, 3, derive_stream(21, "unit-account"))
    replay = derive_stream(21, "unit-account")
    repetitions = [find_minimum(table, backend, GROWTH, cap, replay) for _ in range(3)]
    assert boosted.search_steps == sum(r.search_steps for r in repetitions)
    assert boosted.total_spent == boosted.loop_passes * 6 + boosted.search_steps


def test_single_entry_table_is_immediate():
    table = Table(np.array([7]))
    result = find_minimum(table, ANALYTIC, GROWTH, timeout_cap(1), random.Random(0))
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
    cap = timeout_cap(24)
    boosted = find_minimum_boosted(table, ANALYTIC, GROWTH, cap, 1, derive_stream(10, "unit-boost"))
    single = find_minimum(table, ANALYTIC, GROWTH, cap, derive_stream(10, "unit-boost"))
    assert boosted.returned_index == single.returned_index
    assert boosted.total_spent == single.total_spent
    assert boosted.loop_passes == single.loop_passes


def test_boost_repeat_accumulates_cost():
    table = generate_table(24, random.Random(11))
    cap = timeout_cap(24)
    boosted = find_minimum_boosted(table, ANALYTIC, GROWTH, cap, 3, derive_stream(12, "unit-boost3"))
    replay = derive_stream(12, "unit-boost3")
    total = sum(find_minimum(table, ANALYTIC, GROWTH, cap, replay).total_spent for _ in range(3))
    assert boosted.total_spent == pytest.approx(total)
    assert boosted.loop_passes >= 3


def test_boost_validation():
    table = generate_table(8, random.Random(15))
    with pytest.raises(ValueError):
        find_minimum_boosted(table, ANALYTIC, GROWTH, timeout_cap(8), 0, random.Random(0))


def test_boost_raises_success_rate():
    runs = 300
    plain_hits = 0
    boosted_hits = 0
    for i in range(runs):
        rng = derive_stream(16, "unit-boostgain", i)
        table = generate_table(64, rng)
        # A starved cap makes single runs fail often enough to see the gain.
        plain_hits += find_minimum(table, ANALYTIC, GROWTH, 12.0, rng).returned_is_minimum
        # Extend boosting: one run at three default caps.
        boosted = find_minimum(table, ANALYTIC, GROWTH, 3 * timeout_cap(64), rng)
        boosted_hits += boosted.returned_is_minimum
    assert boosted_hits > plain_hits


@pytest.mark.parametrize("backend", list(Backend))
def test_backends_share_interfaces_end_to_end(backend):
    table = generate_table(16, random.Random(17))
    rng = derive_stream(18, backend.value)
    result = find_minimum(table, backend, GROWTH, math.inf, rng)
    assert result.returned_is_minimum


def test_run_result_records_the_cap_it_used():
    table = generate_table(24, random.Random(19))
    cap = timeout_cap(24)
    assert find_minimum(table, ANALYTIC, GROWTH, cap, random.Random(0)).cap == cap
    assert find_minimum(table, ANALYTIC, GROWTH, 7.5, random.Random(0)).cap == 7.5
    assert find_minimum(table, ANALYTIC, GROWTH, 0.0, random.Random(0)).cap == 0.0
    # Repetitions each run under the cap they are given.
    assert find_minimum_boosted(table, ANALYTIC, GROWTH, cap, 3, random.Random(0)).cap == cap
    # A one-entry table needs no step, whatever the cap.
    single = Table(np.array([4]))
    assert find_minimum(single, ANALYTIC, GROWTH, 9.0, random.Random(0)).cap == 0.0


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
        results.append(find_minimum_boosted(table, backend, GROWTH, timeout_cap(n), 3, rng))
    for result in results:
        for f in dataclasses.fields(RunResult):
            value = getattr(result, f.name)
            if f.name == "history" and value is not None:
                assert all(type(time) is float and type(y) is int for time, y in value)
            else:
                assert type(value) in (int, float, bool, type(None)), (f.name, type(value))
