import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import grover, harness, minfind, qsearch
from qminfind.bounds import timeout_cap
from qminfind.harness import ExperimentConfig, run_experiment
from qminfind.minfind import RunResult, find_minimum
from qminfind.qsearch import DEFAULT_GROWTH, Backend
from qminfind.seeding import derive_stream
from qminfind.table import read_table, sorted_table

ANALYTIC = Backend.ANALYTIC_SAMPLER
GROWTH = DEFAULT_GROWTH


@pytest.mark.parametrize("backend", list(Backend))
def test_run_account_charges_lg_n_per_pass_and_one_step_per_iteration(backend):
    ranks = sorted_table(64, None)
    for seed in range(20):
        for cap in (timeout_cap(64), math.inf, 30.0):
            rng = derive_stream(seed, "unit-account", backend.value)
            result = find_minimum(ranks, backend, GROWTH, cap, rng)
            assert isinstance(result.search_steps, int)
            # lg 64 = 6 and every charge is an integer, so the sum is exact.
            assert result.total_spent == result.loop_passes * 6 + result.search_steps
    cap = timeout_cap(64)
    config = ExperimentConfig(experiment="success", n=64, backend=backend, boost=3)
    boosted = harness._run(config, ranks, derive_stream(21, "unit-account"))
    replay = derive_stream(21, "unit-account")
    repetitions = [find_minimum(ranks, backend, GROWTH, cap, replay) for _ in range(3)]
    assert boosted.search_steps == sum(r.search_steps for r in repetitions)
    assert boosted.total_spent == boosted.loop_passes * 6 + boosted.search_steps


def test_single_entry_table_is_immediate():
    ranks = sorted_table(1, None)
    cap = ExperimentConfig(experiment="single-run", n=1).cap
    result = find_minimum(ranks, ANALYTIC, GROWTH, cap, random.Random(0))
    assert result.returned_index == 0
    assert result.returned_is_minimum
    # Its only entry is the minimum, known before any step.
    assert result.first_hit_time == 0.0
    assert result.total_spent == 0.0
    assert result.loop_passes == 0
    assert result.search_steps == 0


def test_zero_cap_returns_unexamined_start():
    ranks = sorted_table(32, None)
    result = find_minimum(ranks, ANALYTIC, GROWTH, 0.0, random.Random(2))
    assert result.total_spent == 0.0
    assert result.loop_passes == 0
    assert result.search_steps == 0
    assert 0 <= result.returned_index < 32


@given(seed=st.integers(0, 10**6), n=st.integers(2, 128))
def test_capped_run_respects_budget_accounting(seed, n):
    ranks = sorted_table(n, None)
    cap = timeout_cap(n)
    result = find_minimum(ranks, ANALYTIC, GROWTH, cap, derive_stream(seed, "unit-cap", n))
    # Init charges land before the overrun check, so a run may finish at
    # most one lg(n) beyond the cap, never more.
    assert result.total_spent <= cap + math.log2(n)
    assert result.loop_passes >= 1
    assert 0 <= result.returned_index < n


@given(seed=st.integers(0, 2000), n=st.integers(2, 64))
def test_uncapped_run_always_finds_the_minimum(seed, n):
    ranks = sorted_table(n, None)
    result = find_minimum(ranks, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-inf", n))
    assert result.returned_is_minimum
    assert ranks[result.returned_index] == 1
    assert result.first_hit_time == result.total_spent


@given(seed=st.integers(0, 2000), n=st.integers(2, 64), k=st.integers(1, 8))
def test_uncapped_run_reaches_minimal_value_with_duplicates(seed, n, k):
    ranks = sorted_table(n, random.Random(seed), min(k, n))
    result = find_minimum(ranks, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-dup", n, k))
    assert ranks[result.returned_index] == 1


@given(seed=st.integers(0, 2000))
def test_history_thresholds_strictly_improve(seed):
    ranks = sorted_table(48, random.Random(seed), 6)
    result = find_minimum(ranks, ANALYTIC, GROWTH, math.inf, derive_stream(seed, "unit-hist"))
    times = [entry[0] for entry in result.history]
    held = [int(ranks[entry[1]]) for entry in result.history]
    assert times[0] == 0.0
    assert times == sorted(times)
    assert all(b < a for a, b in zip(held, held[1:]))
    assert result.history[-1][1] == result.returned_index


@pytest.mark.parametrize("backend", list(Backend))
def test_an_unmarked_position_never_moves_the_threshold(monkeypatch, backend):
    # A search that returns a position at or above t missed, whatever else
    # it reports: the threshold stays at the start and the history keeps
    # only the start's entry.  Ties put entries of the threshold's own rank
    # among the returned positions.
    search = minfind.search
    returned = []

    def unmarked(n, t, budget, growth, rng, backend=Backend.ANALYTIC_SAMPLER):
        used, interrupted, _ = search(n, t, budget, growth, rng, backend)
        returned.append(rng.randrange(t, n))
        return used, interrupted, returned[-1]

    monkeypatch.setattr(minfind, "search", unmarked)
    ranks = sorted_table(64, random.Random(3), 8)
    for seed in range(20):
        rng = derive_stream(seed, "unit-unmarked", backend.value)
        result = find_minimum(ranks, backend, GROWTH, timeout_cap(64), rng)
        assert result.loop_passes >= 1
        assert result.history == [(0.0, result.returned_index)]
    assert len(returned) > 20 and len(set(returned)) > 1


def test_history_records_first_hit():
    ranks = sorted_table(16, None)
    result = find_minimum(ranks, ANALYTIC, GROWTH, timeout_cap(16), random.Random(6))
    if result.returned_is_minimum:
        assert result.first_hit_time is not None
        assert result.first_hit_time <= result.total_spent


@pytest.mark.parametrize("backend", list(Backend))
def test_runs_are_deterministic_per_stream(backend):
    ranks = sorted_table(32, None)
    cap = timeout_cap(32)
    a = find_minimum(ranks, backend, GROWTH, cap, derive_stream(8, "unit-det", backend.value))
    b = find_minimum(ranks, backend, GROWTH, cap, derive_stream(8, "unit-det", backend.value))
    assert a == b


def test_boost_one_repeat_equals_single_run():
    ranks = sorted_table(24, None)
    config = ExperimentConfig(experiment="success", n=24, boost=1)
    boosted = harness._run(config, ranks, derive_stream(10, "unit-boost"))
    single = find_minimum(ranks, ANALYTIC, GROWTH, timeout_cap(24), derive_stream(10, "unit-boost"))
    assert boosted.returned_index == single.returned_index
    assert boosted.total_spent == single.total_spent
    assert boosted.loop_passes == single.loop_passes


def test_boost_repeat_accumulates_cost():
    ranks = sorted_table(24, None)
    config = ExperimentConfig(experiment="success", n=24, boost=3)
    boosted = harness._run(config, ranks, derive_stream(12, "unit-boost3"))
    replay = derive_stream(12, "unit-boost3")
    repetitions = [find_minimum(ranks, ANALYTIC, GROWTH, config.cap, replay) for _ in range(3)]
    total = sum(result.total_spent for result in repetitions)
    assert boosted.total_spent == pytest.approx(total)
    assert boosted.loop_passes >= 3


@pytest.mark.parametrize("backend", list(Backend))
def test_boost_keeps_the_first_repetition_holding_the_least_value(backend):
    # Ties make several positions hold the least rank, and a starved cap
    # makes repetitions return different ranks; the reference keeps a
    # later repetition only when its rank is strictly smaller.
    stand_in = SimpleNamespace(boost=4, backend=backend, growth=GROWTH, cap=14.0)
    for seed in range(40):
        ranks = sorted_table(24, random.Random(seed), 4)
        boosted = harness._run(stand_in, ranks, derive_stream(seed, "unit-boost-best"))
        replay = derive_stream(seed, "unit-boost-best")
        best = None
        for _ in range(4):
            result = find_minimum(ranks, backend, GROWTH, 14.0, replay)
            rank = ranks[result.returned_index]
            if best is None or rank < ranks[best.returned_index]:
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
    ranks = sorted_table(64, None)
    plain_hits = boosted_hits = 0
    for i in range(runs):
        plain = find_minimum(ranks, ANALYTIC, GROWTH, cap, derive_stream(16, "unit-plain", i))
        boosted = harness._run(stand_in, ranks, derive_stream(16, "unit-boosted", i))
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
    ranks = sorted_table(16, None)
    rng = derive_stream(18, backend.value)
    result = find_minimum(ranks, backend, GROWTH, math.inf, rng)
    assert result.returned_is_minimum


@pytest.mark.parametrize("backend", list(Backend))
def test_single_entry_table_under_a_positive_cap_makes_one_free_pass(backend):
    # lg 1 = 0, and the pass's one round draws j = 0 and ends the search.
    result = find_minimum(sorted_table(1, None), backend, GROWTH, 9.0, random.Random(0))
    assert (result.returned_index, result.returned_is_minimum) == (0, True)
    assert result.first_hit_time == result.total_spent == 0.0
    assert (result.loop_passes, result.search_steps) == (1, 0)


def test_uncapped_single_entry_run_records_history():
    result = find_minimum(sorted_table(1, None), ANALYTIC, GROWTH, math.inf, random.Random(0))
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
        ranks = read_table(path).ranks
    else:
        ranks = sorted_table(n, random.Random(23), None if kind == "distinct" else 3)
    results = []
    for seed in range(10):
        rng = derive_stream(seed, "unit-scalars")
        for cap in (timeout_cap(n), math.inf, 25.0, 0.0):
            results.append(find_minimum(ranks, backend, GROWTH, cap, rng))
        boosted = ExperimentConfig(experiment="success", n=n, backend=backend, boost=3)
        results.append(harness._run(boosted, ranks, rng))
    for result in results:
        for f in dataclasses.fields(RunResult):
            value = getattr(result, f.name)
            if f.name == "history" and value is not None:
                assert all(type(time) is float and type(y) is int for time, y in value)
            else:
                assert type(value) in (int, float, bool, type(None)), (f.name, type(value))


EXACT_REPORTS = {
    "success": dict(experiment="success", n=256, runs=300, seed=3),
    "cost": dict(experiment="expected-cost", n=64, runs=200, seed=4),
    "lemma1": dict(experiment="lemma1", n=64, runs=300, seed=2),
    "run": dict(experiment="single-run", n=100, runs=20, seed=2),
}


@pytest.mark.parametrize("fields", EXACT_REPORTS.values(), ids=EXACT_REPORTS)
def test_exact_reports_keep_their_bytes_however_warm_the_ladder_shelf(monkeypatch, fields):
    # Exact searches read their ladders from ``grover.ladder``'s store.  Cold,
    # warm, after a run at another n, at two workers, on a cold store with
    # room for about two ladders (so it evicts while the runs go on), and
    # with every pass building a fresh ladder (the store bypassed), the
    # report is the same.
    config = ExperimentConfig(backend=Backend.EXACT_STATEVECTOR, **fields)

    def render(config):
        report = run_experiment(config)
        return report.render("json"), report.render("csv")

    cold = render(config)
    assert grover._shelf(config.n)
    warm = render(config)
    run_experiment(dataclasses.replace(config, n=2 * config.n))
    after_another_n = render(config)
    two_workers = render(dataclasses.replace(config, workers=2))
    grover._shelf.cache_clear()
    # The most one ladder holds: a search's j stays below its saturated cap
    # ceil(sqrt(n)), so ceil(sqrt(n)) CDFs of n floats and its amplitude copy.
    deepest = (math.ceil(math.sqrt(config.n)) * 8 + 16) * config.n
    monkeypatch.setattr(grover, "KEPT_LADDER_BYTES", 2 * deepest)
    builds = []
    build = grover.GroverLadder.__init__

    def counting_build(self, n, t):
        builds.append(t)
        build(self, n, t)

    monkeypatch.setattr(grover.GroverLadder, "__init__", counting_build)
    evicting = render(config)
    # Some t was shelved again after its ladder was evicted.
    assert len(builds) > len(set(builds))
    monkeypatch.setattr(grover, "ladder", grover.GroverLadder)
    fresh = render(config)
    assert cold == warm == after_another_n == two_workers == evicting == fresh


ANALYTIC_REPORTS = {
    "success": dict(experiment="success", n=256, runs=300, seed=3),
    "lemma1": dict(experiment="lemma1", n=64, runs=300, seed=2),
    "cost": dict(experiment="expected-cost", n=64, runs=200, seed=4),
    "cost-dup8": dict(experiment="expected-cost", n=64, runs=200, seed=4, mode="dup:8"),
}


@pytest.mark.parametrize("fields", ANALYTIC_REPORTS.values(), ids=ANALYTIC_REPORTS)
def test_analytic_reports_keep_their_bytes_however_warm_the_hit_tables(monkeypatch, fields):
    # Analytic rounds read their hit probabilities from ``grover``'s store
    # of hit tables.  Cold, warm, after a run at another n, at two workers,
    # with a bound of a few tables (so the store evicts while the runs go
    # on), and with every search on a fresh table (the store bypassed), the
    # report is the same.
    config = ExperimentConfig(**fields)

    def render(config):
        report = run_experiment(config)
        return report.render("json"), report.render("csv")

    cold = render(config)
    assert grover._hit_tables(config.n)
    warm = render(config)
    run_experiment(dataclasses.replace(config, n=2 * config.n))
    after_another_n = render(config)
    two_workers = render(dataclasses.replace(config, workers=2))
    grover._hit_tables.cache_clear()
    # Four tables of 16 entries, the deepest at n = 256.
    four_tables = 4 * (qsearch._TABLE_BYTES + 16 * qsearch._ENTRY_BYTES)
    monkeypatch.setattr(grover, "KEPT_HIT_BYTES", four_tables)
    evicted = []
    grow = grover._Store.grow

    def counting_grow(self, t, table, size):
        stored = len(self) + (t not in self)
        grow(self, t, table, size)
        evicted.append(stored - len(self))

    monkeypatch.setattr(grover._Store, "grow", counting_grow)
    evicting = render(config)
    assert sum(evicted) > 1
    monkeypatch.setattr(qsearch, "_hit_tables", lambda n: grover._Store(four_tables))
    fresh = render(config)
    assert cold == warm == after_another_n == two_workers == evicting == fresh


def test_an_exact_run_computes_each_state_it_measures_once(monkeypatch):
    # Exact rounds grow a ladder only to the j they draw, and read a state
    # it holds without computing it again.  The shelf evicts nothing at
    # n = 256, so every state the run computed is still held, once; a
    # ladder grown past the j its round drew computes more than the pinned
    # count.
    reflected = []
    reflect = grover._reflect

    def counting_reflect(amps, t):
        reflected.append(t)
        reflect(amps, t)

    monkeypatch.setattr(grover, "_reflect", counting_reflect)
    config = ExperimentConfig(
        experiment="success", n=256, runs=300, seed=1, backend=Backend.EXACT_STATEVECTOR
    )
    run_experiment(config)
    shelf = grover._shelf(config.n)
    assert len(reflected) == sum(len(held._cdfs) - 1 for held in shelf.values()) == 207
    assert len(shelf) == 226
