import gc
import math
import random
import weakref
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import grover, harness, qsearch
from qminfind.grover import GroverLadder, rotation_angle, success_probability
from qminfind.harness import ExperimentConfig, run_experiment
from qminfind.qsearch import Backend
from reference_grover import StateVector, grover_iterate, marked_subset, uniform_state

# Success curve for 2 marked of 8, derived by hand from the rotation angle
# asin(sqrt(2/8)) = pi/6: probabilities cycle 1/4, 1, 1/4, 1/4, 1, ...
TWO_OF_EIGHT_CURVE = [
    0.25,
    1.0,
    0.24999999999999956,
    0.2500000000000001,
    1.0,
    0.24999999999999967,
]


def test_uniform_state_is_normalized():
    state = uniform_state(10)
    assert len(state) == 10
    assert state.probabilities() == pytest.approx(np.full(10, 0.1))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([1.0, 1.0]))


def test_statevector_rejects_empty():
    with pytest.raises(ValueError):
        StateVector(np.array([]))


def test_iterate_matches_hand_derived_curve():
    marked = marked_subset([0, 1])
    state = uniform_state(8)
    for j, expected in enumerate(TWO_OF_EIGHT_CURVE):
        if j > 0:
            state = grover_iterate(state, marked)
        assert state.subset_probability(marked) == pytest.approx(expected, abs=1e-9)
        assert success_probability(8, 2, j) == pytest.approx(expected, abs=1e-12)


def test_single_iteration_is_certain_for_one_of_four():
    state = grover_iterate(uniform_state(4), marked_subset([2]))
    assert state.subset_probability(marked_subset([2])) == pytest.approx(1.0, abs=1e-12)


def test_iterate_does_not_mutate_input():
    state = uniform_state(6)
    before = state.amplitudes.copy()
    grover_iterate(state, marked_subset([0]))
    assert np.array_equal(state.amplitudes, before)


def test_one_oracle_query_per_iteration():
    calls = 0

    def counting(indices):
        nonlocal calls
        calls += 1
        return np.isin(indices, [1, 4])

    state = uniform_state(8)
    for _ in range(5):
        state = grover_iterate(state, counting)
    assert calls == 5


def test_predicate_shape_is_checked():
    with pytest.raises(ValueError, match="shape"):
        grover_iterate(uniform_state(4), lambda idx: np.array([True]))


@given(n=st.integers(1, 64), seed=st.integers(0, 10**6))
def test_iterate_preserves_norm(n, seed):
    rng = random.Random(seed)
    marked = marked_subset(rng.sample(range(n), rng.randint(0, n)))
    state = uniform_state(n)
    for _ in range(3):
        state = grover_iterate(state, marked)  # constructor re-checks the norm
    assert float(np.sum(state.probabilities())) == pytest.approx(1.0, abs=1e-9)


@given(n=st.integers(1, 128), t_frac=st.floats(0.0, 1.0), j=st.integers(0, 20))
def test_success_probability_stays_in_unit_interval(n, t_frac, j):
    t = round(t_frac * n)
    p = success_probability(n, t, j)
    assert 0.0 <= p <= 1.0


@given(n=st.integers(1, 128), j=st.integers(0, 20))
def test_success_probability_edges(n, j):
    assert success_probability(n, 0, j) == 0.0
    assert success_probability(n, n, j) == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(1, 128), t_frac=st.floats(0.0, 1.0))
def test_zero_iterations_measures_the_uniform_state(n, t_frac):
    t = round(t_frac * n)
    assert success_probability(n, t, 0) == pytest.approx(t / n, abs=1e-12)


def test_success_probability_rejects_bad_domain():
    with pytest.raises(ValueError):
        success_probability(8, 9, 0)
    with pytest.raises(ValueError):
        success_probability(8, -1, 0)
    with pytest.raises(ValueError):
        success_probability(8, 2, -1)
    with pytest.raises(ValueError):
        rotation_angle(0, 0)


def test_measure_follows_amplitude_weights():
    # One of 16 marked, one iteration: the marked index 0 has probability
    # sin^2(3 asin(1/4)) = 0.47265625.
    ladder = GroverLadder(16, 1)
    rng = random.Random(99)
    draws = 4000
    p = success_probability(16, 1, 1)
    hits = sum(ladder.measure(1, rng) == 0 for _ in range(draws))
    # 4 standard errors around p.
    assert abs(hits / draws - p) < 4 * math.sqrt(p * (1 - p) / draws)


def test_measure_is_deterministic_per_stream():
    ladder = GroverLadder(32, 2)

    def draws(j):
        rng = random.Random(5)
        return [ladder.measure(j, rng) for _ in range(20)]

    for j in range(5):
        assert draws(j) == draws(j)


def test_measure_returns_valid_index():
    ladder = GroverLadder(7, 1)
    rng = random.Random(1)
    for _ in range(200):
        index = ladder.measure(rng.randrange(4), rng)
        assert type(index) is int and 0 <= index < 7


@given(
    n=st.integers(1, 2048),
    density=st.floats(0.0, 1.0),
    j_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_measure_is_one_draw_searched_on_the_state_cdf(n, density, j_frac, seed):
    ladder = GroverLadder(n, round(density * n))
    j = round(j_frac * math.ceil(math.sqrt(n)))
    rng, twin = random.Random(seed), random.Random(seed)
    index = ladder.measure(j, rng)
    cdf = ladder.cdf(j)
    u = twin.random()
    assert index == min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), n - 1)
    # Exactly one ``random()``: the two streams are in step again.
    assert rng.getstate() == twin.getstate()


class _Scripted:
    """An rng whose every ``random()`` returns ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_measure_never_lands_on_a_cell_of_probability_zero(u):
    # Three of four marked, one iteration: the state is exactly the
    # unmarked index 3.  The least and the greatest draw must both measure
    # it, not the zero cells below it (a left bisection would measure
    # index 0 at u = 0).
    ladder = GroverLadder(4, 3)
    assert ladder.cdf(1).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert ladder.measure(1, _Scripted(u)) == 3


def test_marked_subset_predicate():
    pred = marked_subset([3, 1, 3])
    assert pred(np.arange(5)).tolist() == [False, True, False, True, False]


@pytest.mark.parametrize("n", [2, 3, 12, 16, 100, 257, 1000, 1024, 4096])
def test_ladder_cdfs_equal_the_iterate_chain_bit_for_bit(n):
    # At n = 12, 100 and 1000 the mean of the amplitudes is not an exact
    # division by a power of two.
    depth = math.ceil(math.sqrt(n))
    for t in sorted({0, 1, n // 2, n}):
        marked = marked_subset(range(t))
        ladder = GroverLadder(n, t)
        # Jump to the deepest state first: the ones below it must be kept.
        ladder.cdf(depth)
        state = uniform_state(n)
        for j in range(depth + 1):
            if j > 0:
                state = grover_iterate(state, marked)
            assert np.array_equal(ladder.cdf(j), np.cumsum(state.probabilities())), (t, j)


@pytest.mark.parametrize("n", [12, 100, 1000])
def test_scattered_marked_sets_put_first_match_the_ladder(n):
    # The symmetry the rank space rests on: a state evolved under any
    # marked set S, with its marked probabilities put first, is the ladder
    # of (n, |S|).  The reference sums its mean in another order, so the
    # match is within rounding, not bit for bit.
    depth = math.ceil(math.sqrt(n))
    rng = np.random.default_rng(n)
    for t in (1, n // 3, n - 1):
        indices = np.sort(rng.choice(n, size=t, replace=False))
        rest = np.setdiff1d(np.arange(n), indices)
        marked = marked_subset(indices)
        ladder = GroverLadder(n, t)
        state = uniform_state(n)
        for j in range(depth + 1):
            if j > 0:
                state = grover_iterate(state, marked)
            probabilities = state.probabilities()
            arranged = np.concatenate([probabilities[indices], probabilities[rest]])
            measured = np.diff(ladder.cdf(j), prepend=0.0)
            np.testing.assert_allclose(measured, arranged, rtol=0, atol=1e-12, err_msg=f"{t} {j}")


def test_ladder_cdfs_are_read_only():
    cdf = GroverLadder(8, 1).cdf(1)
    assert cdf.readonly
    with pytest.raises(TypeError):
        cdf[0] = 0.0


def test_ladder_rejects_bad_input():
    with pytest.raises(ValueError, match="iteration count"):
        GroverLadder(8, 1).cdf(-1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            GroverLadder(n, 0)
    for t in (-1, 9):
        with pytest.raises(ValueError, match=r"outside \[0, 8\]"):
            GroverLadder(8, t)


def test_ladder_checks_the_norm_of_every_state(monkeypatch):
    def leaky(amps, t):
        amps[:t] *= -1
        amps *= 1.001

    monkeypatch.setattr(grover, "_reflect", leaky)
    ladder = GroverLadder(8, 1)
    ladder.cdf(0)
    with pytest.raises(ValueError, match="not normalized"):
        ladder.cdf(1)


@pytest.mark.parametrize("n", [1, 7, 1024])
def test_uniform_cdf_is_shared_read_only_and_equals_the_reference(n):
    first = GroverLadder(n, 1)
    second = GroverLadder(n, n // 2)
    cdf = first.cdf(0)
    assert second.cdf(0) is cdf
    assert np.array_equal(cdf, np.cumsum(uniform_state(n).probabilities()))
    assert cdf.readonly
    with pytest.raises(TypeError):
        cdf[0] = 0.0


@pytest.mark.parametrize("depth", [0, 3])
def test_ladder_reflects_only_as_deep_as_asked(monkeypatch, depth):
    calls = 0
    reflect = grover._reflect

    def counting(amps, t):
        nonlocal calls
        calls += 1
        reflect(amps, t)

    monkeypatch.setattr(grover, "_reflect", counting)
    ladder = GroverLadder(16, 2)
    for j in range(depth, -1, -1):
        ladder.cdf(j)
    assert calls == depth
    # Only an iteration needs the ladder's own amplitude vector.
    assert (ladder._amps is None) == (depth == 0)


@pytest.mark.parametrize("depth", [0, 3, 12])
def test_measuring_a_held_state_computes_nothing(monkeypatch, depth):
    # Asked for depth d in any order, a ladder makes d reflections and d
    # CDFs; measuring the states it holds, however often, makes none.
    ladder = GroverLadder(16, 2)
    counts = {"_reflect": 0, "_measured": 0}
    for name in counts:
        original = getattr(grover, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(grover, name, counting)
    order = list(range(depth + 1))
    random.Random(depth).shuffle(order)
    for j in order:
        ladder.cdf(j)
    rng = random.Random(7)
    for _ in range(50):
        ladder.measure(rng.randrange(depth + 1), rng)
    assert counts == {"_reflect": depth, "_measured": depth}


def _ladder_bytes(store) -> int:
    """Bytes the ladders of ``store`` hold: their states after j = 0 and their amplitude copies."""
    return sum(
        (len(held._cdfs) - 1) * held.n * 8 + (0 if held._amps is None else held._amps.nbytes)
        for held in store.values()
    )


def _held_bytes(n: int) -> int:
    """Bytes the ladder store of n holds."""
    return _ladder_bytes(grover._shelf(n))


@pytest.mark.parametrize("n", [16, 1000, 1024])
def test_shelf_ladder_cdfs_equal_a_fresh_ladders_bit_for_bit(n):
    # A shelved ladder is extended by later searches, in any order of depths;
    # every state it hands out is the one a fresh ladder computes.
    depth = math.ceil(math.sqrt(n)) - 1
    for t in sorted({0, 1, 2, 7, n // 16}):
        shelved = grover.ladder(n, t)
        for j in (1, depth // 2, 0, depth):
            shelved.cdf(j)
        assert grover.ladder(n, t) is shelved
        fresh = GroverLadder(n, t)
        for j in range(depth + 1):
            assert bytes(shelved.cdf(j)) == bytes(fresh.cdf(j)), (t, j)


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_every_t_is_shelved_under_the_bound(n):
    ladders = [grover.ladder(n, t) for t in range(n + 1)]
    for t in (0, 1, 2, n // 2, n):
        grover.extend(ladders[t], 2)
    assert all(grover.ladder(n, t) is held for t, held in enumerate(ladders))
    assert sorted(grover._shelf(n)) == list(range(n + 1))
    # t = 0's j = 2 state is the uniform one again, but it is computed.
    assert grover._shelf(n).held == _held_bytes(n) == 5 * (2 * 8 + 16) * n


def test_the_largest_other_t_leaves_first(monkeypatch):
    # Room for three ladders of depth 2 at n = 64: 2 states of 512 bytes
    # and an amplitude copy of 1024 bytes each.
    n, depth_2 = 64, 2 * 512 + 1024
    monkeypatch.setattr(grover, "KEPT_LADDER_BYTES", 3 * depth_2)
    shelf = grover._shelf(n)
    ladders = {t: grover.ladder(n, t) for t in (1, 2, 3)}
    for held in ladders.values():
        grover.extend(held, 2)
    assert sorted(shelf) == [1, 2, 3] and shelf.held == 3 * depth_2
    # A new t that grows evicts the largest other t, not itself.
    grover.extend(grover.ladder(n, 5), 2)
    assert sorted(shelf) == [1, 2, 5] and 3 not in shelf
    # One more state of t = 1 evicts 5, the largest other t, and only it.
    grover.extend(ladders[1], 3)
    assert sorted(shelf) == [1, 2] and shelf.held == _held_bytes(n) == 2 * depth_2 + 512
    assert grover.ladder(n, 1) is ladders[1] and grover.ladder(n, 2) is ladders[2]
    # An evicted ladder that grows is stored again, and evicts the largest other t.
    grover.extend(ladders[3], 3)
    assert sorted(shelf) == [1, 3] and shelf.held == _held_bytes(n) == 2 * (depth_2 + 512)
    # A ladder alone over the bound leaves the shelf too, after the others.
    grover.extend(ladders[2], 12)
    assert not shelf and shelf.held == 0
    assert len(ladders[2]._cdfs) == 13
    assert grover.ladder(n, 2) is not ladders[2]


def test_a_dropped_shelf_is_freed_with_its_ladders():
    # A store refers to its ladders and no ladder refers back to it, so
    # the store of the last n is freed as soon as a new n replaces it,
    # without waiting for the cycle collector.
    gc.disable()
    try:
        grover.extend(grover.ladder(1024, 3), 4)
        dropped = weakref.ref(grover._shelf(1024))
        grover.ladder(2048, 3)
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n, runs", [(1024, 2000), (16384, 50)])
def test_the_shelf_holds_at_most_its_bytes_after_exact_runs(n, runs):
    config = ExperimentConfig("success", n, runs, seed=1, backend=Backend.EXACT_STATEVECTOR)
    assert run_experiment(config).passed
    shelf = grover._shelf(n)
    assert shelf
    # No search reads past its saturated cap, which bounds an evicted ladder.
    assert max(len(held._cdfs) for held in shelf.values()) <= math.ceil(math.sqrt(n))
    assert _held_bytes(n) == shelf.held <= grover.KEPT_LADDER_BYTES


def test_equivalence_cells_past_a_searchs_depth_hold_under_a_megabyte():
    # At n <= 64 the fixed-j draws (to j = 8) reach past a search's depth;
    # the store counts those states too, and keeps every cell's ladder.
    assert run_experiment(ExperimentConfig("equivalence", 64, 100, seed=1)).passed
    shelf = grover._shelf(64)
    assert set(harness._equivalence_cells(64)) <= set(shelf)
    assert max(len(held._cdfs) for held in shelf.values()) == 9 > math.ceil(math.sqrt(64))
    assert _held_bytes(64) == shelf.held < 2**20


@pytest.mark.parametrize("step", ["warm", "patched"])
def test_a_patch_takes_effect_after_a_test_that_warmed_the_shelf(monkeypatch, step):
    # The first case leaves the ladder store warm, as any exact run does.
    # The autouse fixture in conftest.py empties it before the second, so
    # the states that case reads are computed by its patched ``_reflect``.
    assert grover._shelf.cache_info().currsize == 0
    if step == "warm":
        grover.ladder(8, 1).cdf(2)
        assert grover._shelf.cache_info().currsize == 1
        return

    def leaky(amps, t):
        amps[:t] *= -1
        amps *= 1.001

    monkeypatch.setattr(grover, "_reflect", leaky)
    with pytest.raises(ValueError, match="not normalized"):
        grover.ladder(8, 1).cdf(2)


# The rules of ``grover._Store``, run over both of its stores: the exact
# backend's ladders and the analytic backend's hit tables.
class _Kind(NamedTuple):
    store: Callable  # the accessor of the store of n
    bound: str  # the name of its bound in ``grover``
    backend: Backend
    # What a table of n grown to depth d counts: states 1..d and the
    # amplitude copy of a ladder, entries 0..d-1 of a hit table.
    size: Callable[[int, int], int]
    # The table of (n, t), a new one for None, grown to depth d by the
    # code its backend grows it with.
    grow: Callable
    # The bytes a mapping's tables hold.
    held: Callable


def _grow_ladder(n, t, table, depth):
    table = grover.ladder(n, t) if table is None else table
    grover.extend(table, depth)
    return table


def _grow_hit_table(n, t, table, depth):
    table = [] if table is None else table
    qsearch._grow(n, t, table, depth)
    return table


def _hit_bytes(store) -> int:
    return sum(qsearch._TABLE_BYTES + len(probs) * qsearch._ENTRY_BYTES for probs in store.values())


KINDS = {
    "ladders": _Kind(
        grover._shelf, "KEPT_LADDER_BYTES", Backend.EXACT_STATEVECTOR,
        lambda n, depth: (depth + 2) * 8 * n, _grow_ladder, _ladder_bytes,
    ),
    "hit-tables": _Kind(
        grover._hit_tables, "KEPT_HIT_BYTES", Backend.ANALYTIC_SAMPLER,
        lambda n, depth: qsearch._TABLE_BYTES + depth * qsearch._ENTRY_BYTES,
        _grow_hit_table, _hit_bytes,
    ),
}
by_kind = pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS)


@by_kind
def test_a_store_evicts_the_largest_other_t_first(monkeypatch, kind):
    # Room for three tables of depth 2 at n = 64.
    n = 64
    monkeypatch.setattr(grover, kind.bound, 3 * kind.size(n, 2))
    store = kind.store(n)
    tables = {t: kind.grow(n, t, None, 2) for t in (3, 1, 5)}
    assert sorted(store) == [1, 3, 5] and store.held == 3 * kind.size(n, 2)
    # One table more: the largest t leaves, though it grew last but one.
    tables[2] = kind.grow(n, 2, None, 2)
    assert sorted(store) == [1, 2, 3]
    # A new table of t = 5 evicts 3, the largest other t, not itself.
    kind.grow(n, 5, None, 2)
    assert sorted(store) == [1, 2, 5]
    # One more state or entry of t = 1 evicts 5, and only it.
    kind.grow(n, 1, tables[1], 3)
    assert sorted(store) == [1, 2] and store[1] is tables[1] and store[2] is tables[2]
    assert store.held == kind.held(store) == kind.size(n, 3) + kind.size(n, 2)


@by_kind
def test_a_growing_table_leaves_last_and_only_alone_over_the_bound(monkeypatch, kind):
    n = 64
    bound = 3 * kind.size(n, 2)
    monkeypatch.setattr(grover, kind.bound, bound)
    store = kind.store(n)
    tables = {t: kind.grow(n, t, None, 2) for t in (1, 2, 3)}
    # The largest t grows to fill the bound alone: the others leave, it stays.
    deepest = max(d for d in range(2, 64) if kind.size(n, d) <= bound)
    kind.grow(n, 3, tables[3], deepest)
    assert list(store) == [3] and store.held == kind.held(store) == kind.size(n, deepest)
    # One more state or entry and it leaves too; its grower still holds it, grown.
    kind.grow(n, 3, tables[3], deepest + 1)
    assert not store and store.held == 0
    assert kind.held({3: tables[3]}) == kind.size(n, deepest + 1)


@by_kind
def test_an_evicted_table_that_grows_is_stored_again(monkeypatch, kind):
    n = 64
    monkeypatch.setattr(grover, kind.bound, 3 * kind.size(n, 2))
    store = kind.store(n)
    tables = {t: kind.grow(n, t, None, 2) for t in (1, 2, 3)}
    kind.grow(n, 5, None, 2)
    assert 3 not in store
    # Counted at its new size, it evicts the other t largest first: 5, then 2.
    kind.grow(n, 3, tables[3], 3)
    assert sorted(store) == [1, 3] and store[3] is tables[3]
    assert store.held == kind.held(store) == kind.size(n, 2) + kind.size(n, 3)


@by_kind
def test_held_is_what_the_tables_hold_before_every_growth(monkeypatch, kind):
    # With room for four of the deepest tables a search at n = 1024 reaches,
    # the store evicts while the runs go on; before every growth it counts
    # exactly what its tables hold, never more than the bound.
    n = 1024
    bound = 4 * kind.size(n, math.ceil(math.sqrt(n)))
    monkeypatch.setattr(grover, kind.bound, bound)
    grow = grover._Store.grow
    lengths = []

    def checked_grow(self, t, table, size):
        assert self is kind.store(n)
        assert self.held == kind.held(self) <= bound
        lengths.append(len(self))
        grow(self, t, table, size)

    monkeypatch.setattr(grover._Store, "grow", checked_grow)
    config = ExperimentConfig("success", n, 500, seed=1, backend=kind.backend)
    assert run_experiment(config).passed
    store = kind.store(n)
    assert store.held == kind.held(store) <= bound
    # The store filled up and evicted more than once.
    assert max(lengths) > 3 and sum(b < a for a, b in zip(lengths, lengths[1:])) > 2


@by_kind
def test_a_store_holds_one_n_at_a_time(kind):
    first = kind.grow(1024, 3, None, 2)
    assert kind.store(1024)[3] is first
    kind.grow(2048, 3, None, 2)
    assert kind.store.cache_info().currsize == 1
    assert 3 not in kind.store(1024)


@by_kind
def test_a_bad_count_stores_nothing(kind):
    for n, t in ((8, -1), (8, 9), (0, 0), (-4, 0)):
        with pytest.raises(ValueError, match="must be positive|outside"):
            kind.grow(n, t, None, 2)
        assert not kind.store(n) and kind.store(n).held == 0
