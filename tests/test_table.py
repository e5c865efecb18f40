import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from qminfind import minfind
from qminfind.bounds import timeout_cap
from qminfind.harness import two_sample_chisquare
from qminfind.grover import GroverLadder
from qminfind.qsearch import DEFAULT_GROWTH, Backend, search
from qminfind.table import (
    Table,
    generate_table,
    read_table,
    sorted_table,
)


def test_distinct_generation_is_a_permutation():
    table = generate_table(16, random.Random(0))
    assert sorted(table.values.tolist()) == list(range(16))


def test_duplicate_generation_respects_value_range():
    table = generate_table(50, random.Random(0), k=4)
    assert set(table.values.tolist()) <= set(range(4))


def test_generate_rejects_bad_arguments():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        generate_table(0, rng)
    with pytest.raises(ValueError):
        generate_table(8, rng, k=0)
    with pytest.raises(ValueError):
        generate_table(8, rng, k=9)


@given(seed=st.integers(0, 2**64), n=st.integers(1, 2000))
def test_permutation_metadata_matches_sorting(seed, n):
    table = generate_table(n, random.Random(seed))
    values = np.array(table.values)
    order = np.argsort(values, kind="stable")
    assert table.order.tolist() == order.tolist()
    assert table.ranks.tolist() == (np.searchsorted(values[order], values, side="left") + 1).tolist()


@pytest.mark.parametrize(
    "values, match",
    [([0, 2, 2], "duplicate"), ([1, 0, 3], "outside"), ([0, -1, 1], "outside"), ([], "at least one")],
)
def test_permutation_rejects_non_permutations(values, match):
    with pytest.raises(ValueError, match=match):
        Table.permutation(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("values", [[], [[0, 1], [2, 3]]], ids=["empty", "two-dimensional"])
def test_table_needs_a_one_dimensional_array_of_values(values):
    with pytest.raises(ValueError, match="at least one value"):
        Table(values)


def test_permutation_metadata_is_read_only():
    table = Table.permutation(np.array([2, 0, 1]))
    for array in (table.values, table.order, table.ranks):
        with pytest.raises(ValueError):
            array[0] = 5


@pytest.mark.parametrize("k", [None, 5])
def test_generation_is_reproducible_from_the_seed(k):
    rng_a, rng_b = random.Random(21), random.Random(21)
    first = generate_table(300, rng_a, k=k)
    again = generate_table(300, rng_b, k=k)
    assert first.values.tolist() == again.values.tolist()
    # The caller's stream is left in the same state, so later draws agree too.
    assert rng_a.random() == rng_b.random()
    assert generate_table(300, random.Random(22), k=k).values.tolist() != first.values.tolist()


def test_distinct_generation_is_uniform_over_permutations():
    n, draws = 4, 24_000
    index = {p: i for i, p in enumerate(itertools.permutations(range(n)))}
    counts = np.zeros(len(index), dtype=np.int64)
    rng = random.Random(2024)
    for _ in range(draws):
        counts[index[tuple(generate_table(n, rng).values.tolist())]] += 1
    assert chisquare(counts).pvalue > 1e-3


def test_sorted_distinct_table_is_shared_read_only_and_draws_nothing():
    rng, untouched = random.Random(5), random.Random(5)
    table = sorted_table(300, rng)
    assert table is sorted_table(300, random.Random(6))
    assert table.values.tolist() == list(range(300))
    assert table.order.tolist() == list(range(300))
    assert table.ranks.tolist() == list(range(1, 301))
    for array in (table.values, table.order, table.ranks):
        with pytest.raises(ValueError):
            array[0] = 5
    assert rng.random() == untouched.random()


def test_sorted_dup_table_is_reproducible_and_sorted():
    rng_a, rng_b = random.Random(21), random.Random(21)
    first = sorted_table(300, rng_a, k=5)
    assert first.values.tolist() == sorted_table(300, rng_b, k=5).values.tolist()
    assert rng_a.random() == rng_b.random()
    assert np.all(np.diff(first.values) >= 0)
    assert set(first.values.tolist()) <= set(range(5))
    assert sorted_table(300, random.Random(22), k=5).values.tolist() != first.values.tolist()


def test_sorted_dup_table_order_and_ranks_match_a_sorting_table():
    # The draw builds order and ranks from its counts; a Table built from
    # the values alone sorts and searches them.  Both must agree exactly.
    rng = random.Random(23)
    for n in (1, 2, 3, 10, 64, 1000, 16384):
        for k in sorted({k for k in (1, 2, 3, 5, n // 3, n) if 1 <= k <= n}):
            for _ in range(3):
                table = sorted_table(n, rng, k)
                reference = Table(table.values)
                for name in ("order", "ranks"):
                    drawn, expected = getattr(table, name), getattr(reference, name)
                    assert drawn.dtype == expected.dtype
                    assert np.array_equal(drawn, expected)
                    assert not drawn.flags.writeable


def test_sorted_table_validates_like_generate_table():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sorted_table(0, rng)
    with pytest.raises(ValueError, match="duplicates"):
        sorted_table(8, rng, k=9)


def test_sorted_dup_values_follow_the_law_of_independent_draws():
    # The multiset of a sorted dup table must be distributed as that of n
    # independent uniform draws below k: compare the counts of each value.
    n, k, tables = 12, 3, 3000
    for value in range(k):
        held = {"sorted": Counter(), "drawn": Counter()}
        rng = random.Random(31)
        for _ in range(tables):
            held["sorted"][int(np.sum(sorted_table(n, rng, k=k).values == value))] += 1
            held["drawn"][int(np.sum(generate_table(n, rng, k=k).values == value))] += 1
        _, p_value, dof = two_sample_chisquare(held["sorted"], held["drawn"])
        assert dof >= 4
        assert p_value > 1e-3


def test_values_are_read_only():
    table = generate_table(4, random.Random(1))
    with pytest.raises(ValueError):
        table.values[0] = 99


def test_table_does_not_capture_caller_array():
    source = np.array([5, 2, 7], dtype=np.int64)
    table = Table(source)
    source[0] = -1
    assert table.values.tolist() == [5, 2, 7]


@given(seed=st.integers(0, 10**6), n=st.integers(1, 64))
def test_ranks_sort_consistently(seed, n):
    table = generate_table(n, random.Random(seed))
    # order lists indices by ascending value; ranks inverts that listing
    assert table.ranks[table.order].tolist() == list(range(1, n + 1))
    assert table.ranks[int(table.order[0])] == 1


@given(seed=st.integers(0, 10**6), n=st.integers(2, 40), k=st.integers(1, 6))
def test_equal_values_share_the_lowest_rank(seed, n, k):
    table = generate_table(n, random.Random(seed), k=min(k, n))
    for i in range(n):
        smaller = int(np.sum(table.values < table.values[i]))
        assert int(table.ranks[i]) == smaller + 1


def test_minimum_with_duplicates():
    table = Table(np.array([4, 1, 1, 9]))
    assert table.values.min() == 1
    assert table.ranks[1] == 1 and table.ranks[2] == 1
    assert table.ranks[0] != 1


def _threshold_ladder(table: Table, y: int) -> GroverLadder:
    """The ladder of threshold y, as an exact pass of ``find_minimum`` builds it."""
    return GroverLadder(table.values < table.values[y])


@given(seed=st.integers(0, 10**6), n=st.integers(1, 48))
def test_threshold_marks_strictly_smaller_entries(seed, n):
    # Every exact pass searches under a ladder marking exactly the entries
    # strictly below its threshold; the threshold itself is never marked.
    rng = random.Random(seed)
    table = generate_table(n, rng, k=max(1, n // 2))
    search_once = minfind.search
    passes = []

    def recording(n, t, budget, growth, stream, ladder=None):
        outcome = search_once(n, t, budget, growth, stream, ladder)
        passes.append((t, ladder, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minfind, "search", recording)
        result = minfind.find_minimum(
            table, Backend.EXACT_STATEVECTOR, DEFAULT_GROWTH, timeout_cap(n), rng
        )
    y = result.history[0][1]
    for t, ladder, (hit, _, _, index) in passes:
        assert ladder.mask.tolist() == (table.values < table.values[y]).tolist()
        assert t == int(np.sum(ladder.mask))
        assert not ladder.mask[y]
        assert hit == ladder.mask[index]
        if hit:
            y = index
    assert len(passes) == result.loop_passes
    assert y == result.returned_index


def _search_threshold(table: Table, y: int, budget: float, rng, ladder=None) -> tuple[bool, int]:
    """One search below threshold y, as a pass reads it: ``(hit, table index)``.

    An exact search (``ladder`` given) measures a table index; an analytic
    one draws a position in the table's sorted order.
    """
    t = int(table.ranks[y]) - 1
    hit, _, _, index = search(len(table), t, budget, DEFAULT_GROWTH, rng, ladder)
    return hit, index if ladder is not None else int(table.order[index])


def test_sampling_stays_inside_each_class():
    # A zero budget ends each search after one round of j = 0, which hits
    # with probability 1/2 here; either way, on either backend, the index
    # lies in the class the search ended in.
    rng = random.Random(3)
    table = generate_table(20, rng)
    y = int(table.order[10])  # rank 11, so 10 marked
    outcomes = set()
    for ladder in (_threshold_ladder(table, y), None):
        for _ in range(100):
            hit, index = _search_threshold(table, y, 0.0, rng, ladder)
            assert (table.values[index] < table.values[y]) == hit
            outcomes.add((ladder is None, hit))
    assert len(outcomes) == 4


def test_marked_sampling_is_uniform():
    # An uninterrupted search hits, at an index uniform over the marked ones.
    rng = random.Random(8)
    table = generate_table(8, rng)
    y = int(table.order[4])
    draws = 8000
    for ladder in (_threshold_ladder(table, y), None):
        counts = {}
        for _ in range(draws):
            hit, idx = _search_threshold(table, y, math.inf, rng, ladder)
            assert hit
            counts[idx] = counts.get(idx, 0) + 1
        assert sorted(counts) == sorted(int(i) for i in table.order[:4])
        for c in counts.values():
            # 4 sigma around the uniform expectation draws/4
            assert abs(c - draws / 4) < 4 * (draws * 0.25 * 0.75) ** 0.5


def test_io_round_trip(tmp_path):
    table = generate_table(12, random.Random(9), k=3)
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{value}\n" for value in table.values.tolist()))
    loaded = read_table(path)
    assert loaded.values.tolist() == table.values.tolist()


def test_read_table_rejects_junk(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(ValueError, match="not a decimal integer"):
        read_table(path)


def test_read_table_rejects_values_outside_int64(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"1\n{2**63 - 1}\n{-(2**63)}\n99999999999999999999\n")
    with pytest.raises(ValueError, match=r"big.txt:4: value outside int64 range"):
        read_table(path)


def test_read_table_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no values"):
        read_table(path)
