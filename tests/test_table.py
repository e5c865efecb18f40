import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import minfind
from qminfind.bounds import timeout_cap
from qminfind.harness import two_sample_chisquare
from qminfind.qsearch import DEFAULT_GROWTH, Backend, search
from qminfind.table import Table, _parse_lines, read_table, sorted_table


def _read(values) -> Table:
    """``read_table`` over a file holding ``values``, one a line."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.txt"
        path.write_text("".join(f"{value}\n" for value in values))
        return read_table(path)


def _arranged(n: int, seed: int, k: int | None = None) -> np.ndarray:
    """n values in random arrangement: a permutation of 0..n-1, or n draws below k."""
    stream = np.random.default_rng(seed)
    return stream.permutation(n) if k is None else stream.integers(0, k, n)


def test_distinct_generation_is_a_permutation():
    # A distinct table's ranks in value order are 1..n.
    ranks = sorted_table(16, random.Random(0))
    assert ranks.tolist() == list(range(1, 17))


def test_duplicate_generation_respects_value_range():
    ranks = sorted_table(50, random.Random(0), k=4)
    assert len(set(ranks.tolist())) <= 4
    assert ranks[0] == 1 and ranks[-1] <= 50


def test_generate_rejects_bad_arguments():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="size"):
        sorted_table(0, rng)
    with pytest.raises(ValueError, match="duplicates"):
        sorted_table(8, rng, k=0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000))
def test_permutation_metadata_matches_sorting(seed, n):
    values = _arranged(n, seed)
    table = _read(values)
    assert table.order.tolist() == np.argsort(values, kind="stable").tolist()
    assert table.ranks.tolist() == list(range(1, n + 1))
    assert table.order.dtype == table.ranks.dtype == np.int64


# A table file holds one decimal integer a line, and at least one.
@pytest.mark.parametrize(
    ("text", "message"),
    [("\n", "no values"), ("0 1\n2 3\n", "not a decimal integer")],
    ids=["empty", "two-dimensional"],
)
def test_table_needs_a_one_dimensional_array_of_values(tmp_path, text, message):
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_table(path)


def test_permutation_metadata_is_read_only():
    table = _read([2, 0, 1])
    for array in (table.order, table.ranks):
        with pytest.raises(ValueError):
            array[0] = 5


def test_sorted_distinct_table_is_shared_read_only_and_draws_nothing():
    rng, untouched = random.Random(5), random.Random(5)
    ranks = sorted_table(300, rng)
    assert ranks is sorted_table(300, random.Random(6))
    assert ranks.tolist() == list(range(1, 301))
    assert ranks.dtype == np.int64
    with pytest.raises(ValueError):
        ranks[0] = 5
    assert rng.random() == untouched.random()


def test_sorted_dup_table_is_reproducible_and_sorted():
    rng_a, rng_b = random.Random(21), random.Random(21)
    first = sorted_table(300, rng_a, k=5)
    assert first.tolist() == sorted_table(300, rng_b, k=5).tolist()
    assert rng_a.random() == rng_b.random()
    assert np.all(np.diff(first) >= 0)
    assert first[0] == 1 and len(set(first.tolist())) <= 5
    assert sorted_table(300, random.Random(22), k=5).tolist() != first.tolist()
    with pytest.raises(ValueError):
        first[0] = 5


def test_sorted_dup_table_order_and_ranks_match_a_sorting_table(tmp_path):
    # The draw builds its ranks from its counts; a table file holding those
    # ranks as values is sorted and searched by ``read_table``, which must
    # find them in order, each its own rank.
    rng = random.Random(23)
    path = tmp_path / "table.txt"
    for n in (1, 2, 3, 10, 64, 1000, 16384):
        for k in sorted({k for k in (1, 2, 3, 5, n // 3, n) if 1 <= k <= n}):
            for _ in range(3):
                ranks = sorted_table(n, rng, k)
                path.write_text("".join(f"{rank}\n" for rank in ranks.tolist()))
                reference = read_table(path)
                assert ranks.dtype == reference.ranks.dtype
                assert np.array_equal(ranks, reference.ranks)
                assert np.array_equal(reference.order, np.arange(n))
                assert not ranks.flags.writeable


def test_sorted_table_validates_like_generate_table():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sorted_table(0, rng)
    with pytest.raises(ValueError, match="duplicates"):
        sorted_table(8, rng, k=9)


def test_sorted_dup_values_follow_the_law_of_independent_draws():
    # A drawn dup table's ranks must be distributed as the ranks of n
    # independent uniform draws below k: compare the laws of whole rank
    # vectors (67 of them at n = 12, k = 3).
    n, k, tables = 12, 3, 3000
    held = {"sorted": Counter(), "drawn": Counter()}
    rng = random.Random(31)
    for _ in range(tables):
        held["sorted"][tuple(sorted_table(n, rng, k=k).tolist())] += 1
        values = np.sort(_arranged(n, rng.getrandbits(64), k))
        held["drawn"][tuple((np.searchsorted(values, values) + 1).tolist())] += 1
    _, p_value, dof = two_sample_chisquare(held["sorted"], held["drawn"])
    assert dof >= 4
    assert p_value > 1e-3


@given(seed=st.integers(0, 10**6), n=st.integers(1, 64))
def test_ranks_sort_consistently(seed, n):
    values = _arranged(n, seed)
    table = _read(values)
    # order lists file indices by ascending value, so it sorts the values
    assert values[table.order].tolist() == list(range(n))
    assert table.order[0] == int(np.argmin(values))


@given(seed=st.integers(0, 10**6), n=st.integers(2, 40), k=st.integers(1, 6))
def test_equal_values_share_the_lowest_rank(seed, n, k):
    values = _arranged(n, seed, k=min(k, n))
    table = _read(values)
    for position, index in enumerate(table.order.tolist()):
        smaller = int(np.sum(values < values[index]))
        assert int(table.ranks[position]) == smaller + 1


def test_minimum_with_duplicates():
    table = _read([4, 1, 1, 9])
    assert table.ranks.tolist() == [1, 1, 3, 4]
    assert table.order.tolist() == [1, 2, 0, 3]


def _pass_hits(ranks: np.ndarray, y: int, t: int, position: int) -> bool:
    """Check one pass below threshold y against the pass rule; return whether it hit.

    Both backends mark t = rank(y) - 1 entries, the first t positions in
    value order: a hit lands among them, strictly below the threshold's
    rank, and a miss does not.
    """
    assert t == int(ranks[y]) - 1
    hit = position < t
    assert (ranks[position] < ranks[y]) == hit
    return hit


def _search_below(ranks: np.ndarray, y: int, budget: float, rng, backend: Backend) -> tuple:
    """The search of one pass below threshold y, as ``find_minimum`` makes it: ``(hit, index)``."""
    n, t = len(ranks), int(ranks[y]) - 1
    _, _, position = search(n, t, budget, DEFAULT_GROWTH, rng, backend)
    return _pass_hits(ranks, y, t, position), position


@given(seed=st.integers(0, 10**6), n=st.integers(1, 48), backend=st.sampled_from(list(Backend)))
def test_threshold_marks_strictly_smaller_entries(seed, n, backend):
    # Every pass of a run on a table with ties follows the pass rule, its
    # search handed the run's backend; each hit moves the threshold to a
    # strictly smaller rank.
    rng = random.Random(seed)
    ranks = sorted_table(n, rng, k=max(1, n // 2))
    search_once = minfind.search
    passes = []

    def recording(n, t, budget, growth, stream, backend=Backend.ANALYTIC_SAMPLER):
        outcome = search_once(n, t, budget, growth, stream, backend)
        passes.append((t, backend, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minfind, "search", recording)
        result = minfind.find_minimum(ranks, backend, DEFAULT_GROWTH, timeout_cap(n), rng)
    y = result.history[0][1]
    for t, handed, (_, _, position) in passes:
        assert handed is backend
        if _pass_hits(ranks, y, t, position):
            y = position
    assert len(passes) == result.loop_passes
    assert y == result.returned_index


def test_sampling_stays_inside_each_class():
    # A zero budget ends each search after one round of j = 0, which hits
    # with probability 1/2 here; either way, on either backend, the index
    # lies in the class the search ended in.
    rng = random.Random(3)
    ranks = sorted_table(20, rng)
    y = 10  # rank 11, so 10 marked
    outcomes = set()
    for backend in Backend:
        for _ in range(100):
            hit, _ = _search_below(ranks, y, 0.0, rng, backend)
            outcomes.add((backend, hit))
    assert len(outcomes) == 4


def test_marked_sampling_is_uniform():
    # An uninterrupted search hits, at a position uniform over the marked ones.
    rng = random.Random(8)
    ranks = sorted_table(8, rng)
    y = 4
    draws = 8000
    for backend in Backend:
        counts = {}
        for _ in range(draws):
            hit, idx = _search_below(ranks, y, math.inf, rng, backend)
            assert hit
            counts[idx] = counts.get(idx, 0) + 1
        assert sorted(counts) == [0, 1, 2, 3]
        for c in counts.values():
            # 4 sigma around the uniform expectation draws/4
            assert abs(c - draws / 4) < 4 * (draws * 0.25 * 0.75) ** 0.5


def test_io_round_trip(tmp_path):
    # The file's values, int64's extremes among them, come back in value
    # order through ``order``, each position with its rank.
    values = [*_arranged(12, 9, k=3).tolist(), 2**63 - 1, -(2**63)]
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{value}\n" for value in values))
    loaded = read_table(path)
    assert [values[i] for i in loaded.order.tolist()] == sorted(values)
    assert loaded.order.tolist() == sorted(range(len(values)), key=values.__getitem__)
    assert loaded.ranks.tolist() == [1 + sorted(values).index(v) for v in sorted(values)]


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


@pytest.mark.parametrize(
    ("bad", "message"),
    [("two", "not a decimal integer: 'two'"), (str(2**63), "value outside int64 range")],
    ids=["junk", "overflow"],
)
def test_read_table_names_a_bad_line_deep_in_a_large_file(tmp_path, bad, message):
    # Blank and whitespace-only lines count toward the line number, far
    # from the start of a file of more than a megabyte.
    lines = [f"{value}\n" for value in _arranged(200_000, 4).tolist()]
    for at in range(10, 150_000, 9_973):
        lines[at] = " \t\n" if at % 2 else "\n"
    lines[150_000] = f" {bad}\n"
    path = tmp_path / "deep.txt"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"deep.txt:150001: {message}"):
        read_table(path)


def test_read_table_skips_lines_holding_only_whitespace(tmp_path):
    # A line is stripped as ``str.strip`` strips it, so Unicode spaces and
    # the ASCII separators \x1c-\x1f around a value or alone count too.
    path = tmp_path / "spaced.txt"
    path.write_text("\n \n3\n\t\x0b\x0c\n  -1 \n \n\x1c5\x1f\n\u30002\n\n\n", encoding="utf-8")
    loaded = read_table(path)
    values = [3, -1, 5, 2]
    assert loaded.order.tolist() == sorted(range(4), key=values.__getitem__)
    assert loaded.ranks.tolist() == [1, 2, 3, 4]


@given(
    st.lists(
        st.sampled_from(
            ["0", "7", "-3", "+12", "1_000", " 4 ", "\t", "", "\x1c9", "x", "1.5", "\u0663", str(2**63)]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_read_table_reads_every_line_as_the_line_by_line_parse_does(lines):
    # The bulk parse accepts, rejects and numbers lines as a line-by-line
    # parse of the same lines does.
    text = "".join(f"{line}\n" for line in lines)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.txt"
        path.write_text(text, encoding="utf-8")
        try:
            with open(path, encoding="utf-8") as fh:
                expected = _parse_lines(fh, path).tolist()
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                read_table(path)
            return
        if not expected:
            with pytest.raises(ValueError, match="no values"):
                read_table(path)
            return
        loaded = read_table(path)
    assert loaded.order.tolist() == sorted(range(len(expected)), key=expected.__getitem__)
    assert [expected[i] for i in loaded.order.tolist()] == sorted(expected)


def test_read_table_names_the_first_fault_of_a_file(tmp_path):
    # A bad line well before bytes that are not UTF-8 is named; the bytes
    # are reported when they come first.
    lines = b"".join(b"%d\n" % value for value in range(100_000))
    junk_first = tmp_path / "junk-first.txt"
    junk_first.write_bytes(b"1\nx\n" + lines + b"\xff\n")
    with pytest.raises(ValueError, match="junk-first.txt:2: not a decimal integer: 'x'"):
        read_table(junk_first)
    bytes_first = tmp_path / "bytes-first.txt"
    bytes_first.write_bytes(b"1\n\xff\n" + lines + b"x\n")
    with pytest.raises(ValueError, match="bytes-first.txt: not UTF-8 text"):
        read_table(bytes_first)
