import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qminfind.bounds import (
    SweepResult,
    expected_cost_bound,
    expected_search_cost_bound,
    harmonic_number,
    search_iterations_bound,
    sweep_harmonic_bound,
    sweep_search_cost_bound,
    timeout_cap,
)
from qminfind.harness import ExperimentConfig, run_experiment

# Reference points worked out by hand from the closed forms:
#   11.25*sqrt(n) + 0.7*lg^2(n) and twice that for the cap.
KNOWN_COST_BOUNDS = {
    4: 25.3,
    1024: 430.0,
    65536: 3059.2,
}


@pytest.mark.parametrize("n,expected", sorted(KNOWN_COST_BOUNDS.items()))
def test_cost_bound_reference_points(n, expected):
    assert expected_cost_bound(n) == pytest.approx(expected, abs=1e-9)
    assert timeout_cap(n) == pytest.approx(2 * expected, abs=1e-9)


def test_cost_bound_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        expected_cost_bound(1)
    with pytest.raises(ValueError):
        timeout_cap(0)


@given(n=st.integers(2, 10**9))
def test_cap_is_exactly_twice_the_cost_bound(n):
    assert timeout_cap(n) == pytest.approx(2 * expected_cost_bound(n), abs=1e-9)


def test_search_bound_reference_points():
    assert search_iterations_bound(64, 1) == pytest.approx(36.0, abs=1e-12)
    assert search_iterations_bound(64, 64) == pytest.approx(4.5, abs=1e-12)
    assert search_iterations_bound(64, 0) == math.inf


def test_search_bound_domain():
    with pytest.raises(ValueError):
        search_iterations_bound(8, 9)
    with pytest.raises(ValueError):
        search_iterations_bound(8, -1)


@given(n=st.integers(1, 10**6), t_frac=st.floats(0.001, 1.0))
def test_search_bound_decreases_with_more_marked(n, t_frac):
    t = max(1, round(t_frac * n))
    assert search_iterations_bound(n, t) >= search_iterations_bound(n, n)


def test_harmonic_small_values():
    assert harmonic_number(1) == pytest.approx(1.0, abs=1e-12)
    assert harmonic_number(4) == pytest.approx(25 / 12, abs=1e-12)
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_harmonic_large_values_match_direct_sum():
    # 2e7 is summed like every n, in chunks; it must agree with a chunked
    # direct sum computed independently.
    assert harmonic_number(20_000_000) == pytest.approx(17.3884585214198, abs=1e-9)
    # At MAX_N = 2^24 the direct sum stays within 1e-12 of the Euler-Maclaurin
    # expansion ln n + gamma + 1/2n - 1/12n^2 + 1/120n^4, which reads
    # 17.212748028142542 there.
    assert harmonic_number(2**24) == pytest.approx(17.212748028142542, abs=1e-12)


@given(n=st.integers(1, 5000))
def test_harmonic_is_increasing(n):
    assert harmonic_number(n + 1) > harmonic_number(n)


def test_search_cost_sum_reference_points():
    # n=2 collapses to a single term: 4.5*sqrt(2)/2.
    assert expected_search_cost_bound(2) == pytest.approx(3.1819805153394642, rel=1e-12)
    assert expected_search_cost_bound(100) == pytest.approx(74.7086172883641, rel=1e-9)


@settings(max_examples=25)
@given(n=st.integers(2, 3000))
def test_search_cost_sum_stays_below_total_budget_share(n):
    assert expected_search_cost_bound(n) <= 11.25 * math.sqrt(n)


@settings(max_examples=25)
@given(n=st.integers(2, 3000))
def test_scan_cost_stays_below_polylog_share(n):
    # (H_n - 1) * lg n is the expected spend on state setup; it must fit
    # inside the 0.7 * lg^2 n share of the budget.
    assert (harmonic_number(n) - 1.0) * math.log2(n) <= 0.7 * math.log2(n) ** 2


def test_sweeps_hold_over_a_prefix():
    cost = sweep_search_cost_bound(10**5)
    assert cost.ok
    assert cost.worst_ratio <= 1.0
    harmonic = sweep_harmonic_bound(10**5)
    assert harmonic.ok
    assert 2 <= harmonic.worst_n <= 10**5


@pytest.mark.parametrize("n_max", [2, 3, 17, 1024, 10**5])
def test_in_place_sums_and_sweeps_keep_the_bits_of_the_plain_formulas(n_max):
    # They compute in place to hold two arrays of the sweep length, not six;
    # the reports keep their bytes only if every value keeps its bits.
    r = np.arange(1, n_max, dtype=np.float64)
    terms = 1.0 / ((r + 1.0) * np.sqrt(r))
    n = np.arange(2, n_max + 1, dtype=np.float64)
    harmonic = np.cumsum(1.0 / np.arange(1, n_max + 1, dtype=np.float64))
    plain = {
        sweep_search_cost_bound: 4.5 * np.cumsum(terms) / 11.25,
        sweep_harmonic_bound: (harmonic[1:] - 1.0) * np.log2(n) / (0.7 * np.log2(n) ** 2),
    }
    for sweep, ratios in plain.items():
        worst = int(np.argmax(ratios))
        ratio = float(ratios[worst])
        assert sweep(n_max) == SweepResult(ratio <= 1.0, worst + 2, ratio)
    assert expected_search_cost_bound(n_max) == 4.5 * math.sqrt(n_max) * float(np.sum(terms))


def test_sweep_domain():
    with pytest.raises(ValueError):
        sweep_search_cost_bound(1)


def _bounds_summary(n: int) -> dict:
    return run_experiment(ExperimentConfig("bounds", n=n)).summary


def test_bound_report_grid():
    summary = _bounds_summary(1024)
    assert summary["expected_cost_bound"] == pytest.approx(430.0, abs=1e-9)
    assert set(summary["search_iteration_bounds"]) == {"1", "2", "64", "256", "1024"}
    assert summary["search_iteration_bounds"]["1"] == pytest.approx(144.0, abs=1e-9)


def test_bound_report_sweeps_every_size_up_to_n():
    # Both proof inequalities are swept over 2..n once n passes 10^6, and
    # each is tightest at the largest size swept.
    report = run_experiment(ExperimentConfig("bounds", n=2_000_000))
    summary = report.summary
    assert summary["sweep_max"] == 2_000_000
    assert summary["search_cost_sweep_worst_n"] == 2_000_000
    assert summary["harmonic_sweep_worst_n"] == 2_000_000
    assert all(check["ok"] for check in report.checks)


def test_bound_report_tiny_size_grid_collapses():
    assert set(_bounds_summary(2)["search_iteration_bounds"]) == {"1", "2"}
