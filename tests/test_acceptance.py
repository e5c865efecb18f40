"""End-to-end statistical acceptance gate.

Eight criteria, one test and one printed verdict line each:

1. rank-selection frequencies of the uncapped run match 1/r (+-0.01);
2. capped runs succeed with 99%-confidence lower bound >= 1/2;
3. mean uncapped cost sits under 11.25*sqrt(N) + 0.7*lg^2 N, and the
   64 -> 1024 mean-cost ratio shows sqrt scaling within 15%;
4. mean search iterations per (N, t) cell sit under 4.5*sqrt(N/t);
5. the exact statevector matches the closed-form success curve to 1e-9,
   and one-of-four search is certain after a single iteration;
6. 3-fold boosting reaches the 1 - 1/8 floor, and with duplicate table
   values rank selection stays at or below 1/r + 0.01;
7. the closed-form inequalities hold for every n up to 10^6 and the cap
   is exactly twice the expected-cost bound;
8. reports are byte-identical across repeated invocations and across
   worker counts.

Verdict lines print through capsys.disabled() so they always reach the
terminal; assertions follow the print, so a failure still shows its line.
"""
import math
import subprocess
import sys
import time

from qminfind.bounds import (
    expected_cost_bound,
    sweep_harmonic_bound,
    sweep_search_cost_bound,
    timeout_cap,
)
from qminfind.harness import ExperimentConfig, closed_form_deviation, run_experiment
from qminfind.qsearch import DEFAULT_GROWTH, search
from qminfind.seeding import derive_stream
from reference_grover import grover_iterate, marked_subset, uniform_state

SEED = 104729


def _verdict(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_rank_frequencies_match_inverse_rank(capsys):
    started = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(experiment="lemma1", n=64, runs=100_000, seed=SEED, max_rank=10)
    )
    elapsed = time.perf_counter() - started
    by_rank = {row["rank"]: row for row in report.rows}
    worst = max(abs(by_rank[r]["frequency"] - 1.0 / r) for r in range(1, 11))
    ok = worst <= 0.01 and report.passed and elapsed < 120.0
    _verdict(
        capsys, 1, "uncapped rank-selection frequency vs 1/r", ok,
        f"worst |dev| {worst:.5f} over ranks 1..10 at N=64, 1e5 runs, {elapsed:.1f}s",
    )
    assert worst <= 0.01
    assert report.passed
    assert elapsed < 120.0


def test_criterion_2_capped_success_meets_half_floor(capsys):
    lows = {}
    all_passed = True
    for n in (16, 64, 256, 1024):
        report = run_experiment(
            ExperimentConfig(experiment="success", n=n, runs=10_000, seed=SEED)
        )
        lows[n] = report.summary["wilson99_low"]
        all_passed = all_passed and report.passed
    worst = min(lows.values())
    ok = worst >= 0.5 and all_passed
    _verdict(
        capsys, 2, "capped-run success floor 1/2", ok,
        "worst Wilson-99 lower bound "
        f"{worst:.4f} over N in {{16, 64, 256, 1024}}, 1e4 runs each",
    )
    assert worst >= 0.5
    assert all_passed


def test_criterion_3_mean_cost_under_bound_with_sqrt_scaling(capsys):
    means = {}
    all_passed = True
    margins = []
    for n in (64, 1024):
        report = run_experiment(
            ExperimentConfig(experiment="expected-cost", n=n, runs=10_000, seed=SEED)
        )
        summary = report.summary
        means[n] = summary["mean_first_hit_time"]
        margins.append(
            (summary["mean_first_hit_time"] + 3 * summary["stderr_first_hit_time"])
            / summary["cost_bound"]
        )
        all_passed = all_passed and report.passed
    ratio = means[1024] / means[64]
    scaling_ok = abs(ratio / 4.0 - 1.0) <= 0.15  # sqrt(1024/64) = 4
    ok = all_passed and scaling_ok
    _verdict(
        capsys, 3, "uncapped mean cost bound and sqrt scaling", ok,
        f"mean(64)={means[64]:.1f}, mean(1024)={means[1024]:.1f}, "
        f"worst (mean+3SE)/bound {max(margins):.2f}, 64->1024 ratio {ratio:.2f} vs 4",
    )
    assert all_passed
    assert scaling_ok


def test_criterion_4_search_iterations_under_sqrt_ratio_bound(capsys):
    runs = 100_000
    worst_frac = 0.0
    worst_cell = None
    ok = True
    for n in (64, 256, 1024):
        for t in (1, 2, n // 16, n // 4):
            rng = derive_stream(SEED, "accept-iter", n, t)
            total = 0
            total_sq = 0
            for _ in range(runs):
                used = search(n, t, math.inf, DEFAULT_GROWTH, rng)[0]
                total += used
                total_sq += used * used
            mean = total / runs
            var = (total_sq - total * total / runs) / (runs - 1)
            se = math.sqrt(max(var, 0.0) / runs)
            bound = 4.5 * math.sqrt(n / t)
            frac = (mean + 3 * se) / bound
            if frac > worst_frac:
                worst_frac, worst_cell = frac, (n, t)
            ok = ok and frac <= 1.0
    _verdict(
        capsys, 4, "mean search iterations vs 4.5*sqrt(N/t)", ok,
        f"worst (mean+3SE)/bound {worst_frac:.2f} at (N, t)={worst_cell}, 1e5 runs/cell",
    )
    assert ok


def test_criterion_5_statevector_matches_closed_form(capsys):
    worst = max(closed_form_deviation(n, 12) for n in range(1, 33))
    target = marked_subset([3])
    rotated = grover_iterate(uniform_state(4), target)
    residual = abs(rotated.subset_probability(target) - 1.0)
    ok = worst <= 1e-9 and residual <= 1e-12
    _verdict(
        capsys, 5, "statevector vs closed-form success curve", ok,
        f"worst dev {worst:.2e} for N<=32, j<=12; one-of-four residual {residual:.2e}",
    )
    assert worst <= 1e-9
    assert residual <= 1e-12


def test_criterion_6_boosting_floor_and_duplicate_rank_cap(capsys):
    boosted = run_experiment(
        ExperimentConfig(experiment="success", n=256, runs=10_000, seed=SEED, boost=3)
    )
    fraction = boosted.summary["success_fraction"]
    floor = 1.0 - 0.5**3
    se = math.sqrt(max(fraction * (1 - fraction), 0.0) / boosted.summary["runs"])
    boost_ok = fraction >= floor - 3 * se and boosted.passed

    dup = run_experiment(
        ExperimentConfig(
            experiment="lemma1", n=64, runs=20_000, seed=SEED, mode="dup:8"
        )
    )
    excesses = [
        row["frequency"] - row["theory"] for row in dup.rows if row["asserted"]
    ]
    dup_ok = dup.passed and max(excesses) <= 0.01
    ok = boost_ok and dup_ok
    _verdict(
        capsys, 6, "3-fold boosting floor and duplicate-value rank cap", ok,
        f"boosted fraction {fraction:.4f} vs floor {floor}, "
        f"worst duplicate excess over 1/r {max(excesses):+.4f}",
    )
    assert boost_ok
    assert dup_ok


def test_criterion_7_closed_form_sweeps_hold(capsys):
    cost_sweep = sweep_search_cost_bound(10**6)
    harmonic_sweep = sweep_harmonic_bound(10**6)
    sizes = list(range(2, 2049)) + [10**4, 10**5 + 7, 10**6]
    identity_error = max(abs(timeout_cap(n) - 2.0 * expected_cost_bound(n)) for n in sizes)
    ok = cost_sweep.ok and harmonic_sweep.ok and identity_error <= 1e-9
    _verdict(
        capsys, 7, "closed-form inequality sweeps to 1e6", ok,
        f"search-cost worst ratio {cost_sweep.worst_ratio:.4f} (n={cost_sweep.worst_n}), "
        f"harmonic worst ratio {harmonic_sweep.worst_ratio:.4f} (n={harmonic_sweep.worst_n}), "
        f"cap identity error {identity_error:.1e}",
    )
    assert cost_sweep.ok
    assert harmonic_sweep.ok
    assert identity_error <= 1e-9


def _cli_stdout(*args: str) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "qminfind", *args], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_8_reports_reproducible_across_workers(capsys):
    success_args = ("success", "--n", "32", "--runs", "400", "--seed", "9")
    first = _cli_stdout(*success_args, "--workers", "1")
    repeat = _cli_stdout(*success_args, "--workers", "1")
    fanned = _cli_stdout(*success_args, "--workers", "2")

    run_args = ("run", "--n", "16", "--runs", "40", "--seed", "3", "--format", "csv")
    csv_a = _cli_stdout(*run_args)
    csv_b = _cli_stdout(*run_args, "--workers", "3")

    bounds_args = ("bounds", "--n", "128")
    bounds_a = _cli_stdout(*bounds_args)
    bounds_b = _cli_stdout(*bounds_args)

    ok = first == repeat == fanned and csv_a == csv_b and bounds_a == bounds_b
    _verdict(
        capsys, 8, "byte-identical reports across invocations and workers", ok,
        f"success {len(first)}B x3, run-csv {len(csv_a)}B x2, bounds {len(bounds_a)}B x2",
    )
    assert first == repeat == fanned
    assert csv_a == csv_b
    assert bounds_a == bounds_b
