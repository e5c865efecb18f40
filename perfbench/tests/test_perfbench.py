"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_RUNS = {"capped-16384": 20, "uncapped-64": 200, "exact-1024": 15}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], runs=TINY_RUNS[name], trace_invocations=2)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end_emits_every_metric_with_its_unit(name, tmp_path):
    result = bench.run(tiny(name), seed=3, seconds=0.2, trace=False, n_setup=1, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (tmp_path / f"{name}-seed3-trace0.json").is_file()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_emits_every_layer_metric_and_counts_repeat(name, tmp_path):
    first = bench.run(tiny(name), seed=5, seconds=1, trace=True, out_dir=tmp_path)
    second = bench.run(tiny(name), seed=5, seconds=1, trace=True, out_dir=tmp_path)
    assert first["correct"] and second["correct"]
    emitted = {k: m["unit"] for k, m in first["metrics"].items()}
    assert emitted == declared("per_layer")
    for key, metric in first["metrics"].items():
        if not key.endswith(tracing.TIMED):
            assert second["metrics"][key]["value"] == metric["value"], key
    assert first["metrics"]["minfind.calls"]["value"] == 2 * TINY_RUNS[name]
    exact = WORKLOADS[name].backend == "exact"
    assert (first["metrics"]["grover.grover_iterate.calls"]["value"] > 0) == exact
    assert (first["metrics"]["table.oracle.samples"]["value"] > 0) == (not exact)
    assert (tmp_path / f"spans-{name}-seed5.npz").is_file()


def test_missing_trace_target_reports_zero_calls(monkeypatch, tmp_path):
    targets = tuple(
        (name, module, "no_such_function" if name == "table.generate_table" else path)
        for name, module, path in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    result = bench.run(tiny("uncapped-64"), seed=1, seconds=1, trace=True, out_dir=tmp_path)
    assert result["correct"]
    assert result["metrics"]["table.generate_table.calls"]["value"] == 0
    assert result["metrics"]["seeding.derive_stream.calls"]["value"] == 2 * TINY_RUNS["uncapped-64"]


def _session(name: str) -> bench.Session:
    return bench.Session(tiny(name), 7, bench._load_harness(), bench.Speedometer())


def test_flipped_verdict_counts_as_failed_invocation():
    session = _session("capped-16384")
    report = json.loads(session.invoke(0, "plain"))
    assert report["passed"] is True
    report["passed"] = False
    session.accept(0, json.dumps(report))
    assert session.failed == {0}


@pytest.mark.parametrize("key", ["mean_loop_passes", "mean_spent"])
def test_shifted_mean_counts_as_failed_invocation(key):
    session = _session("capped-16384")
    text = session.invoke(0, "plain")
    session.accept(0, text)
    session.check_reference([0])
    assert session.failed == set()

    ref = check.REFERENCE["capped-16384"]
    report = json.loads(text)
    runs = report["summary"]["runs"]
    # Every capped run spends the whole budget, so mean_spent has no spread:
    # one time step off is already a change in the law.
    se = ref[key.replace("mean_", "sd_")] / math.sqrt(runs)
    report["summary"][key] += 10 * se if se else 1.0
    shifted = _session("capped-16384")
    shifted.accept(0, json.dumps(report))
    shifted.check_reference([0])
    assert shifted.failed == {0}


def test_shifted_rank_frequency_counts_as_failed_invocation():
    session = _session("uncapped-64")
    report = json.loads(session.invoke(0, "plain"))
    assert check.reference_failures(session.workload, [report]) == []
    row = next(row for row in report["rows"] if row["rank"] == 2)
    row["ever_chosen"] += round(10 * math.sqrt(0.25 * row["pairs"]))
    assert check.reference_failures(session.workload, [report])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "uncapped-64", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
