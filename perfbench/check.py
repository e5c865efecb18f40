"""Correctness checks on rendered reports.

An invocation fails when it raises, when its verdict is not `passed`, when
its bytes differ from another rendering of the same seed (a repeat, the
traced run, or `workers=2`), or when the run it belongs to fails the
reference check below.

The reference check pools every report of one benchmark run and asks that
each key statistic sits within 4 standard errors of its reference:

* `success` workloads: the success fraction, `mean_loop_passes` and
  `mean_spent`, against `reference.json` (recorded at a large run count by
  `record_reference.py`).  The standard error combines the pooled sample
  and the reference sample.  Failures are rare, so the success fraction
  uses the exact conditional binomial test at the same two-sided tail
  probability as 4 SE.
* `lemma1`: the rank-1..10 selection frequencies against exactly 1/r.

References are laws, not streams: a change of random streams still passes,
while a change in the outcome law moves the pooled means by many SE.
Pooling keeps the false-alarm rate to one 4 SE test per statistic and run,
instead of one per invocation.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from scipy.stats import binomtest, norm

Z_LIMIT = 4.0
TAIL = 2.0 * float(norm.sf(Z_LIMIT))
LEMMA1_RANKS = 10
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _pooled_success(reports: list[dict]) -> dict:
    runs = sum(r["summary"]["runs"] for r in reports)
    return {
        "runs": runs,
        "successes": sum(r["summary"]["successes"] for r in reports),
        "mean_loop_passes": math.fsum(
            r["summary"]["mean_loop_passes"] * r["summary"]["runs"] for r in reports
        )
        / runs,
        "mean_spent": math.fsum(r["summary"]["mean_spent"] * r["summary"]["runs"] for r in reports)
        / runs,
    }


def success_failures(reports: list[dict], ref: dict) -> list[str]:
    pool = _pooled_success(reports)
    runs, ref_runs = pool["runs"], ref["runs"]
    problems = []
    failures = runs - pool["successes"]
    ref_failures = ref_runs - ref["successes"]
    if failures + ref_failures:
        p = binomtest(failures, failures + ref_failures, runs / (runs + ref_runs)).pvalue
        if p < TAIL:
            problems.append(
                f"failed runs {failures}/{runs} vs reference {ref_failures}/{ref_runs} (p={p:.2e})"
            )
    for key in ("mean_loop_passes", "mean_spent"):
        # A statistic with no spread (every capped run spends the whole
        # budget) must match exactly.
        se = ref[key.replace("mean_", "sd_")] * math.sqrt(1.0 / runs + 1.0 / ref_runs)
        diff = pool[key] - ref[key]
        z = diff / se if se else (0.0 if math.isclose(diff, 0.0, abs_tol=1e-9) else math.inf)
        if abs(z) > Z_LIMIT:
            problems.append(f"{key} {pool[key]:.4f} vs reference {ref[key]:.4f} ({z:+.1f} SE)")
    return problems


def lemma1_failures(reports: list[dict]) -> list[str]:
    problems = []
    for r in range(1, LEMMA1_RANKS + 1):
        rows = [row for rep in reports for row in rep["rows"] if row["rank"] == r]
        pairs = sum(row["pairs"] for row in rows)
        chosen = sum(row["ever_chosen"] for row in rows)
        if pairs == 0:
            problems.append(f"rank {r} never represented")
            continue
        p = 1.0 / r
        if r == 1:
            z = 0.0 if chosen == pairs else math.inf
        else:
            z = (chosen / pairs - p) / math.sqrt(p * (1.0 - p) / pairs)
        if abs(z) > Z_LIMIT:
            problems.append(f"rank {r} chosen {chosen}/{pairs} vs 1/{r} ({z:+.1f} SE)")
    return problems


def reference_failures(workload, reports: list[dict]) -> list[str]:
    """Reasons the pooled reports break the workload's reference law ([] if none)."""
    if not reports:
        return []
    if workload.experiment == "lemma1":
        return lemma1_failures(reports)
    return success_failures(reports, REFERENCE[workload.name])
