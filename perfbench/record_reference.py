"""Record the reference statistics that the benchmark's correctness check uses.

    python3 perfbench/record_reference.py

For every capped workload this runs the workload's configuration through
the `single-run` experiment at a large run count and stores the success
count and the mean and standard deviation of `loop_passes` and
`total_spent` in `perfbench/reference.json`.  The `single-run` streams are
tagged apart from the `success` streams the benchmark invokes, so the
reference sample is independent of every benchmark invocation.  The lemma1
workload needs no recorded reference: its rank frequencies are exactly 1/r.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qminfind.harness import ExperimentConfig, build_identifier, run_experiment  # noqa: E402
from qminfind.qsearch import Backend  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

REFERENCE_RUNS = {"capped-16384": 20_000, "exact-1024": 10_000}
REFERENCE_SEED = 20_260_101
# Only the recording time depends on it: reports are the same bytes at any
# worker count.
WORKERS = 2


def _mean_sd(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def record(name: str, runs: int) -> dict:
    w = WORKLOADS[name]
    config = ExperimentConfig(
        experiment="single-run",
        n=w.n,
        runs=runs,
        seed=REFERENCE_SEED,
        backend=Backend(w.backend),
        workers=WORKERS,
    )
    started = time.perf_counter()
    rows = run_experiment(config).rows
    passes_mean, passes_sd = _mean_sd([row["loop_passes"] for row in rows])
    spent_mean, spent_sd = _mean_sd([row["total_spent"] for row in rows])
    print(f"{name}: {runs} runs in {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return {
        "experiment": "single-run",
        "n": w.n,
        "backend": w.backend,
        "seed": REFERENCE_SEED,
        "runs": runs,
        "successes": sum(1 for row in rows if row["returned_is_minimum"]),
        "mean_loop_passes": passes_mean,
        "sd_loop_passes": passes_sd,
        "mean_spent": spent_mean,
        "sd_spent": spent_sd,
    }


def main() -> None:
    reference = {"build": build_identifier()}
    for name, runs in REFERENCE_RUNS.items():
        reference[name] = record(name, runs)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
