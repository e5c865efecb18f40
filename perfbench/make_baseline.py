"""Measure the baseline: two sets of benchmark runs, summarised into baseline.json.

    python3 perfbench/make_baseline.py

Runs `run.py` the way BENCHMARK.json prescribes (`--trace 0`): one set of
ten runs per workload with seeds 1-10, then a second set with seeds 11-20.
Then it makes two traced runs per workload with seed 1.  It writes
`perfbench/baseline.json`: per workload its definition and reason; for each
set the median, quartiles and spread (IQR / median) of every end-to-end
metric; how far the second set's median is worse than the first's, against
the metric's bound; the traced per-layer metrics, whether their counts
repeated in the second traced run, and which end-to-end metric each layer
metric should move.  Run it from the repository root on an otherwise idle
machine; it takes about 50 minutes.
"""
from __future__ import annotations

import dataclasses
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracing import TIMED
from workloads import WORKLOADS, layer_targets

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1


def bench(workload: str, seed: int, trace: int) -> dict:
    args = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(args, cwd=HERE.parent, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def worsening(metric: dict, first: float, second: float) -> float:
    """Share by which `second` is worse than `first` (negative when better)."""
    change = second / first - 1.0
    return change if metric["better"] == "lower" else -change


def main() -> None:
    baseline = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "run_seconds": SPEC["run_seconds"],
        "sets": [],
        "workloads": {},
    }
    for seeds in SETS:
        runs = {name: [bench(name, seed, 0) for seed in seeds] for name in WORKLOADS}
        baseline["sets"].append(
            {
                "seeds": list(seeds),
                "workloads": {
                    name: {
                        "attempted": [r["attempted"] for r in results],
                        "failed": [r["failed"] for r in results],
                        "end_to_end": {
                            m["name"]: {
                                "unit": m["unit"],
                                **summarise([r["metrics"][m["name"]]["value"] for r in results]),
                            }
                            for m in SPEC["end_to_end"]
                        },
                    }
                    for name, results in runs.items()
                },
            }
        )
    for name in WORKLOADS:
        first, second = (s["workloads"][name]["end_to_end"] for s in baseline["sets"])
        traced, again = bench(name, TRACE_SEED, 1), bench(name, TRACE_SEED, 1)
        baseline["workloads"][name] = {
            "definition": dataclasses.asdict(WORKLOADS[name]),
            "second_set_worse_by": {
                m["name"]: {
                    "value": worsening(m, first[m["name"]]["median"], second[m["name"]]["median"]),
                    "bound": m["bound"],
                }
                for m in SPEC["end_to_end"]
            },
            "trace_seed": TRACE_SEED,
            "traced_failed": [traced["failed"], again["failed"]],
            "traced_counts_repeat": all(
                again["metrics"][k]["value"] == v["value"]
                for k, v in traced["metrics"].items()
                if not k.endswith(TIMED)
            ),
            "per_layer": {
                k: {**v, "moves": layer_targets(k)} for k, v in traced["metrics"].items()
            },
        }
        print(name, baseline["workloads"][name]["second_set_worse_by"], file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
