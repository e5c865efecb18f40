"""Benchmark workloads and the layer-to-end-to-end map.

Each workload is one closed loop: a single client calls the public harness
(`ExperimentConfig` -> `run_experiment` -> `Report.render`) with
`workers=1`, waits for the report, and sends the next invocation.  An
invocation runs `runs` Monte Carlo runs; invocation i of a benchmark run
uses config seed `invocation_seed(seed, i)`, so inputs follow from the
benchmark's `--seed` alone.

This module is plain data so that `run.py` can refuse to start before it
imports the package under test.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    n: int
    backend: str
    runs: int
    # Invocations in a traced run; fixed so that its counts repeat exactly.
    trace_invocations: int
    # Ranks the lemma1 verdict asserts (ignored by other experiments).
    max_rank: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="capped-16384",
            why="capped success runs at large N: table generation dominates, so N-scaling shows",
            experiment="success",
            n=16384,
            backend="analytic",
            # 15 runs is the least for which the Wilson verdict can pass at
            # all; 20 lets an invocation absorb up to four failed runs.
            runs=20,
            trace_invocations=24,
        ),
        Workload(
            name="uncapped-64",
            why="uncapped lemma1 runs at small N: per-round search, stream derivation and the fold dominate",
            experiment="lemma1",
            n=64,
            backend="analytic",
            runs=1000,
            trace_invocations=30,
            # The verdict's per-rank test (|freq - 1/r| <= max(0.01, 3 SE))
            # rejects about 2.8% of correct 1000-run invocations when it
            # asserts ranks 1..10.  The benchmark tests ranks 1..10 itself on
            # the pooled counts of a whole run (check.py), so the verdict
            # here asserts only that the minimum is always reached.
            max_rank=1,
        ),
        Workload(
            name="exact-1024",
            why="capped success runs on the exact statevector backend: the only workload that runs grover",
            experiment="success",
            n=1024,
            backend="exact",
            runs=15,
            trace_invocations=12,
        ),
    )
}


def invocation_seed(seed: int, index: int) -> int:
    """Config seed of invocation `index` in a benchmark run with `seed`."""
    return seed * 1_000_000 + index


# Which end-to-end metrics, on which workloads, each layer's per-layer
# metrics should move when the layer gets faster or does less work.  The
# first matching prefix wins.
LAYER_TARGETS = (
    ("seeding.", {"runs_per_s": ["uncapped-64"]}),
    # Most on capped-16384, some on uncapped-64, none on exact-1024.
    ("table.", {"runs_per_s": ["capped-16384", "uncapped-64"], "peak_rss_mb": ["capped-16384"]}),
    ("grover.success_probability.", {"runs_per_s": ["capped-16384", "uncapped-64"]}),
    ("grover.", {"runs_per_s": ["exact-1024"]}),
    ("qsearch.", {"runs_per_s": ["uncapped-64", "capped-16384"]}),
    # sim_steps_per_run is the paper's cost: a guard that must stay within
    # noise, not a target.
    ("minfind.", {"runs_per_s": ["capped-16384", "uncapped-64", "exact-1024"]}),
    # speedup_2w is informational.
    ("harness.", {"runs_per_s": ["uncapped-64"]}),
    ("trace.", {}),
)


def layer_targets(metric: str) -> dict[str, list[str]]:
    return next(targets for prefix, targets in LAYER_TARGETS if metric.startswith(prefix))
