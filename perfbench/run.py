"""Benchmark of the qminfind harness, end to end and per layer.

    python3 perfbench/run.py --workload capped-16384 --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  One
client in one process calls `run_experiment(config).render("json")` with
`workers=1` over and over (a closed loop; workloads in `workloads.py`).
Every report is checked (`check.py`).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it print every metric with its unit, the error rate, and the CPU
time and load average seen by the invocations.

`--trace 0` runs for `--seconds` and reports the end-to-end metrics:

* `runs_per_s`      median over invocations of runs per second;
* `runs_per_s_p25`  25th percentile of the same (the slow quarter);
* `setup_s`         median time of a fresh interpreter that imports
                    `qminfind.cli` and `qminfind.harness` and builds the
                    workload's config (one discarded warm-up, then three);
* `peak_rss_mb`     peak resident memory of a fresh interpreter that
                    imports the harness and runs the workload's first
                    RSS_INVOCATIONS invocations (and nothing else).

Times are scaled to a reference machine speed (`speed.py`): a fixed
calibration runs between timed calls, and each wall time is divided by the
calibration's slowdown against its reference time.  Invocations use a
compute mix; `setup_s` uses a fresh interpreter importing numpy and
scipy.special.  The unscaled figures are printed too and kept in the
sidecar.

`--trace 1` runs each of the workload's fixed invocations three times in a
row: untraced, traced (`tracing.py`) and at `workers=2`, and reports the
per-layer metrics, `harness.speedup_2w` and `trace.overhead`.

Per-invocation records (wall, CPU seconds, load average at start) and, for
traced runs, every span go to `.perfbench-out/` under the root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from check import reference_failures
from speed import IMPORT_CALIBRATION, IMPORT_CALIBRATION_REF_S, Speedometer
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Workload, invocation_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
RSS_INVOCATIONS = 2
CHILD_TIMEOUT_S = 60
# Reports carry `git describe` output; keep git from searching above the
# checkout (and refreshing some enclosing repository's index).
os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))


def _child(code: str) -> str:
    """Standard output of a fresh interpreter that runs `code` with the package on its path."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        check=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return child.stdout


def _child_seconds(code: str) -> float:
    """Time from spawning a fresh interpreter that runs `code` until `code` is done.

    The end is read off the system-wide monotonic clock in the child, so the
    interpreter's exit is not counted.
    """
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    end = _child(f"import time; {code}; print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    return float(end) - started


def _config_source(w: Workload, seed: int | None = None) -> str:
    """Source of an expression building the workload's config, with `h` the harness module."""
    seeded = "" if seed is None else f"seed={seed}, "
    return (
        f"h.ExperimentConfig(experiment={w.experiment!r}, n={w.n}, runs={w.runs}, {seeded}"
        f"backend=h.Backend({w.backend!r}), max_rank={w.max_rank})"
    )


def setup_samples(w: Workload, samples: int) -> list[tuple[float, float]]:
    """(wall, slowdown) of fresh interpreters that import the CLI and harness and build the config.

    Each sample sits between two runs of the import calibration (speed.py);
    its slowdown is their mean over IMPORT_CALIBRATION_REF_S.
    """
    code = f"import qminfind.cli, qminfind.harness as h; {_config_source(w)}"
    _child_seconds(code)  # may compile bytecode; not a sample
    calibration = [_child_seconds(IMPORT_CALIBRATION)]
    out = []
    for _ in range(samples):
        wall = _child_seconds(code)
        calibration.append(_child_seconds(IMPORT_CALIBRATION))
        out.append((wall, (calibration[-2] + calibration[-1]) / (2.0 * IMPORT_CALIBRATION_REF_S)))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss(w: Workload, seed: int) -> tuple[float, str]:
    """(peak RSS in MB, digest of invocation 0's JSON) of a fresh interpreter running the workload.

    The child imports only the harness and runs the first RSS_INVOCATIONS
    invocations, so the figure holds none of the benchmark's own memory and
    does not grow with the number of invocations a run fits in.
    """
    configs = ", ".join(_config_source(w, invocation_seed(seed, i)) for i in range(RSS_INVOCATIONS))
    out = _child(
        "import hashlib, resource, qminfind.harness as h; "
        f"texts = [h.run_experiment(c).render('json') for c in ({configs},)]; "
        "print(hashlib.sha256(texts[0].encode()).hexdigest()); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)"
    )
    digest, rss = out.split()
    return float(rss), digest


def _load_harness():
    sys.path.insert(0, str(SRC))
    import qminfind.harness as harness

    return harness


@dataclass
class Session:
    """One benchmark run's invocations, outputs and failures."""

    workload: Workload
    seed: int
    harness: object
    speed: Speedometer
    records: list[dict] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def config(self, index: int, workers: int = 1):
        w = self.workload
        h = self.harness
        return h.ExperimentConfig(
            experiment=w.experiment,
            n=w.n,
            runs=w.runs,
            seed=invocation_seed(self.seed, index),
            backend=h.Backend(w.backend),
            max_rank=w.max_rank,
            workers=workers,
        )

    def invoke(self, index: int, phase: str, workers: int = 1) -> str | None:
        """Run and render one invocation; return its JSON text, or None if it raised."""
        config = self.config(index, workers)
        load = os.getloadavg()[0]
        (text, cpu), wall, slowdown = self.speed.timed(lambda: self._render(config))
        self.records.append(
            {
                "phase": phase,
                "index": index,
                "workers": workers,
                "seed": config.seed,
                "runs": config.runs,
                "wall_s": wall,
                "slowdown": slowdown,
                "scaled_s": wall / slowdown,
                "cpu_s": cpu,
                "loadavg_1m": load,
                "ok": text is not None,
            }
        )
        if text is None:
            self.fail(index, f"invocation {index} raised")
        return text

    def _render(self, config) -> tuple[str | None, float]:
        """(JSON text or None if it raised, CPU seconds)."""
        cpu0 = time.process_time()
        try:
            text = self.harness.run_experiment(config).render("json")
        except Exception:
            traceback.print_exc()
            text = None
        return text, time.process_time() - cpu0

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        self.problems.append(problem)

    def accept(self, index: int, text: str | None) -> None:
        """Check one invocation's own verdict and keep its report for the pooled check."""
        if text is None:
            return
        report = json.loads(text)
        if report.get("passed") is not True:
            self.fail(index, f"invocation {index}: verdict not passed")
        self.reports.append(report)

    def same_bytes(self, index: int, text: str | None, other: str | None, what: str) -> None:
        if text is not None and other is not None and text != other:
            self.fail(index, f"invocation {index}: {what} rendered different bytes")

    def same_digest(self, index: int, text: str | None, digest: str, what: str) -> None:
        if text is not None and _digest(text) != digest:
            self.fail(index, f"invocation {index}: {what} rendered different bytes")

    def check_reference(self, attempted: list[int]) -> None:
        problems = reference_failures(self.workload, self.reports)
        if problems:
            self.failed.update(attempted)
            self.problems.extend(f"reference: {p}" for p in problems)

    def walls(self, phase: str) -> list[float]:
        """Wall times of the phase's invocations, scaled to the reference speed."""
        return [r["scaled_s"] for r in self.records if r["phase"] == phase and r["ok"]]


def measure_end_to_end(
    session: Session, seconds: float, setup: list[tuple[float, float]]
) -> dict:
    w = session.workload
    rss_mb, child_digest = peak_rss(w, session.seed)
    warm = session.invoke(0, "warmup")
    deadline = time.perf_counter() + seconds
    first = session.invoke(0, "plain")
    session.accept(0, first)
    index = 1
    while time.perf_counter() < deadline:
        session.accept(index, session.invoke(index, "plain"))
        index += 1
    session.same_bytes(0, first, warm, "a repeat with the same seed")
    session.same_bytes(0, first, session.invoke(0, "workers2", workers=2), "workers=2")
    session.same_digest(0, first, child_digest, "a fresh interpreter")
    attempted = list(range(index))
    session.check_reference(attempted)

    throughput = [w.runs / wall for wall in session.walls("plain")] or [0.0]
    return {
        "attempted": len(attempted),
        "metrics": {
            "runs_per_s": (statistics.median(throughput), "1/s"),
            "runs_per_s_p25": (_quantile(throughput, 0.25), "1/s"),
            "setup_s": (statistics.median(wall / slowdown for wall, slowdown in setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }


def measure_layers(session: Session, out_dir: Path) -> dict:
    w = session.workload
    indices = range(w.trace_invocations)
    session.invoke(0, "warmup")
    tracer = Tracer()
    # Each invocation runs untraced, traced and at workers=2 back to back,
    # so that the ratios between the three compare like machine speeds.
    for i in indices:
        plain = session.invoke(i, "plain")
        session.accept(i, plain)
        with tracer:
            session.same_bytes(i, plain, session.invoke(i, "traced"), "the traced run")
        session.same_bytes(i, plain, session.invoke(i, "workers2", workers=2), "workers=2")
    session.check_reference(list(indices))
    tracer.save(out_dir / f"spans-{w.name}-seed{session.seed}.npz")

    metrics = layer_metrics(tracer, w.n)
    plain_s = sum(session.walls("plain"))
    metrics["harness.speedup_2w"] = (_ratio(plain_s, sum(session.walls("workers2"))), "ratio")
    metrics["trace.overhead"] = (_ratio(sum(session.walls("traced")), plain_s) - 1.0, "fraction")
    return {"attempted": w.trace_invocations, "metrics": metrics}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    n_setup: int = SETUP_SAMPLES,
    out_dir: Path = OUT,
) -> dict:
    """Measure one workload; return the result object the last stdout line carries."""
    setup = [] if trace else setup_samples(workload, n_setup)
    session = Session(workload, seed, _load_harness(), Speedometer())
    if trace:
        outcome = measure_layers(session, out_dir)
    else:
        outcome = measure_end_to_end(session, seconds, setup)
    failed = len(session.failed)
    sidecar = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "setup_wall_s_and_slowdown": setup,
        "invocations": session.records,
        "problems": session.problems,
        "metrics": {k: v for k, (v, _) in outcome["metrics"].items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(sidecar, indent=1) + "\n"
    )
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
        "problems": session.problems,
        "records": session.records,
        "setup": setup,
    }


def _summary_lines(workload: Workload, result: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {workload.name}: {attempted} invocations of {workload.runs} runs, "
        f"{failed} failed, error_rate {failed / attempted:.4f}"
    ]
    lines += [f"  {p}" for p in result["problems"]]
    lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    records = [r for r in result["records"] if r["ok"] and r["wall_s"] > 0]
    if records:
        plain = [workload.runs / r["wall_s"] for r in records if r["phase"] == "plain"]
        slowdowns = [r["slowdown"] for r in records]
        loads = [r["loadavg_1m"] for r in records]
        lines += [
            f"unscaled runs_per_s median {statistics.median(plain):.6g} 1/s; slowdown against "
            f"the reference speed median {statistics.median(slowdowns):.3f}, "
            f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}",
            f"cpu/wall median {statistics.median(r['cpu_s'] / r['wall_s'] for r in records):.3f}; "
            f"load average (1 min) at invocation start median {statistics.median(loads):.2f}, "
            f"max {max(loads):.2f}",
        ]
    if result["setup"]:
        lines.append(
            f"unscaled setup_s median {statistics.median(w for w, _ in result['setup']):.6g} s; "
            f"import slowdown median {statistics.median(s for _, s in result['setup']):.3f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qminfind" / "harness.py").is_file():
        print(f"perfbench: no qminfind sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    for line in _summary_lines(workload, result):
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
