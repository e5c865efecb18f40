"""Monte Carlo experiment driver.

Each experiment turns a claim about the algorithm into a seeded batch of
runs plus a statistical verdict:

* ``lemma1``        rank-selection frequencies of the uncapped run vs 1/r;
* ``success``       capped-run (or boosted) success fraction vs its floor;
* ``expected-cost`` uncapped-run cost vs its closed-form bound;
* ``equivalence``   exact statevector backend vs the analytic sampler;
* ``bounds``        closed-form identities and inequality sweeps;
* ``single-run``    raw per-run records, no checks.

Every batch of algorithm runs goes through one map: ``_map_runs`` draws
run i's table and run from the private stream (seed, *key, i), runs it
through ``_run`` (one ``find_minimum`` call, c of them under ``--boost c``)
under the step cap decided once per config (``ExperimentConfig.cap``), and
yields a small per-run record.  Each experiment folds its records in run
order into a verdict.  Without a table file, analytic runs use their values
in sorted order (the analytic law depends only on ranks), so an analytic
``single-run`` ``returned_index`` is a rank-order position; exact runs draw
randomly arranged tables.  Worker processes only split the run range into
spans and send their records back in span order, so a report is
byte-identical for any worker count.  Reports deliberately contain no
wall-clock data; timing goes to stderr in the CLI layer.

``equivalence`` maps its whole-algorithm runs as one derived ``success``
config per backend.  Its other checks take one pass per (n, t) cell under
one ``GroverLadder`` marking 0..t-1, which serves the cell's fixed-j draws
and all of its exact searches; both backends' searches go through
``qsearch.search``, the call every algorithm run makes.

Verdict conventions: every verdict is a list of ``_check_row`` checks, and a
report passes when each is ok.  Equality checks pass within max(0.01, 3 SE),
one-sided bound checks require estimate + 3 SE below the bound, chi-square
tests p > 0.001, and equivalence's fixed-j frequencies an exact
two-sided binomial test at the level of a 4-sigma normal test.  Only
``equivalence`` runs those two tests, so scipy is imported inside them:
importing it takes about a second, which every other experiment and every
import of the package would otherwise pay.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .bounds import (
    expected_cost_bound,
    expected_search_cost_bound,
    harmonic_number,
    search_iterations_bound,
    sweep_harmonic_bound,
    sweep_search_cost_bound,
    timeout_cap,
)
from .grover import GroverLadder, success_probability
from .minfind import INIT_CHARGE_POLICY, RunResult, find_minimum
from .qsearch import DEFAULT_GROWTH, Backend, check_growth, search
from .seeding import derive_stream
from .table import Table, generate_table, read_table, sorted_table

__all__ = [
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "estimate_rank_selection",
    "estimate_success_rate",
    "estimate_expected_cost",
    "backend_equivalence",
    "bounds_report",
    "single_run_records",
    "closed_form_deviation",
    "wilson_interval",
    "two_sample_chisquare",
    "uniform_chisquare",
    "build_identifier",
]

# The config fields each experiment reads besides ``experiment``.  A field
# outside its experiment's set must keep its default, so no flag is
# silently ignored.  The experiments reading no ``timeout`` measure the
# uncapped run.
_RUN_FIELDS = frozenset(
    {"n", "runs", "seed", "backend", "growth", "mode", "table_path", "workers"}
)
_CAPPED_RUN_FIELDS = _RUN_FIELDS | {"boost", "timeout"}
EXPERIMENT_FIELDS = {
    "lemma1": _RUN_FIELDS | {"max_rank"},
    "success": _CAPPED_RUN_FIELDS,
    "expected-cost": _RUN_FIELDS,
    "equivalence": frozenset({"n", "runs", "seed", "growth", "j_max"}),
    "bounds": frozenset({"n", "sweep_max"}),
    "single-run": _CAPPED_RUN_FIELDS,
}
# The command-line flag of each field whose flag is not its name hyphenated.
_FLAGS = {"growth": "lambda", "table_path": "table"}

# The two-sided 99% normal quantile, float(scipy.special.ndtri(0.995)).
Z99 = 2.5758293035489004
CHI2_ALPHA = 1e-3
# The two-sided level of a 4-sigma normal test, 2(1 - Phi(4)), held exactly
# by the fixed-j rows' binomial test: float(2 * scipy.special.ndtr(-4)).
FIXED_J_ALPHA = 6.334248366623973e-05
# A search's schedule holds about ln(sqrt(n)) / ln(growth) growing rounds,
# 63 at the default 8/7 and n = 2^24; 10^5 of them take 0.5 s and 8 MB.
MAX_GROWING_ROUNDS = 10**5
# A table of n values holds three int64 arrays (values, order, ranks), so
# 2^24 entries take about 400 MB; a bound sweep to m holds a few float64
# arrays of length m, about 400 MB at 10^7.  10^9 runs take about 14 h at
# 19k runs/s, and stay within the int64 span edges of ``_spans``.
MAX_N = 2**24
MAX_SWEEP = 10**7
MAX_RUNS = 10**9
# From c = 54 on, the boosted floor 1 - 2^-c is exactly 1.0 in float64, so a
# larger c changes no verdict, only the work (c repetitions).
MAX_BOOST = 53
EXACT_BACKEND_MAX_N = 2**14
EQUIVALENCE_MAX_N = 2**10
# lemma1 reports one row per rank, and building and rendering them holds
# about 2.2 KB per rank (307 MB peak at 2^17 on a 2-core x86-64 host), so
# 2^17 keeps the report within MAX_N's table budget.
LEMMA1_MAX_N = 2**17
# The closed-form check takes (n + 1)(j_max + 1) ladder iterations,
# about 2 s at j_max = 64 and n = EQUIVALENCE_MAX_N, whose searches
# never run more than ceil(sqrt(n)) - 1 = 31 iterations in a round.
MAX_J = 64
# Rank rows below this many (run, index) pairs carry no 0.01-scale
# information and are reported but not asserted.
MIN_ASSERT_PAIRS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment invocation depends on.

    Each field's default, grammar and range are stated here alone; the CLI
    passes its flags through under the field names.  An experiment reads
    only the fields ``EXPERIMENT_FIELDS`` names for it; a config setting any
    other field away from its default is rejected.  ``mode`` holds the
    ``--mode`` text, ``distinct`` or ``dup:<k>`` with k in 1..n.
    """

    experiment: str
    n: int = 64
    runs: int = 10_000
    seed: int = 0
    backend: Backend = Backend.ANALYTIC_SAMPLER
    growth: float = DEFAULT_GROWTH
    mode: str = "distinct"
    boost: int | None = None
    timeout: float | None = None
    max_rank: int = 10
    j_max: int = 12
    sweep_max: int = 10**6
    workers: int = 1
    table_path: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_FIELDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # The CLI parses --backend into a Backend; text passed here is
        # coerced so that the checks below compare members, not strings.
        try:
            backend = Backend(self.backend)
        except ValueError:
            choices = ", ".join(repr(b.value) for b in Backend)
            raise ValueError(
                f"backend (--backend) must be one of {choices}, got {self.backend!r}"
            ) from None
        object.__setattr__(self, "backend", backend)
        reads = EXPERIMENT_FIELDS[self.experiment] | {"experiment"}
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                flag = _FLAGS.get(f.name, f.name.replace("_", "-"))
                raise ValueError(f"{self.experiment} does not read {f.name} (--{flag})")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in 1..{MAX_N}, got {self.n}")
        if not 2 <= self.sweep_max <= MAX_SWEEP:
            raise ValueError(f"sweep_max must lie in 2..{MAX_SWEEP}, got {self.sweep_max}")
        # A negative j_max or a max_rank below 1 asserts no row, so the
        # verdict could not fail; MAX_J bounds the closed-form check's time.
        if not 0 <= self.j_max <= MAX_J:
            raise ValueError(f"j_max must lie in 0..{MAX_J}, got {self.j_max}")
        if self.max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {self.max_rank}")
        if not 1 <= self.runs <= MAX_RUNS:
            raise ValueError(f"runs must lie in 1..{MAX_RUNS}, got {self.runs}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_growth(self.growth)
        if math.log(self.n) / (2.0 * math.log(self.growth)) > MAX_GROWING_ROUNDS:
            least = math.ceil(math.exp(math.log(self.n) / (2.0 * MAX_GROWING_ROUNDS)) * 1e9) / 1e9
            raise ValueError(
                f"growth factor {self.growth!r} (--lambda) needs over {MAX_GROWING_ROUNDS} growing"
                f" search rounds at n = {self.n}; the smallest accepted at this n is {least!r}"
            )
        try:
            k = self.dup_k
        except ValueError:  # k is not an integer
            k = 0
        if self.mode != "distinct" and not (self.mode.startswith("dup:") and 1 <= k <= self.n):
            raise ValueError(
                f"table mode (--mode) must be 'distinct' or 'dup:<k>' with 1 <= k <= {self.n},"
                f" got {self.mode!r}"
            )
        if self.boost is not None and not 1 <= self.boost <= MAX_BOOST:
            raise ValueError(f"boost count must lie in 1..{MAX_BOOST}, got {self.boost}")
        # Boosting runs each repetition at the default cap, where its floor
        # 1 - 2^-c holds, so a timeout would be silently ignored.
        if self.boost is not None and self.timeout is not None:
            raise ValueError("boost sets its own cap and cannot be combined with a timeout")
        # An infinite cap never stops a search with nothing marked, and NaN
        # cannot be written as JSON, so only finite caps are accepted; -0.0
        # is taken as 0.0, so that both run and render alike.
        if self.timeout is not None:
            if not (math.isfinite(self.timeout) and self.timeout >= 0):
                raise ValueError(f"timeout must be a finite number >= 0, got {self.timeout}")
            object.__setattr__(self, "timeout", abs(self.timeout))
        if self.backend is Backend.EXACT_STATEVECTOR and self.n > EXACT_BACKEND_MAX_N:
            raise ValueError(f"exact backend is limited to n <= {EXACT_BACKEND_MAX_N}")
        if self.experiment == "equivalence" and self.n > EQUIVALENCE_MAX_N:
            raise ValueError(f"equivalence runs the exact backend; n <= {EQUIVALENCE_MAX_N}")
        if self.experiment == "lemma1" and self.n > LEMMA1_MAX_N:
            raise ValueError(f"lemma1 reports one row per rank; n <= {LEMMA1_MAX_N}")
        if self.experiment in ("expected-cost", "bounds") and self.n < 2:
            raise ValueError(f"{self.experiment} experiment needs n >= 2")

    @functools.cached_property
    def fixed_table(self) -> Table | None:
        """The table file every run uses, read once; None when runs draw their own."""
        if self.table_path is None:
            return None
        table = read_table(self.table_path)
        if len(table) != self.n:
            # The file wins; n is display metadata in this case.
            raise ValueError(
                f"table file holds {len(table)} values but --n is {self.n}; "
                f"pass --n {len(table)}"
            )
        return table

    @functools.cached_property
    def cap(self) -> float:
        """Every run's step cap (each repetition's, under boosting).

        Infinite for the experiments that read no timeout; else 0 at n = 1,
        whose only entry is the minimum, so its run needs no step; else the
        timeout, else the default.
        """
        if "timeout" not in EXPERIMENT_FIELDS[self.experiment]:
            return math.inf
        if self.n == 1:
            return 0.0
        if self.timeout is not None:
            return float(self.timeout)
        return timeout_cap(self.n)

    @functools.cached_property
    def dup_k(self) -> int | None:
        """The k of a ``dup:<k>`` mode, the number of values runs draw from; None if distinct."""
        return None if self.mode == "distinct" else int(self.mode.removeprefix("dup:"))

    @functools.cached_property
    def mode_label(self) -> str:
        """``distinct`` or ``dup:<k>``; a table file's kind comes from its values."""
        table = self.fixed_table
        if table is None:
            return "distinct" if self.mode == "distinct" else f"dup:{self.dup_k}"
        k = len(np.unique(table.values))
        return "distinct" if k == len(table) else f"dup:{k}"

    def to_dict(self) -> dict:
        # Worker count is a throughput knob with no effect on results, so
        # it stays out of the report body (reports must be byte-identical
        # across worker counts).
        config = {_FLAGS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        del config["workers"]
        config.update(
            backend=self.backend.value,
            mode=self.mode_label,
            init_charge_policy=INIT_CHARGE_POLICY,
        )
        return config


@dataclass
class Report:
    """Summary, tabular rows and checks; a report passes when every check does.

    JSON carries the whole object; CSV carries the rows (header included), or
    the checks where there are none.  ``single-run``'s rows are its records.
    """

    experiment: str
    config: dict
    build: str
    summary: dict
    rows: list[dict]
    checks: list[dict]

    @property
    def passed(self) -> bool:
        return all(check["ok"] for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "build": self.build,
            "config": self.config,
            "passed": self.passed,
            "summary": self.summary,
            "rows": self.rows,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        import csv

        buffer = io.StringIO()
        rows = self.rows or self.checks
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return buffer.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")


def build_identifier() -> str:
    """Package name and version, the ``build`` field of every report."""
    return f"qminfind {__version__}"


def _report(config: ExperimentConfig, summary: dict, rows: list, checks: list) -> Report:
    return Report(config.experiment, config.to_dict(), build_identifier(), summary, rows, checks)


def _check_row(
    check: str, ok: bool, tolerance: float | None, t=None, j=None, estimate=None, expected=None,
    p_value=None,
) -> dict:
    """One check of a verdict; every check carries the same eight columns."""
    return {
        "check": check,
        "t": t,
        "j": j,
        "estimate": estimate,
        "expected": expected,
        "tolerance": tolerance,
        "p_value": p_value,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# statistics helpers


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    # The edges are exact (the interval closes at the observed boundary);
    # computing them through the general formula loses an ulp.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def proportion_stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P(X >= stat) of the chi-square law with ``dof`` degrees of freedom."""
    from scipy.special import chdtrc

    # The function ``scipy.stats.chi2.sf(stat, dof)`` evaluates.
    return float(chdtrc(dof, stat))


def two_sample_chisquare(
    counts_a: Counter, counts_b: Counter, min_pooled: int = 10
) -> tuple[float, float, int]:
    """Chi-square homogeneity test for two category-count samples.

    Categories are pooled in sorted-key order until each bin holds at least
    ``min_pooled`` observations combined.  Returns (statistic, p, dof);
    fewer than two usable bins yields the degenerate (0, 1, 0).
    """
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if total_a == 0 or total_b == 0:
        raise ValueError("both samples need at least one observation")
    bins: list[tuple[int, int]] = []
    acc_a = acc_b = 0
    for key in sorted(set(counts_a) | set(counts_b)):
        acc_a += counts_a.get(key, 0)
        acc_b += counts_b.get(key, 0)
        if acc_a + acc_b >= min_pooled:
            bins.append((acc_a, acc_b))
            acc_a = acc_b = 0
    if acc_a + acc_b > 0:
        if bins:
            last_a, last_b = bins.pop()
            bins.append((last_a + acc_a, last_b + acc_b))
        else:
            bins.append((acc_a, acc_b))
    if len(bins) < 2:
        return 0.0, 1.0, 0
    ratio_ab = math.sqrt(total_b / total_a)
    ratio_ba = math.sqrt(total_a / total_b)
    stat = sum((a * ratio_ab - b * ratio_ba) ** 2 / (a + b) for a, b in bins)
    dof = len(bins) - 1
    return float(stat), _chi2_sf(stat, dof), dof


def uniform_chisquare(counts: np.ndarray) -> tuple[float, float, int]:
    """Goodness-of-fit of integer counts against the uniform distribution.

    Skipped (p = 1) when there are fewer than two categories or the
    expected count per category is below 5.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    k = len(counts)
    if k < 2 or total / k < 5:
        return 0.0, 1.0, 0
    expected = total / k
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = k - 1
    return stat, _chi2_sf(stat, dof), dof


# ---------------------------------------------------------------------------
# run plumbing


def _spans(runs: int, pieces: int) -> list[tuple[int, int]]:
    pieces = max(1, min(pieces, runs))
    edges = np.linspace(0, runs, pieces + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b]


def _run(config: ExperimentConfig, table: Table, rng) -> RunResult:
    """One run under ``config.cap``; under ``--boost c``, the best of c on one stream.

    At the paper's cap a run returns the minimum with probability at least
    1/2, so the first of c independent repetitions holding the least rank
    does with probability at least 1 - 1/2^c.  Its account sums theirs; it
    has no single history, so its ``history`` and ``first_hit_time`` are None.
    """
    if not config.boost:
        return find_minimum(table, config.backend, config.growth, config.cap, rng)
    args = table, config.backend, config.growth, config.cap, rng
    repetitions = [find_minimum(*args) for _ in range(config.boost)]
    rank_of = table.ranks.item
    best = min(repetitions, key=lambda result: rank_of(result.returned_index))
    return RunResult(
        best.returned_index,
        best.returned_is_minimum,
        None,
        sum(result.total_spent for result in repetitions),
        sum(result.loop_passes for result in repetitions),
        sum(result.search_steps for result in repetitions),
        None,
    )


def _run_span(config: ExperimentConfig, key: tuple, record, span):
    # Without a table file, the exact backend, the reference, draws randomly
    # arranged tables.  The analytic law depends only on ranks, so analytic
    # runs take their values in sorted order; the distinct one is a shared,
    # read-only 0..n-1 that reads nothing from the stream, fetched once.
    table = config.fixed_table
    k = config.dup_k
    draw_table = None
    if table is None:
        if config.backend is Backend.EXACT_STATEVECTOR:
            draw_table = generate_table
        elif k is None:
            table = sorted_table(config.n, None)
        else:
            draw_table = sorted_table
    for i in range(*span):
        rng = derive_stream(config.seed, *key, i)
        if draw_table is not None:
            table = draw_table(config.n, rng, k)
        yield record(table, _run(config, table, rng))


def _collect_span(config: ExperimentConfig, key: tuple, record, span):
    return list(_run_span(config, key, record, span))


def _map_runs(config: ExperimentConfig, key: tuple, record) -> Iterator:
    """Yield ``record(table, result)`` for every run, in run order.

    Run i draws its table (unless a table file fixes it, or the runs share
    the analytic backend's distinct table, which draws nothing) and then
    its run from the stream (seed, *key, i).  Worker processes each take
    a span of runs and send back its records; spans come back in order, so
    a fold over the records sees the same sequence for any worker count.
    """
    # Read the table file here, before any worker starts: the cached table
    # travels inside the pickled config, so no worker reads the file again.
    config.fixed_table
    workers = min(config.workers, config.runs)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from _run_span(config, key, record, (0, config.runs))
        return
    # Imported here: a serial run then loads no multiprocessing machinery.
    from concurrent.futures import ProcessPoolExecutor

    span_records = functools.partial(_collect_span, config, key, record)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for records in pool.map(span_records, _spans(config.runs, workers * 4)):
            yield from records


# ---------------------------------------------------------------------------
# lemma1: rank-selection frequencies


def _lemma1_record(table: Table, result: RunResult):
    rank_of = table.ranks.item
    return None, [rank_of(y) for _, y in result.history]


def _lemma1_drawn_record(table: Table, result: RunResult):
    counts = np.bincount(table.ranks)
    ranks = counts.nonzero()[0]
    return (ranks, counts[ranks]), _lemma1_record(table, result)[1]


def estimate_rank_selection(config: ExperimentConfig) -> Report:
    """How often the index of each rank ever becomes the threshold.

    For distinct tables the frequency must match 1/r; with duplicates it
    must stay at or below 1/r.  Counting includes the uniformly random
    starting threshold, and the minimum (rank 1) is always reached.
    """
    # Which ranks a run's table holds follows from the config's table kind.
    # A drawn dup table has its own, so its record carries its rank classes
    # (each rank and its entry count, at most k of them).  Every other run's
    # table holds the same ranks, the table file's or each of 1..n once, so
    # they are counted once for all runs.  The fold holds O(n) state.
    table = config.fixed_table
    drawn = table is None and config.dup_k is not None
    represented = np.zeros(config.n + 1, dtype=np.int64)
    if not drawn:
        ranks = np.arange(1, config.n + 1) if table is None else table.ranks
        represented += config.runs * np.bincount(ranks, minlength=config.n + 1)
    chosen = [0] * (config.n + 1)
    record = _lemma1_drawn_record if drawn else _lemma1_record
    for classes, chosen_ranks in _map_runs(config, ("lemma1",), record):
        if drawn:
            ranks, counts = classes
            represented[ranks] += counts
        for r in chosen_ranks:
            chosen[r] += 1

    # Every run sees the same kind of table: the file's, or the mode's.
    distinct = config.mode_label == "distinct"
    rows = []
    worst_dev = None
    for r in range(1, config.n + 1):
        pairs = int(represented[r])
        if pairs == 0:
            continue
        hits = chosen[r]
        p_hat = hits / pairs
        theory = 1.0 / r
        se = proportion_stderr(p_hat, pairs)
        margin = max(0.01, 3.0 * se)
        deviation = p_hat - theory
        if distinct:
            asserted = r <= config.max_rank
            ok = abs(deviation) <= margin
        else:
            asserted = pairs >= MIN_ASSERT_PAIRS
            ok = deviation <= margin
        if asserted:
            dev = abs(deviation) if distinct else deviation
            worst_dev = dev if worst_dev is None else max(worst_dev, dev)
        rows.append(
            {
                "rank": r,
                "pairs": pairs,
                "ever_chosen": hits,
                "frequency": p_hat,
                "theory": theory,
                "stderr": se,
                "margin": margin,
                "asserted": asserted,
                "ok": ok,
            }
        )

    # Each asserted rank has its own margin, so the check states none.  A
    # check that asserts no rank tests nothing, so it is not ok.
    asserted_ok = worst_dev is not None and all(row["ok"] for row in rows if row["asserted"])
    checks = [_check_row("rank-frequency", asserted_ok, None, estimate=worst_dev, expected=0.0)]
    if distinct:  # rank 1 is in every table, so the first row is its own
        p_min = rows[0]["frequency"]
        checks.append(
            _check_row("minimum-always-chosen", p_min == 1.0, 0.0, estimate=p_min, expected=1.0)
        )
    summary = {
        "runs": config.runs,
        "asserted_ranks": sum(1 for row in rows if row["asserted"]),
        "worst_asserted_deviation": worst_dev,
        "comparison": "equality" if distinct else "upper-bound",
    }
    return _report(config, summary, rows, checks)


# ---------------------------------------------------------------------------
# success: capped-run success fraction


def _success_record(table: Table, result: RunResult):
    return result.returned_is_minimum, result.total_spent, result.loop_passes


def estimate_success_rate(config: ExperimentConfig) -> Report:
    """Success fraction with a Wilson 99% interval, against its floor.

    Unboosted capped runs must keep the lower confidence bound at or above
    1/2; with c-fold boosting the floor rises to 1 - 1/2^c (checked within
    three standard errors).
    """
    hits, spent, passes = zip(*_map_runs(config, ("success",), _success_record))
    successes = sum(hits)

    fraction = successes / config.runs
    lo, hi = wilson_interval(successes, config.runs)
    floor, estimate, allowance = 0.5, lo, 0.0
    if config.boost:
        floor = 1.0 - 0.5**config.boost
        estimate, allowance = fraction, 3.0 * proportion_stderr(fraction, config.runs)
    check = _check_row(
        "success-floor", estimate >= floor - allowance, allowance, estimate=estimate, expected=floor
    )
    summary = {
        "runs": config.runs,
        "successes": successes,
        "success_fraction": fraction,
        "wilson99_low": lo,
        "wilson99_high": hi,
        "floor": floor,
        "mean_spent": float(np.mean(spent)),
        "mean_loop_passes": float(np.mean(passes)),
    }
    return _report(config, summary, [summary], [check])


# ---------------------------------------------------------------------------
# expected-cost: uncapped-run cost against the closed-form bound


def _cost_record(table: Table, result: RunResult):
    return result.first_hit_time, result.loop_passes, result.search_steps


def estimate_expected_cost(config: ExperimentConfig) -> Report:
    """Mean time until the threshold first holds the minimum.

    Total time must sit below (45/4) sqrt(n) + (7/10) lg^2 n, and the
    search-iteration share alone below its exact-sum bound, both with a
    three-standard-error allowance.
    """
    first_hits, passes, search_steps = zip(*_map_runs(config, ("cost",), _cost_record))

    mean_cost, se_cost = mean_and_stderr(first_hits)
    mean_search, se_search = mean_and_stderr(search_steps)
    cost_bound = expected_cost_bound(config.n)
    search_bound = expected_search_cost_bound(config.n)
    checks = [
        _check_row(name, mean + 3.0 * se <= bound, 3.0 * se, estimate=mean, expected=bound)
        for name, mean, se, bound in (
            ("first-hit-time-bound", mean_cost, se_cost, cost_bound),
            ("search-steps-bound", mean_search, se_search, search_bound),
        )
    ]
    summary = {
        "runs": config.runs,
        "mean_first_hit_time": mean_cost,
        "stderr_first_hit_time": se_cost,
        "cost_bound": cost_bound,
        "mean_search_steps": mean_search,
        "stderr_search_steps": se_search,
        "search_steps_bound": search_bound,
        "mean_loop_passes": float(np.mean(passes)),
    }
    return _report(config, summary, [summary], checks)


# ---------------------------------------------------------------------------
# equivalence: exact statevector vs analytic sampler


def closed_form_deviation(n: int, j_max: int) -> float:
    """Worst |statevector marked probability - closed form| over t and j <= j_max.

    The statevector side is the exact backend's ladder: with indices
    0..t-1 marked, the marked probability is the CDF at index t - 1.
    """
    worst = 0.0
    for t in range(n + 1):
        ladder = GroverLadder(np.arange(n) < t)
        for j in range(j_max + 1):
            marked = ladder.cdf(j)[t - 1] if t else 0.0
            worst = max(worst, abs(marked - success_probability(n, t, j)))
    return worst


def _equivalence_cells(n: int) -> list[int]:
    return sorted({0, 1, 2, n // 4, n // 2, n} & set(range(0, n + 1)))


def _equivalence_cell(config: ExperimentConfig, t: int) -> tuple[list[dict], list[dict]]:
    """The fixed-j rows and the search rows of the cell with indices 0..t-1 marked.

    One ladder serves the whole cell, so it computes each iteration once
    for the exact fixed-j draws and every exact search.  Fixed-j rows
    compare measurement frequencies at pinned iteration counts with the
    closed form; search rows check that hit and miss indices are uniform
    within their class and that both backends' (hit, iterations) laws agree.
    With 0..t-1 marked, an analytic search's class position is its index.
    """
    from scipy.stats import binomtest

    n = config.n
    ladder = GroverLadder(np.arange(n) < t)
    samples = min(config.runs, 20_000)
    measure = ladder.measure
    fixed_rows = []
    for j in range(min(config.j_max, 8) + 1):
        p_true = success_probability(n, t, j)
        rng = derive_stream(config.seed, "eqv-fixedj", t, j)
        hits = sum(measure(j, rng) < t for _ in range(samples))
        # Exact, so a probability near 0 or 1 keeps the nominal level.
        p_value = float(binomtest(hits, samples, p_true).pvalue)
        ok = p_value > FIXED_J_ALPHA
        fixed_rows.append(
            _check_row("fixed-j", ok, FIXED_J_ALPHA, t, j, hits / samples, p_true, p_value)
        )

    # At n = 1 every search ends after one j = 0 round, whatever its budget.
    budget = timeout_cap(n)
    search_rows = []
    laws = {}
    for backend in Backend:
        law = laws[backend] = Counter()
        index_counts = np.zeros(n, dtype=np.int64)
        search_ladder = ladder if backend is Backend.EXACT_STATEVECTOR else None
        for i in range(config.runs):
            rng = derive_stream(config.seed, "eqv-cell", backend.value, t, i)
            hit, used, _, index = search(n, t, budget, config.growth, rng, search_ladder)
            law[(hit, used)] += 1
            index_counts[index] += 1
        for label, class_counts in (("hit", index_counts[:t]), ("miss", index_counts[t:])):
            _, p_uniform, _ = uniform_chisquare(class_counts)
            check = f"uniformity-{label}-{backend.value}"
            ok = p_uniform > CHI2_ALPHA
            search_rows.append(_check_row(check, ok, CHI2_ALPHA, t, p_value=p_uniform))
    exact, analytic = laws[Backend.EXACT_STATEVECTOR], laws[Backend.ANALYTIC_SAMPLER]
    if t == 0:
        # With nothing marked every search misses after spending the floor
        # of its budget, so the two laws must be equal, not merely close.
        ok, p_value = exact == analytic, None
    else:
        _, p_value, _ = two_sample_chisquare(exact, analytic)
        ok = p_value > CHI2_ALPHA
    search_rows.append(_check_row("outcome-distribution", ok, CHI2_ALPHA, t, p_value=p_value))
    return fixed_rows, search_rows


def _full_algorithm_rates(config: ExperimentConfig) -> dict:
    """Capped-run success rates under both backends must agree within 3 sigma."""
    runs = min(config.runs, 10_000)
    rates = {}
    for backend in Backend:
        success = ExperimentConfig("success", config.n, runs, config.seed, backend, config.growth)
        hits, _, _ = zip(*_map_runs(success, ("eqv-full", backend.value), _success_record))
        rates[backend] = sum(hits) / runs
    p_exact = rates[Backend.EXACT_STATEVECTOR]
    p_analytic = rates[Backend.ANALYTIC_SAMPLER]
    sigma = math.sqrt(
        proportion_stderr(p_exact, runs) ** 2 + proportion_stderr(p_analytic, runs) ** 2
    )
    ok = abs(p_exact - p_analytic) <= 3.0 * sigma + 1e-12
    return _check_row(
        "full-algorithm-success", ok, 3.0 * sigma, estimate=p_exact, expected=p_analytic
    )


def backend_equivalence(config: ExperimentConfig) -> Report:
    """Full battery pitting the exact backend against the analytic sampler.

    Deterministic part: statevector marked-probabilities against the closed
    form, to 1e-9.  Stochastic parts: fixed-j measurement frequencies,
    chi-square comparison of (hit, iterations) search outcomes per t cell,
    class-conditional index uniformity, and whole-algorithm success rates.
    The battery passes when every check does.
    """
    deviation = closed_form_deviation(config.n, config.j_max)
    closed_form = _check_row(
        "closed-form", deviation <= 1e-9, 1e-9, j=config.j_max, estimate=deviation, expected=0.0
    )
    cells = [_equivalence_cell(config, t) for t in _equivalence_cells(config.n)]
    checks = [
        closed_form,
        *(row for fixed_rows, _ in cells for row in fixed_rows),
        *(row for _, search_rows in cells for row in search_rows),
        _full_algorithm_rates(config),
    ]
    summary = {"runs": config.runs, "closed_form_deviation": deviation}
    return _report(config, summary, [], checks)


# ---------------------------------------------------------------------------
# bounds: closed-form identities and sweeps


def bounds_report(config: ExperimentConfig) -> Report:
    """Evaluate every bound at n and sweep the two proof inequalities."""
    n = config.n
    cost_bound, cap = expected_cost_bound(n), timeout_cap(n)
    search_bounds = {
        t: search_iterations_bound(n, t) for t in sorted({1, 2, n // 16 or 1, n // 4 or 1, n})
    }
    identity_error = abs(cap - 2.0 * cost_bound)
    cost_sweep = sweep_search_cost_bound(config.sweep_max)
    harmonic_sweep = sweep_harmonic_bound(config.sweep_max)
    identity_ok = identity_error <= 1e-9
    checks = [_check_row("cap-identity", identity_ok, 1e-9, estimate=identity_error, expected=0.0)]
    checks += [
        _check_row(name, sweep.ok, 0.0, estimate=sweep.worst_ratio, expected=1.0)
        for name, sweep in (("search-cost-sweep", cost_sweep), ("harmonic-sweep", harmonic_sweep))
    ]
    summary = {
        "n": n,
        "expected_cost_bound": cost_bound,
        "timeout_cap": cap,
        "harmonic": harmonic_number(n),
        "search_iteration_bounds": {str(t): v for t, v in search_bounds.items()},
        "cap_identity_error": identity_error,
        "search_cost_sum": expected_search_cost_bound(n),
        "sweep_max": config.sweep_max,
        "search_cost_sweep_worst_ratio": cost_sweep.worst_ratio,
        "search_cost_sweep_worst_n": cost_sweep.worst_n,
        "harmonic_sweep_worst_ratio": harmonic_sweep.worst_ratio,
        "harmonic_sweep_worst_n": harmonic_sweep.worst_n,
    }
    rows = [
        {"quantity": quantity, "n": n, "value": summary[quantity]}
        for quantity in ("expected_cost_bound", "timeout_cap", "harmonic", "search_cost_sum")
    ] + [
        {"quantity": f"search_iterations_bound[t={t}]", "n": n, "value": v}
        for t, v in search_bounds.items()
    ]
    return _report(config, summary, rows, checks)


# ---------------------------------------------------------------------------
# single-run: raw records


def _single_run_record(table: Table, result: RunResult) -> dict:
    return {
        "returned_index": result.returned_index,
        "returned_is_minimum": result.returned_is_minimum,
        "first_hit_time": result.first_hit_time,
        "total_spent": result.total_spent,
        "loop_passes": result.loop_passes,
    }


def single_run_records(config: ExperimentConfig) -> Report:
    """Per-run records with no statistical verdict attached."""
    shared = {
        "n": config.n,
        "seed": config.seed,
        "backend": config.backend.value,
        "lambda": config.growth,
        "cap": config.cap,
    }
    records = [{**shared, **rec} for rec in _map_runs(config, ("run",), _single_run_record)]
    hits = sum(1 for rec in records if rec["returned_is_minimum"])
    summary = {"runs": config.runs, "successes": hits}
    return _report(config, summary, records, [])


# ---------------------------------------------------------------------------
# dispatch


_DRIVERS = {
    "lemma1": estimate_rank_selection,
    "success": estimate_success_rate,
    "expected-cost": estimate_expected_cost,
    "equivalence": backend_equivalence,
    "bounds": bounds_report,
    "single-run": single_run_records,
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the configured experiment and return its report."""
    return _DRIVERS[config.experiment](config)
