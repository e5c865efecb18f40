"""Monte Carlo experiment driver.

Each experiment turns a claim about the algorithm into a seeded batch of
runs plus a statistical verdict:

* ``lemma1``        rank-selection frequencies of the uncapped run vs 1/r;
* ``success``       capped-run (or boosted) success fraction vs its floor;
* ``expected-cost`` uncapped-run cost vs its closed-form bound;
* ``equivalence``   exact statevector backend vs the analytic sampler;
* ``bounds``        closed-form identities and inequality sweeps;
* ``single-run``    raw per-run records, no checks.

Every batch of algorithm runs goes through one map-then-fold:
``_fold_runs`` draws run i's table and run from the private stream
(seed, *key, i), runs it through ``_run`` (one ``find_minimum`` call, c of
them under ``--boost c``) under the step cap decided once per config
(``ExperimentConfig.cap``), and folds each span of runs into one small
accumulator: exact Python-int sums (counts, and the sums, squares and cross
products of the (passes, steps) accounts), lemma1's O(n) rank counts, or
``single-run``'s records in run order.  The parent adds the span
accumulators, and each mean and standard error is one correctly rounded
division of the exact sums, so a report cannot depend on how the run range
is split: it is byte-identical for any worker count, and the fold's state
does not grow with the number of runs.  A run reads only its table's ranks
in value order (the law of a run depends only on ranks) and returns a
position in that order; on a table file, ``single-run`` maps its
``returned_index`` through the file's ``order`` to an index into the file.
Reports deliberately contain no wall-clock data; timing goes to stderr in
the CLI layer.

``equivalence`` maps its whole-algorithm runs as one derived ``success``
config per backend.  Its other checks take one pass per (n, t) cell: the
cell's fixed-j draws measure ``grover.ladder(n, t)``, the ladder an exact
search reads, grown first through ``grover.extend``, and both backends'
searches go through ``qsearch.search``, the call every algorithm run
makes.  Neither it nor ``bounds`` takes a depth or size: both reach as
far as n needs.

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
from . import grover
from .grover import GroverLadder, marked_mass_deviation, success_probability
from .minfind import INIT_CHARGE_POLICY, RunResult, find_minimum, init_charge
from .qsearch import DEFAULT_GROWTH, Backend, _round_schedule, check_growth, search
from .seeding import derive_stream
from .table import Table, read_table, sorted_table

__all__ = [
    "EXPERIMENT_FIELDS",
    "ExperimentConfig",
    "Report",
    "build_identifier",
    "run_experiment",
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
    "equivalence": frozenset({"n", "runs", "seed", "growth"}),
    "bounds": frozenset({"n"}),
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
# Reading a table file of 2^24 values peaks at 422 MB (VmHWM, x86-64), and
# the table keeps two int64 arrays, 268 MB.  10^9 runs take about 14 h at
# 19k runs/s, and stay within the int64 span edges of ``_spans``.
MAX_N = 2**24
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
# The closed-form check runs to j = max(12, s - 1) for a search's saturated
# cap s (31 at n = EQUIVALENCE_MAX_N); the fixed-j rows to j = FIXED_J_MAX.
MIN_CLOSED_FORM_DEPTH = 12
FIXED_J_MAX = 8
# bounds sweeps over 2..max(MIN_SWEEP, n), about 290 MB at n = MAX_N.
MIN_SWEEP = 10**6
# The relative slack of the ledger check's comparison of each run's spent
# with its budget: both carry a few roundings, under 2^-46 relative even at
# 53 boosted repetitions, while an overcharge is far above it.
LEDGER_RTOL = 1e-12
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
        # A max_rank below 1 asserts no row, so the verdict could not fail.
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
        # A table file's values decide its kind, so a mode would be ignored.
        if self.table_path is not None and self.mode != "distinct":
            raise ValueError("table mode (--mode) cannot be combined with a table file (--table)")
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
        self.fixed_table  # read last, so every check above comes before any I/O
        # Only a distinct table's verdict reads max_rank, so no other may set it.
        if self.max_rank != ExperimentConfig.max_rank and self.mode_label != "distinct":
            raise ValueError(
                f"lemma1 reads max_rank (--max-rank) only on distinct tables, not {self.mode_label}"
            )

    @functools.cached_property
    def fixed_table(self) -> Table | None:
        """The table file every run uses, read once as the config is built and
        pickled with it to workers; None when runs draw their own."""
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
        """``distinct`` or ``dup:<k>``; a table file's k counts its distinct ranks."""
        table = self.fixed_table
        if table is None:
            return "distinct" if self.mode == "distinct" else f"dup:{self.dup_k}"
        # The ranks are in value order, so each distinct one starts a run.
        ranks = table.ranks
        k = 1 + np.count_nonzero(ranks[1:] != ranks[:-1])
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 99% confidence interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z2 = Z99 * Z99
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z99 * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    # The edges are exact (the interval closes at the observed boundary);
    # computing them through the general formula loses an ulp.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _mean_and_stderr(runs: int, total: int, squares: int, scale: int = 1) -> tuple[float, float]:
    """Mean and standard error of ``runs`` values x from the exact integer
    sums of ``scale * x`` and of its square, each one correctly rounded
    division (the standard error then takes a square root)."""
    mean = total / (scale * runs)
    if runs < 2:
        return mean, 0.0
    variance = (runs * squares - total * total) / (scale * scale * runs * runs * (runs - 1))
    return mean, math.sqrt(variance)


def proportion_stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P(X >= stat) of the chi-square law with ``dof`` degrees of freedom."""
    from scipy.special import chdtrc

    # The function ``scipy.stats.chi2.sf(stat, dof)`` evaluates.
    return float(chdtrc(dof, stat))


def two_sample_chisquare(counts_a: Counter, counts_b: Counter) -> tuple[float, float, int]:
    """Chi-square homogeneity test for two category-count samples.

    Categories are pooled in sorted-key order until each bin holds at least
    10 observations combined.  Returns (statistic, p, dof);
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
        if acc_a + acc_b >= 10:
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


def _run(config: ExperimentConfig, ranks: np.ndarray, rng) -> RunResult:
    """One run under ``config.cap``; under ``--boost c``, the best of c on one stream.

    At the paper's cap a run returns the minimum with probability at least
    1/2, so the first of c independent repetitions holding the least rank
    does with probability at least 1 - 1/2^c.  Its account sums theirs; it
    has no single history, so its ``history`` and ``first_hit_time`` are None.
    """
    if not config.boost:
        return find_minimum(ranks, config.backend, config.growth, config.cap, rng)
    args = ranks, config.backend, config.growth, config.cap, rng
    repetitions = [find_minimum(*args) for _ in range(config.boost)]
    best = min(repetitions, key=lambda result: ranks.item(result.returned_index))
    return RunResult(
        best.returned_index,
        best.returned_is_minimum,
        None,
        sum(result.total_spent for result in repetitions),
        sum(result.loop_passes for result in repetitions),
        sum(result.search_steps for result in repetitions),
        None,
    )


def _run_span(config: ExperimentConfig, key: tuple, span) -> Iterator[tuple[np.ndarray, RunResult]]:
    """Yield the ``(ranks, result)`` of each run in ``span``, in run order."""
    # The table file's ranks, the shared 1..n of a distinct table, which
    # reads nothing from the stream (fetched once), or a dup table's per run.
    table = config.fixed_table
    fixed = None if table is None else table.ranks
    if fixed is None and config.dup_k is None:
        fixed = sorted_table(config.n, None)
    for i in range(*span):
        rng = derive_stream(config.seed, *key, i)
        ranks = fixed if fixed is not None else sorted_table(config.n, rng, config.dup_k)
        yield ranks, _run(config, ranks, rng)


def _fold_span(config: ExperimentConfig, key: tuple, fold, span) -> tuple:
    return fold(config, _run_span(config, key, span))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _fold_runs(config: ExperimentConfig, key: tuple, fold) -> tuple:
    """Fold every run with ``fold(config, runs)``, span by span, and add up the span folds.

    Run i draws its table (unless a table file fixes it, or the runs share
    the distinct sorted table, which draws nothing) and then its run from
    the stream (seed, *key, i).  ``fold`` takes an iterator
    over a span's ``(ranks, result)`` pairs and returns a tuple whose
    entries add: Python ints (exact sums), numpy count arrays, or a list,
    which span order concatenates in run order.  So the total is the same
    for any split of the run range, and a worker sends back one small
    tuple per span.
    """
    workers = min(config.workers, config.runs)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return _fold_span(config, key, fold, (0, config.runs))
    # Imported here: a serial run then loads no multiprocessing machinery.
    from concurrent.futures import ProcessPoolExecutor

    fold_span = functools.partial(_fold_span, config, key, fold)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(_add, pool.map(fold_span, _spans(config.runs, workers * 4)))


# ---------------------------------------------------------------------------
# lemma1: rank-selection frequencies


def _lemma1_fold(config: ExperimentConfig, runs) -> tuple[np.ndarray, np.ndarray]:
    """Per rank: the (run, entry) pairs holding it, and the runs whose
    threshold ever held it.

    A drawn dup table has ranks of its own, so each run counts its table's.
    Every other run's table holds the same ranks (the table file's, or
    each of 1..n once), so they are counted once per span.
    """
    represented = np.zeros(config.n + 1, dtype=np.int64)
    chosen = [0] * (config.n + 1)
    drawn = config.dup_k is not None
    count = 0
    for ranks, result in runs:
        count += 1
        if drawn:
            represented += np.bincount(ranks, minlength=config.n + 1)
        rank_of = ranks.item
        for _, y in result.history:
            chosen[rank_of(y)] += 1
    if not drawn:  # a span holds at least one run
        represented += count * np.bincount(ranks, minlength=config.n + 1)
    return represented, np.array(chosen, dtype=np.int64)


def estimate_rank_selection(config: ExperimentConfig) -> Report:
    """How often the index of each rank ever becomes the threshold.

    For distinct tables the frequency must match 1/r; with duplicates it
    must stay at or below 1/r.  Counting includes the uniformly random
    starting threshold, and the minimum (rank 1) is always reached.
    """
    # Every run sees the same kind of table: the file's, or the mode's.
    distinct = config.mode_label == "distinct"
    represented, chosen = _fold_runs(config, ("lemma1",), _lemma1_fold)

    rows = []
    worst_dev = None
    for r in range(1, config.n + 1):
        pairs = int(represented[r])
        if pairs == 0:
            continue
        hits = int(chosen[r])
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


def _account_fold(config: ExperimentConfig, runs) -> tuple[int, ...]:
    """Exact sums over the runs' accounts: successes, runs over the ledger
    budget, and the sums of passes a, search steps b, a^2, ab and b^2.

    A run may spend its cap plus the one initialization that can start just
    below it, c times over under ``--boost c``, at the lg N the runs paid.
    An uncapped run stops at its first hit, so its first-hit time is its
    whole account, a * lg N + b.
    """
    limit = (config.boost or 1) * (config.cap + init_charge(config.n)) * (1.0 + LEDGER_RTOL)
    successes = overspent = a_sum = b_sum = aa_sum = ab_sum = bb_sum = 0
    for _, result in runs:
        a, b = result.loop_passes, result.search_steps
        successes += result.returned_is_minimum
        overspent += result.total_spent > limit
        a_sum += a
        b_sum += b
        aa_sum += a * a
        ab_sum += a * b
        bb_sum += b * b
    return successes, overspent, a_sum, b_sum, aa_sum, ab_sum, bb_sum


def _spent_mean_and_stderr(config: ExperimentConfig, sums: tuple[int, ...]) -> tuple[float, float]:
    """Mean and standard error of the runs' time spent, a * lg N + b, from
    ``_account_fold``'s sums, exact over the denominator q of lg N's float."""
    _, _, a, b, aa, ab, bb = sums
    p, q = init_charge(config.n).as_integer_ratio()
    return _mean_and_stderr(config.runs, p * a + q * b, p * p * aa + 2 * p * q * ab + q * q * bb, q)


def estimate_success_rate(config: ExperimentConfig) -> Report:
    """Success fraction with a Wilson 99% interval, against its floor.

    Unboosted capped runs must keep the lower confidence bound at or above
    1/2; with c-fold boosting the floor rises to 1 - 1/2^c (checked within
    three standard errors).  The ledger check counts the runs that spent
    more than ``_account_fold`` allows; correct code has none.
    """
    sums = _fold_runs(config, ("success",), _account_fold)
    successes, overspent, passes, *_ = sums

    fraction = successes / config.runs
    lo, hi = wilson_interval(successes, config.runs)
    floor, estimate, allowance = 0.5, lo, 0.0
    if config.boost:
        floor = 1.0 - 0.5**config.boost
        estimate, allowance = fraction, 3.0 * proportion_stderr(fraction, config.runs)
    floor_ok = estimate >= floor - allowance
    checks = [
        _check_row("success-floor", floor_ok, allowance, estimate=estimate, expected=floor),
        _check_row("ledger-budget", overspent == 0, 0, estimate=overspent, expected=0),
    ]
    summary = {
        "runs": config.runs,
        "successes": successes,
        "success_fraction": fraction,
        "wilson99_low": lo,
        "wilson99_high": hi,
        "floor": floor,
        "mean_spent": _spent_mean_and_stderr(config, sums)[0],
        "mean_loop_passes": passes / config.runs,
    }
    return _report(config, summary, [summary], checks)


# ---------------------------------------------------------------------------
# expected-cost: uncapped-run cost against the closed-form bound


def estimate_expected_cost(config: ExperimentConfig) -> Report:
    """Mean time until the threshold first holds the minimum.

    Total time must sit below (45/4) sqrt(n) + (7/10) lg^2 n, and the
    search-iteration share alone below its exact-sum bound, both with a
    three-standard-error allowance.
    """
    sums = _fold_runs(config, ("cost",), _account_fold)
    _, _, a_sum, b_sum, _, _, bb_sum = sums
    mean_cost, se_cost = _spent_mean_and_stderr(config, sums)
    mean_search, se_search = _mean_and_stderr(config.runs, b_sum, bb_sum)
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
        "mean_loop_passes": a_sum / config.runs,
    }
    return _report(config, summary, [summary], checks)


# ---------------------------------------------------------------------------
# equivalence: exact statevector vs analytic sampler


def closed_form_deviation(n: int, depth: int) -> float:
    """Worst |statevector marked probability - closed form| over t and j <= depth.

    The statevector side is the exact backend's ladder, read through
    ``grover.marked_mass_deviation``: with indices 0..t-1 marked, the
    marked probability is the CDF at index t - 1.  Each
    t gets a fresh ``GroverLadder``: this check reaches past a search's
    depth at small n, and a shelved ladder would keep those states.
    """
    worst = 0.0
    for t in range(n + 1):
        ladder = GroverLadder(n, t)
        for j in range(depth + 1):
            worst = max(worst, marked_mass_deviation(ladder.cdf(j), n, t, j))
    return worst


def _equivalence_cells(n: int) -> list[int]:
    return sorted({0, 1, 2, n // 4, n // 2, n} & set(range(0, n + 1)))


def _equivalence_cell(config: ExperimentConfig, t: int) -> tuple[list[dict], list[dict]]:
    """The fixed-j rows and the search rows of the cell with indices 0..t-1 marked.

    The fixed-j draws measure ``grover.ladder(n, t)``, the ladder every
    exact search at (n, t) reads, so each iteration is computed once.
    Fixed-j rows compare measurement frequencies at pinned iteration counts
    with the closed form; search rows check that hit and miss indices are
    uniform within their class and that both backends' (hit, iterations)
    laws agree.  With 0..t-1 marked, a search's position is its index.
    """
    from scipy.stats import binomtest

    n = config.n
    ladder = grover.ladder(n, t)
    # Counted in the store first: at small n these pass a search's depth.
    grover.extend(ladder, FIXED_J_MAX)
    samples = min(config.runs, 20_000)
    measure = ladder.measure
    fixed_rows = []
    for j in range(FIXED_J_MAX + 1):
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
        for i in range(config.runs):
            rng = derive_stream(config.seed, "eqv-cell", backend.value, t, i)
            used, _, index = search(n, t, budget, config.growth, rng, backend)
            law[(index < t, used)] += 1
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
        successes = _fold_runs(success, ("eqv-full", backend.value), _account_fold)[0]
        rates[backend] = successes / runs
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
    form, to 1e-9, up to the deepest state a search at n measures.
    Stochastic parts: fixed-j measurement frequencies, chi-square
    comparison of (hit, iterations) search outcomes per t cell,
    class-conditional index uniformity, and whole-algorithm success rates.
    The battery passes when every check does.
    """
    _, (saturated, _) = _round_schedule(config.n, config.growth)
    depth = max(MIN_CLOSED_FORM_DEPTH, saturated - 1)
    deviation = closed_form_deviation(config.n, depth)
    closed_form = _check_row(
        "closed-form", deviation <= 1e-9, 1e-9, j=depth, estimate=deviation, expected=0.0
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
    """Evaluate every bound at n and sweep the two proof inequalities up to n or more."""
    n = config.n
    sweep_max = max(MIN_SWEEP, n)
    cost_bound, cap = expected_cost_bound(n), timeout_cap(n)
    search_bounds = {
        t: search_iterations_bound(n, t) for t in sorted({1, 2, n // 16 or 1, n // 4 or 1, n})
    }
    identity_error = abs(cap - 2.0 * cost_bound)
    cost_sweep = sweep_search_cost_bound(sweep_max)
    harmonic_sweep = sweep_harmonic_bound(sweep_max)
    # Before H_n, whose chunks would otherwise stay in the heap under its arrays.
    search_cost_sum = expected_search_cost_bound(n)
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
        "search_cost_sum": search_cost_sum,
        "sweep_max": sweep_max,
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


def _single_run_fold(config: ExperimentConfig, runs) -> tuple[list[dict]]:
    """The span's records, in run order; on a table file, ``returned_index`` indexes the file."""
    index = int if config.table_path is None else config.fixed_table.order.item
    shared = {
        "n": config.n,
        "seed": config.seed,
        "backend": config.backend.value,
        "lambda": config.growth,
        "cap": config.cap,
    }
    records = [
        {
            **shared,
            "returned_index": index(result.returned_index),
            "returned_is_minimum": result.returned_is_minimum,
            "first_hit_time": result.first_hit_time,
            "total_spent": result.total_spent,
            "loop_passes": result.loop_passes,
        }
        for _, result in runs
    ]
    return (records,)


def single_run_records(config: ExperimentConfig) -> Report:
    """Per-run records with no statistical verdict attached."""
    (records,) = _fold_runs(config, ("run",), _single_run_fold)
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
