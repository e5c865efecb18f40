"""Command-line front end.

One subcommand per experiment::

    qminfind run          per-run records (no verdict)
    qminfind lemma1       rank-selection frequencies vs 1/r
    qminfind success      capped-run success fraction vs its floor
    qminfind cost         uncapped-run cost vs the closed-form bound
    qminfind equivalence  exact statevector backend vs analytic sampler
    qminfind bounds       closed-form identities and sweeps

Exit status: 0 when the experiment's verdict passes, 1 on a statistical
failure, 2 on bad usage or configuration.  The report goes to stdout (or
--out); wall-clock timing and the git revision go to stderr only, so
reports with the same seed are byte-identical across invocations, worker
counts and commits.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from .harness import EXPERIMENT_FIELDS, ExperimentConfig, build_identifier, run_experiment
from .qsearch import Backend, SearchParams

# subcommand -> experiment key
_SUBCOMMANDS = {
    "run": "single-run",
    "lemma1": "lemma1",
    "success": "success",
    "cost": "expected-cost",
    "equivalence": "equivalence",
    "bounds": "bounds",
}


def _parse_mode(text: str) -> tuple[str, int | None]:
    if text == "distinct":
        return "distinct", None
    if text.startswith("dup:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad duplicate count in {text!r}") from None
        return "dup", k
    raise argparse.ArgumentTypeError(f"mode must be 'distinct' or 'dup:<k>', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=64, help="table size (default 64)")
    common.add_argument("--runs", type=int, default=10_000, help="Monte Carlo runs (default 10000)")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument(
        "--backend",
        type=Backend,
        default=Backend.ANALYTIC_SAMPLER,
        help="exact | analytic (default analytic)",
    )
    common.add_argument(
        "--lambda",
        dest="growth",
        type=float,
        default=SearchParams().growth,
        metavar="LAMBDA",
        help="search growth factor in (1, 4/3) (default 8/7)",
    )
    common.add_argument(
        "--mode",
        type=_parse_mode,
        default=("distinct", None),
        help="table contents: distinct | dup:<k> (default distinct)",
    )
    common.add_argument("--boost", type=int, default=None, metavar="C", help="boost level c")
    common.add_argument(
        "--boost-strategy",
        choices=("repeat", "extend"),
        default="repeat",
        help="how to spend the boost budget (default repeat)",
    )
    common.add_argument(
        "--timeout", type=float, default=None, help="override the per-run step cap"
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", type=Path, default=None, help="write the report here")
    common.add_argument("--table", type=Path, default=None, help="fixed input table file")
    common.add_argument("--workers", type=int, default=1, help="process count (default 1)")
    common.add_argument("--max-rank", type=int, default=10, help="deepest asserted rank (lemma1)")
    common.add_argument("--j-max", type=int, default=12, help="deepest iteration count (equivalence)")
    common.add_argument(
        "--sweep-max", type=int, default=10**6, help="largest size in bound sweeps (bounds)"
    )

    parser = argparse.ArgumentParser(
        prog="qminfind",
        description="Simulate and statistically verify quantum threshold-descent minimum finding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "emit one record per run",
        "lemma1": "rank-selection frequencies vs 1/r",
        "success": "capped-run success fraction vs its floor",
        "cost": "uncapped-run mean cost vs the closed-form bound",
        "equivalence": "exact statevector backend vs analytic sampler",
        "bounds": "closed-form identities and inequality sweeps",
    }
    for name, experiment in _SUBCOMMANDS.items():
        sub.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mode, dup_k = args.mode
    return ExperimentConfig(
        experiment=_SUBCOMMANDS[args.command],
        n=args.n,
        runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        growth=args.growth,
        mode=mode,
        dup_k=dup_k,
        boost=args.boost,
        boost_strategy=args.boost_strategy,
        timeout=args.timeout,
        max_rank=args.max_rank,
        j_max=args.j_max,
        sweep_max=args.sweep_max,
        workers=args.workers,
        table_path=None if args.table is None else str(args.table),
    )


def _build_label() -> str:
    """The package version, with ``git describe`` when running from a checkout."""
    label = build_identifier()
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return label
    return f"{label} ({result.stdout.strip()})" if result.returncode == 0 else label


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"qminfind: error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = run_experiment(config)
    except (ValueError, OSError) as exc:
        print(f"qminfind: error: {exc}", file=sys.stderr)
        return 2
    duration = time.perf_counter() - started

    text = report.render(args.format)
    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            print(f"qminfind: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    verdict = "pass" if report.passed else "FAIL"
    runs = f" runs={config.runs}" if "runs" in EXPERIMENT_FIELDS[config.experiment] else ""
    print(
        f"qminfind {args.command}: n={config.n}{runs} "
        f"{verdict} in {duration:.3f}s [{_build_label()}]",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
