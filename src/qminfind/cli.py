"""Command-line front end.

One subcommand per experiment::

    qminfind run          per-run records (no verdict)
    qminfind lemma1       rank-selection frequencies vs 1/r
    qminfind success      capped-run success fraction vs its floor
    qminfind cost         uncapped-run cost vs the closed-form bound
    qminfind equivalence  exact statevector backend vs analytic sampler
    qminfind bounds       closed-form identities and sweeps

Every flag but --format and --out sets the ``ExperimentConfig`` field of
its name (--lambda sets ``growth``, --table ``table_path``) and passes its
text through; the config states each default, grammar and valid range.

Exit status: 0 when the experiment's verdict passes, 1 on a statistical
failure, 2 on bad usage or configuration.  The report goes to stdout (or
--out); wall-clock timing and the git revision go to stderr only, so
reports with the same seed are byte-identical across invocations, worker
counts and commits.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .harness import EXPERIMENT_FIELDS, ExperimentConfig, build_identifier, run_experiment
from .qsearch import Backend

# subcommand -> (experiment key, help line)
_SUBCOMMANDS = {
    "run": ("single-run", "emit one record per run"),
    "lemma1": ("lemma1", "rank-selection frequencies vs 1/r"),
    "success": ("success", "capped-run success fraction vs its floor"),
    "cost": ("expected-cost", "uncapped-run mean cost vs the closed-form bound"),
    "equivalence": ("equivalence", "exact statevector backend vs analytic sampler"),
    "bounds": ("bounds", "closed-form identities and inequality sweeps"),
}
# The config fields the flags set: every field but the experiment itself.
_CONFIG_FIELDS = [f for f in fields(ExperimentConfig) if f.name != "experiment"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="table size (default %(default)s)")
    common.add_argument("--runs", type=int, help="Monte Carlo runs (default %(default)s)")
    common.add_argument("--seed", type=int, help="master seed (default %(default)s)")
    common.add_argument("--backend", type=Backend, help="exact | analytic (default analytic)")
    common.add_argument(
        "--lambda", dest="growth", type=float, metavar="LAMBDA",
        help="search growth factor in (1, 4/3) (default 8/7)",
    )
    common.add_argument("--mode", help="table contents: distinct | dup:<k> (default %(default)s)")
    common.add_argument("--boost", type=int, metavar="C", help="boost level c")
    common.add_argument("--timeout", type=float, help="override the per-run step cap")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", type=Path, help="write the report here")
    common.add_argument("--table", dest="table_path", metavar="TABLE", help="fixed input table file")
    common.add_argument("--workers", type=int, help="process count (default %(default)s)")
    common.add_argument(
        "--max-rank", type=int, help="deepest asserted rank, lemma1 (default %(default)s)"
    )
    common.add_argument(
        "--j-max", type=int, help="deepest iteration count, equivalence (default %(default)s)"
    )
    common.add_argument(
        "--sweep-max", type=int, help="largest size in bound sweeps (default %(default)s)"
    )
    common.set_defaults(**{f.name: f.default for f in _CONFIG_FIELDS})

    parser = argparse.ArgumentParser(
        prog="qminfind",
        description="Simulate and statistically verify quantum threshold-descent minimum finding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description) in _SUBCOMMANDS.items():
        sub.add_parser(name, parents=[common], help=description)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        _SUBCOMMANDS[args.command][0], **{f.name: getattr(args, f.name) for f in _CONFIG_FIELDS}
    )


def _build_label() -> str:
    """The package version, with ``git describe`` when running from a checkout."""
    import subprocess

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
