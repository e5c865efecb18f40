import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import __version__
from qminfind.cli import _SUBCOMMANDS, _config_from_args, build_parser, main
from qminfind.harness import _FLAGS, EXPERIMENT_FIELDS, ExperimentConfig, run_experiment


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_subcommand_passes(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "64", "--sweep-max", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "bounds"
    assert payload["passed"] is True
    # timing lives on stderr only
    assert "qminfind bounds" in err
    assert "qminfind bounds:" not in out


def test_cost_of_one_run_reports_zero_standard_errors(capsys):
    code, out, _ = run_cli(capsys, "cost", "--n", "16", "--runs", "1", "--seed", "3")
    assert code in (0, 1)
    summary = json.loads(out)["summary"]
    assert summary["stderr_first_hit_time"] == 0.0
    assert summary["stderr_search_steps"] == 0.0


def test_run_subcommand_csv_to_file(tmp_path, capsys):
    target = tmp_path / "records.csv"
    code, out, err = run_cli(
        capsys, "run", "--n", "8", "--runs", "4", "--seed", "3", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""  # report went to the file
    lines = target.read_text().strip().split("\n")
    assert lines[0].startswith("n,seed,backend,lambda,cap,")
    assert len(lines) == 5


def test_success_subcommand_small(capsys):
    code, out, err = run_cli(capsys, "success", "--n", "16", "--runs", "200", "--seed", "1")
    assert code == 0
    assert json.loads(out)["summary"]["runs"] == 200
    # A passing line names no check.
    assert re.fullmatch(r"qminfind success: n=16 runs=200 pass in \d+\.\d{3}s \[.+\]\n", err)


def test_statistical_failure_exits_one(capsys):
    # A one-step cap cannot examine anything at n=64, so success collapses
    # to the 1/64 baseline and the floor check fails.
    code, out, _ = run_cli(
        capsys, "success", "--n", "64", "--runs", "300", "--seed", "2", "--timeout", "1"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["summary"]["success_fraction"] < 0.2


@pytest.mark.parametrize(
    ("argv", "failed"),
    [
        # A 20-step cap holds the Wilson low near 0.27, under the floor of 1/2.
        (["success", "--n", "64", "--runs", "2000", "--seed", "10", "--timeout", "20"],
         "success-floor"),
        # A known false alarm of correct code (README, "Known false alarms").
        (["equivalence", "--n", "16", "--runs", "200", "--seed", "1"], "outcome-distribution t=8"),
        # A dup run too small to assert any rank tests nothing.
        (["lemma1", "--n", "8", "--runs", "50", "--seed", "1", "--mode", "dup:8"],
         "rank-frequency"),
    ],
    ids=["success-floor", "equivalence-false-alarm", "lemma1-dup-asserts-no-rank"],
)
def test_failing_verdict_names_each_failed_check(capsys, argv, failed):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert f" FAIL ({failed}) in " in err


def test_unknown_backend_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["success", "--backend", "quantum"])
    assert exc.value.code == 2


def test_bad_mode_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "success", "--mode", "triple")
    assert code == 2
    assert out == ""
    assert "--mode" in err


def test_bad_dup_count_is_config_error(capsys):
    code, _, err = run_cli(capsys, "success", "--n", "8", "--mode", "dup:0")
    assert code == 2
    assert "error" in err


def test_oversized_equivalence_is_config_error(capsys):
    code, _, err = run_cli(capsys, "equivalence", "--n", "2048")
    assert code == 2
    assert "equivalence" in err


def test_missing_table_file_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "success", "--n", "8", "--table", str(tmp_path / "absent.txt")
    )
    assert code == 2


def test_table_size_mismatch_is_config_error(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("1\n2\n3\n")
    code, _, err = run_cli(capsys, "success", "--n", "8", "--runs", "10", "--table", str(path))
    assert code == 2
    assert "pass --n 3" in err


def test_table_file_round_trip(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("5\n0\n9\n2\n")
    code, out, _ = run_cli(
        capsys, "run", "--n", "4", "--runs", "3", "--seed", "4", "--table", str(path)
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(row["returned_is_minimum"] == (row["returned_index"] == 1) for row in rows)


def test_lambda_flag_reaches_the_report(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "8", "--runs", "2", "--seed", "5", "--lambda", "1.25"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["lambda"] == 1.25
    assert payload["rows"][0]["lambda"] == 1.25


def test_out_of_range_lambda_is_config_error(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "8", "--lambda", "1.5")
    assert code == 2
    assert "growth" in err


def _readme_commands() -> list[str]:
    """The ``qminfind ...`` lines of the README's "Command line" code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.startswith("qminfind ")]


def test_readme_commands_parse_into_valid_configs():
    # Parsed and configured, not run: a renamed or removed flag, or a value
    # the config rejects, fails here instead of leaving the README wrong.
    commands = _readme_commands()
    assert len(commands) >= len(_SUBCOMMANDS)
    assert {shlex.split(command)[1] for command in commands} == set(_SUBCOMMANDS)
    parser = build_parser()
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                args = parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"usage error in README command {command!r}: {err.getvalue()}")
        try:
            _config_from_args(args)
        except ValueError as exc:
            pytest.fail(f"config error in README command {command!r}: {exc}")


def test_readme_flag_bullets_match_the_config():
    # Each "Command line" bullet names its subcommands and then, in
    # backticks, the flags they read; --n, --format and --out are in the
    # preamble above the bullets.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    # The bullets run from the first "- " line to the next blank line.
    bullets = section[section.index("\n- ") + 3 :].split("\n\n", 1)[0].split("\n- ")
    documented = {}
    for bullet in bullets:
        label, text = bullet.split(":", 1)
        flags = set(re.findall(r"`--([a-z][a-z-]*)", text)) - {"n", "format", "out"}
        for command in re.findall(r"`([a-z0-9]+)`", label):
            documented[command] = flags
    expected = {
        command: {_FLAGS.get(f, f.replace("_", "-")) for f in EXPERIMENT_FIELDS[experiment] - {"n"}}
        for command, (experiment, _) in _SUBCOMMANDS.items()
    }
    assert documented == expected


def test_readme_check_bullets_match_the_emitted_checks():
    # Each "Verdicts" bullet names its subcommand and then, in backticks,
    # the names of the checks its reports carry.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verdicts", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- ") + 3 :].split("\n\n", 1)[0].split("\n- ")
    documented = {}
    for bullet in bullets:
        label, text = bullet.split(":", 1)
        documented[label.strip("`")] = set(re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", text))
    emitted = {}
    for command, (experiment, _) in _SUBCOMMANDS.items():
        sizes = {"sweep_max": 100} if experiment == "bounds" else {"runs": 20}
        report = run_experiment(ExperimentConfig(experiment, n=4, **sizes))
        emitted[command] = {check["check"] for check in report.checks}
    assert documented == emitted


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_cli_takes_its_defaults_from_the_config(capsys, command):
    args = build_parser().parse_args([command])
    assert _config_from_args(args) == ExperimentConfig(_SUBCOMMANDS[command][0])
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # Joined, so that a help line wrapped at any terminal width still reads whole.
    text = " ".join(capsys.readouterr().out.split())
    for default in ("(default 64)", "(default 10000)", "(default distinct)"):
        assert default in text


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_stdout_reports_are_invocation_stable(capsys):
    args = ["lemma1", "--n", "8", "--runs", "120", "--seed", "6"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def _cli_subprocess(*args: str) -> subprocess.CompletedProcess:
    # A separate process with a timeout, so that a hang fails the test
    # instead of stalling the suite.
    return subprocess.run(
        [sys.executable, "-m", "qminfind", *args], capture_output=True, text=True, timeout=60
    )


_SCIPY_FREE_START = """
import contextlib, io, json, sys
from qminfind.cli import main

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)

codes = [quiet(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
equivalence = quiet(["equivalence", "--n", "4", "--runs", "50"])
print(json.dumps({"codes": codes, "loaded": loaded, "equivalence": equivalence,
                  "scipy_after_equivalence": "scipy" in sys.modules}))
"""


def test_only_equivalence_loads_scipy():
    # Importing the package and running every other experiment loads no
    # scipy module; equivalence, which needs its statistics, still runs.
    argvs = [
        ["run", "--n", "16", "--runs", "20", "--seed", "1"],
        ["lemma1", "--n", "64", "--runs", "50", "--seed", "1"],
        ["success", "--n", "64", "--runs", "50", "--seed", "1"],
        ["cost", "--n", "64", "--runs", "50", "--seed", "1"],
        ["bounds", "--n", "64", "--sweep-max", "1000"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_START, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["codes"] == [0] * len(argvs)
    assert outcome["loaded"] == []
    assert outcome["equivalence"] == 0
    assert outcome["scipy_after_equivalence"]


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_timeout_is_config_error(value):
    result = _cli_subprocess("success", "--n", "4", "--runs", "1", f"--timeout={value}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "timeout must be a finite number" in result.stderr


def test_table_value_outside_int64_is_config_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1\n99999999999999999999\n")
    result = _cli_subprocess("success", "--n", "2", "--runs", "1", "--table", str(path))
    assert result.returncode == 2
    assert f"{path}:2: value outside int64 range" in result.stderr
    assert "Traceback" not in result.stderr


def test_lemma1_takes_its_comparison_from_a_duplicate_table_file(tmp_path, capsys):
    # 48 values from -4..4: ties everywhere, under the default --mode distinct.
    path = tmp_path / "dup.txt"
    path.write_text("".join(f"{(i * 31 + 5) % 9 - 4}\n" for i in range(48)))
    code, out, _ = run_cli(
        capsys, "lemma1", "--n", "48", "--runs", "300", "--seed", "9", "--table", str(path)
    )
    assert code == 0
    assert json.loads(out)["summary"]["comparison"] == "upper-bound"


def test_boost_with_timeout_is_config_error(capsys):
    code, out, err = run_cli(
        capsys, "run", "--n", "16", "--runs", "2", "--seed", "1", "--boost", "2",
        "--timeout", "3", "--format", "csv",
    )
    assert code == 2
    assert out == ""
    assert "cannot be combined with a timeout" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(("command", "runs"), [("run", "2"), ("success", "20")])
def test_negative_zero_timeout_renders_as_zero(capsys, command, runs, fmt):
    reports = [
        run_cli(capsys, command, "--n", "8", "--runs", runs, "--timeout", timeout, "--format", fmt)[:2]
        for timeout in ("0", "-0")
    ]
    assert reports[1] == reports[0]
    assert "-0.0" not in reports[1][1]


@pytest.mark.parametrize("command", ["lemma1", "cost"])
@pytest.mark.parametrize("flag", [["--timeout", "1"], ["--boost", "3"]])
def test_uncapped_experiments_reject_timeout_and_boost(capsys, command, flag):
    code, out, err = run_cli(capsys, command, "--n", "16", "--runs", "50", "--seed", "2", *flag)
    assert code == 2
    assert out == ""
    assert f"does not read {flag[0][2:]} ({flag[0]})" in err


# A distinct file gets the equality verdict, which asserts every rank of
# n=8; 40 000 runs make its 0.01 floor at least 4 SE at each of them (at 300
# runs the 3 SE test rejected 12 of 400 seeds of correct code).
@pytest.mark.parametrize(
    ("values", "mode", "label", "runs"),
    [
        ([(i * 31 + 5) % 9 - 4 for i in range(48)], "distinct", "dup:9", 300),
        ([3, 3, 1, 3, 1, 1, 3, 1], "distinct", "dup:2", 300),
        ([5, -2, 9, 0, 7, 4, 1, 8], "dup:2", "distinct", 40_000),
    ],
    ids=["dup-48", "dup-8", "distinct-under-dup-mode"],
)
def test_report_mode_comes_from_the_table_file(tmp_path, capsys, values, mode, label, runs):
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    code, out, _ = run_cli(
        capsys, "lemma1", "--n", str(len(values)), "--runs", str(runs), "--seed", "9",
        "--mode", mode, "--table", str(path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["mode"] == label
    expected = "equality" if label == "distinct" else "upper-bound"
    assert report["summary"]["comparison"] == expected


@pytest.mark.parametrize("command", ["bounds", "equivalence"])
@pytest.mark.parametrize(
    "flag",
    [["--table", "/nonexistent"], ["--timeout", "5"], ["--boost", "2"], ["--mode", "dup:2"]],
    ids=["table", "timeout", "boost", "dup-mode"],
)
def test_experiments_drawing_their_own_inputs_reject_run_flags(capsys, command, flag):
    code, out, err = run_cli(capsys, command, "--n", "8", *flag)
    assert code == 2
    assert out == ""
    assert f"{command} does not read" in err
    assert f"({flag[0]})" in err


@pytest.mark.parametrize(
    ("argv", "limit"),
    [
        (["success", "--n", "100000000000", "--runs", "1"], "1..16777216"),
        (["run", "--n", str(2**24 + 1), "--runs", "1"], "1..16777216"),
        (["bounds", "--n", "64", "--sweep-max", "1000000000000"], "2..10000000"),
        (["bounds", "--n", "64", "--sweep-max", "1"], "2..10000000"),
        (["equivalence", "--n", "1024", "--runs", "1", "--j-max", "100000000"], "0..64"),
        (["equivalence", "--n", "16", "--runs", "1", "--j-max", "65"], "0..64"),
        (["equivalence", "--n", "16", "--runs", "1", "--j-max", "-1"], "0..64"),
        (["lemma1", "--n", "16", "--runs", "1", "--max-rank", "0"], ">= 1"),
        (["lemma1", "--n", "16", "--runs", "1", "--max-rank", "-3"], ">= 1"),
        (["success", "--n", "4", "--runs", str(10**20)], "1..1000000000"),
        (["cost", "--n", "4", "--runs", str(10**9 + 1)], "1..1000000000"),
        (["success", "--n", "4", "--runs", "1", "--boost", "54"], "1..53"),
        (["success", "--n", "4", "--runs", "1", "--boost", str(10**400)], "1..53"),
        (
            ["success", "--n", "64", "--runs", "20", "--lambda", "1.00000001"],
            "smallest accepted at this n is 1.000020795",
        ),
        (["lemma1", "--n", str(2**17 + 1), "--runs", "1"], "n <= 131072"),
    ],
    ids=[
        "n-huge", "n-just-over", "sweep-huge", "sweep-too-small", "j-max-huge",
        "j-max-just-over", "j-max-negative", "max-rank-zero", "max-rank-negative",
        "runs-huge", "runs-just-over", "boost-just-over", "boost-huge-repeat",
        "lambda-near-one", "lemma1-n-just-over",
    ],
)
def test_sizes_beyond_their_limits_are_config_errors(capsys, argv, limit):
    # Rejected while the config is built, before anything is allocated or
    # iterated.  A negative --j-max or a --max-rank below 1 asserts no row,
    # so its verdict could not fail; a huge --j-max would run for hours, and
    # so would a huge --runs or --boost (a boost above 53 cannot raise the
    # floor 1 - 2^-c above float64's 1.0 anyway).  A --lambda just above 1
    # would build a search schedule of millions of rounds, and lemma1's
    # report, one row per rank, would outgrow memory long before MAX_N.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert limit in err


# The flags each subcommand reads besides --n (and --format and --out,
# which shape the output of every subcommand).
RUN_FLAGS = {"runs", "seed", "backend", "lambda", "mode", "table", "workers"}
READS = {
    "lemma1": RUN_FLAGS | {"max-rank"},
    "success": RUN_FLAGS | {"boost", "timeout"},
    "run": RUN_FLAGS | {"boost", "timeout"},
    "cost": RUN_FLAGS,
    "equivalence": {"runs", "seed", "lambda", "j-max"},
    "bounds": {"sweep-max"},
}
# A value away from the default for every flag; "table" names an 8-value file.
FLAG_VALUES = {
    "runs": "7",
    "seed": "5",
    "backend": "exact",
    "lambda": "1.3",
    "mode": "dup:2",
    "boost": "2",
    "timeout": "30",
    "table": None,
    "workers": "2",
    "max-rank": "3",
    "j-max": "3",
    "sweep-max": "100",
}


def _flag_argv(tmp_path, command: str, flag: str) -> list[str]:
    """Tiny-size arguments for ``command`` plus ``--flag value``."""
    argv = [command, "--n", "8"]
    if "runs" in READS[command]:
        argv += ["--runs", "20"]
    if "sweep-max" in READS[command]:
        argv += ["--sweep-max", "100"]
    value = FLAG_VALUES[flag]
    if flag == "table":
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{v}\n" for v in (5, -2, 9, 0, 7, 4, 1, 8)))
        value = str(path)
    return argv + [f"--{flag}", value]


@pytest.mark.parametrize(
    ("command", "flag"),
    [(command, flag) for command in READS for flag in FLAG_VALUES if flag in READS[command]],
)
def test_every_flag_a_subcommand_reads_is_accepted(tmp_path, capsys, command, flag):
    code, out, err = run_cli(capsys, *_flag_argv(tmp_path, command, flag))
    assert code in (0, 1), err
    assert "error" not in err
    assert json.loads(out)["experiment"] == _SUBCOMMANDS[command][0]


@pytest.mark.parametrize(
    ("command", "flag"),
    [(command, flag) for command in READS for flag in FLAG_VALUES if flag not in READS[command]],
)
def test_every_flag_a_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag):
    code, out, err = run_cli(capsys, *_flag_argv(tmp_path, command, flag))
    assert code == 2
    assert out == ""
    assert f"(--{flag})" in err


@pytest.mark.parametrize("strategy", ["repeat", "extend"])
def test_boost_strategy_flag_is_a_usage_error(strategy):
    # Boosting is c repetitions alone, so there is no strategy to choose.
    result = _cli_subprocess("success", "--n", "64", "--runs", "20", "--boost-strategy", strategy)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unrecognized arguments: --boost-strategy" in result.stderr
    assert "Traceback" not in result.stderr


def test_exact_search_with_nothing_marked_and_a_huge_timeout_returns():
    # n = 4 reaches the minimum fast; the search above it, with nothing
    # marked, must settle the 10^12-step budget at once.
    result = _cli_subprocess("run", "--n", "4", "--runs", "1", "--backend", "exact", "--timeout", "1e12")
    assert result.returncode == 0
    assert json.loads(result.stdout)["rows"][0]["total_spent"] == 1e12


@pytest.mark.parametrize(
    ("argv", "counts"),
    [
        (["bounds", "--n", "64", "--sweep-max", "1000"], "n=64 pass"),
        (["success", "--n", "16", "--runs", "20"], "n=16 runs=20 pass"),
    ],
    ids=["bounds", "success"],
)
def test_timing_line_shows_a_run_count_only_where_runs_are_read(capsys, argv, counts):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.startswith(f"qminfind {argv[0]}: {counts} in ")


def test_timing_line_carries_the_git_revision(capsys, monkeypatch):
    def describe(argv, **kwargs):
        assert argv == ["git", "describe", "--always", "--dirty"]
        return subprocess.CompletedProcess(argv, 0, stdout="abc1234-dirty\n", stderr="")

    monkeypatch.setattr(subprocess, "run", describe)
    code, out, err = run_cli(capsys, "bounds", "--n", "8", "--sweep-max", "100")
    assert code == 0
    assert err.rstrip().endswith(f"[qminfind {__version__} (abc1234-dirty)]")
    assert json.loads(out)["build"] == f"qminfind {__version__}"

    def no_git(argv, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", no_git)
    code, _, err = run_cli(capsys, "bounds", "--n", "8", "--sweep-max", "100")
    assert code == 0
    assert err.rstrip().endswith(f"[qminfind {__version__}]")


# Small and invalid values for every flag.  --n is always given (n <= 64),
# and so is --runs (runs <= 50) whenever the subcommand reads it; --workers
# never asks for more than one process, so no case allocates much or
# starts a pool.  "@dir" stands for
# a directory holding the table files below.
FUZZ_VALUES = {
    "seed": st.integers(-3, 2**70).map(str),
    "backend": st.sampled_from(["exact", "analytic", "quantum"]),
    "lambda": st.sampled_from(["1", "1.00000001", "1.05", "1.3", "1.34", "nan", "inf", "x"]),
    "mode": st.sampled_from(["distinct", "dup:1", "dup:3", "dup:0", "dup:", "dup:99", "triple"]),
    "boost": st.sampled_from(["-1", "0", "1", "2", "x"]),
    "timeout": st.sampled_from(["-1", "0", "0.5", "7", "1e12", "inf", "nan", "x"]),
    "format": st.sampled_from(["json", "csv", "yaml"]),
    "out": st.just("@dir/missing/report.json"),
    "table": st.sampled_from(
        ["@dir/distinct.txt", "@dir/dup.txt", "@dir/empty.txt", "@dir/words.txt", "@dir/missing.txt"]
    ),
    "workers": st.sampled_from(["-1", "0", "1"]),
    "max-rank": st.integers(-1, 12).map(str),
    "j-max": st.integers(-1, 65).map(str),
    "sweep-max": st.sampled_from(["-1", "1", "2", "100", "5000", "x"]),
}
FUZZ_TABLES = {
    "distinct.txt": "5\n-2\n9\n0\n7\n4\n1\n8\n",
    "dup.txt": "3\n3\n1\n3\n1\n1\n3\n1\n",
    "empty.txt": "",
    "words.txt": "1\ntwo\n",
}


def _rarely(draw, values: list) -> list:
    """One of ``values`` in about one case of ten, else nothing."""
    return [draw(st.sampled_from(values))] if draw(st.integers(0, 9)) == 7 else []


@st.composite
def fuzz_argv(draw) -> list[str]:
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    argv = _rarely(draw, ["bogus", "--n"]) or [command]
    argv += ["--n", str(draw(st.integers(-2, 64)))]
    # Without --runs a subcommand reading it would make 10 000 runs.
    if "runs" in READS[command] or _rarely(draw, [True]):
        argv += ["--runs", str(draw(st.integers(-1, 50)))]
    # Mostly flags the subcommand reads, now and then one it does not.
    reads = sorted(flag for flag in FUZZ_VALUES if flag in READS[command] | {"format", "out"})
    flags = draw(st.lists(st.sampled_from(reads), unique=True, max_size=4))
    flags += _rarely(draw, sorted(set(FUZZ_VALUES) - set(flags)))
    for flag in flags:
        argv += [f"--{flag}", draw(FUZZ_VALUES[flag])]
    return argv + _rarely(draw, ["--bogus", "stray", "--seed"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_TABLES.items():
        (path / name).write_text(text)
    return path


@given(argv=fuzz_argv())
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(fuzz_dir, argv):
    argv = [arg.replace("@dir", str(fuzz_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert "error" in err.getvalue(), argv
    else:
        assert out.getvalue() != "", argv


@pytest.mark.parametrize(
    ("argv", "code", "message"),
    [
        (["success", "--n", "33554432", "--runs", "1"], 2, "n must lie in 1..16777216"),
        (["success", "--n", "64", "--runs", "1", "--workers", "0"], 2, "workers must be >= 1"),
        (
            ["success", "--n", "4", "--runs", str(10**20), "--workers", "2"],
            2, "runs must lie in 1..1000000000",
        ),
        # One run can never lift the success verdict's lower bound to 1/2.
        (["success", "--n", "4", "--runs", "1", "--backend", "exact", "--timeout", "1e12"], 1, "FAIL"),
        (
            ["success", "--n", "64", "--runs", "20", "--lambda", "1.00000001"],
            2, "growth factor 1.00000001 (--lambda)",
        ),
    ],
    ids=["n-huge", "workers-zero", "runs-huge-two-workers", "exact-huge-timeout", "lambda-near-one"],
)
def test_fixed_argv_exits_promptly_in_a_subprocess(argv, code, message):
    result = _cli_subprocess(*argv)
    assert result.returncode == code
    assert message in result.stderr
    assert "Traceback" not in result.stderr
