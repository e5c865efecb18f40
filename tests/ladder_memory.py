"""Check that the exact backend's shelf of ladders keeps its memory bound.

Runs exact ``success --seed 1`` in-process at n = 4096 (2000 runs) and at
n = 16384 (100 runs), each in a fresh interpreter beside a 1-run baseline
at the same n, and exits 1 when a run's peak resident memory (``VmHWM``)
grows over its baseline by more than ``grover.KEPT_LADDER_BYTES`` plus one
worst-case ladder (the fresh one a pass above the shelf builds) plus
10 MB.  It takes about 15 s on a 2-core x86-64 Linux host, so it runs
beside the tier-1 suite, not in it:

    PYTHONPATH=src python tests/ladder_memory.py
"""
import subprocess
import sys

from qminfind import grover

CHILD = """
import os, sys
from qminfind.cli import main

n, runs = sys.argv[1:]
code = main(["success", "--n", n, "--runs", runs, "--backend", "exact", "--seed", "1", "--out", os.devnull])
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(code, status["VmHWM"].split()[0])
"""
CASES = [(4096, 2000), (16384, 100)]
SLACK_KB = 10 * 1024


def peak_kb(n: int, runs: int) -> int:
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(runs)], capture_output=True, text=True, check=True
    )
    code, peak = map(int, result.stdout.split())
    # One run is too few for the success verdict to pass, so the baseline
    # may exit 1; the measured runs must pass.
    if code != 0 and not (runs == 1 and code == 1):
        raise SystemExit(f"success --n {n} --runs {runs} exited {code}: {result.stderr}")
    return peak


def main() -> int:
    ok = True
    for n, runs in CASES:
        baseline, peak = peak_kb(n, 1), peak_kb(n, runs)
        limit = (grover.KEPT_LADDER_BYTES + grover._worst_ladder_bytes(n)) // 1024 + SLACK_KB
        growth = peak - baseline
        ok &= growth <= limit
        print(
            f"n={n}: VmHWM {baseline} kB at 1 run, {peak} kB at {runs} runs: "
            f"growth {growth} kB, limit {limit} kB: {'PASS' if growth <= limit else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
