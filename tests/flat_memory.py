"""Check that a run's memory does not grow with the number of runs.

Runs ``success --n 4 --seed 1`` in-process at 10^4 and at 10^6 runs, each
in a fresh interpreter, and exits 1 when the second peaks more than 10 MB
above the first (peak RSS from ``getrusage``).  Every span of runs folds
into a few exact integer sums, so nothing is kept per run.  It takes about
20 s on a 2-core x86-64 host, so it runs beside the tier-1 suite, not in it:

    PYTHONPATH=src python tests/flat_memory.py
"""
import subprocess
import sys

CHILD = """
import os, resource, sys
from qminfind.cli import main

code = main(["success", "--n", "4", "--runs", sys.argv[1], "--seed", "1", "--out", os.devnull])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
SMALL, LARGE = 10**4, 10**6
# ru_maxrss is in kilobytes on Linux.
MAX_GROWTH_KB = 10 * 1024


def peak_kb(runs: int) -> int:
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(runs)], capture_output=True, text=True, check=True
    )
    code, peak = map(int, result.stdout.split())
    if code != 0:
        raise SystemExit(f"success --runs {runs} exited {code}: {result.stderr}")
    return peak


def main() -> int:
    small, large = peak_kb(SMALL), peak_kb(LARGE)
    growth = large - small
    ok = growth <= MAX_GROWTH_KB
    print(
        f"peak RSS {small} kB at {SMALL} runs, {large} kB at {LARGE} runs: "
        f"growth {growth} kB, limit {MAX_GROWTH_KB} kB: {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
