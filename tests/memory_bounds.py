"""Check that a run's memory keeps its bounds at full scale.

Each check runs ``qminfind success --seed 1`` in-process in a fresh
interpreter at a small and at a large number of runs, and exits 1 when the
large one's peak resident memory (``VmHWM``, read by the child from
``/proc/self/status``) grows over the small one's by more than its limit:

* the fold: ``--n 4`` at 10^6 runs against 10^4 runs, within 10 MB.  Every
  span of runs folds into a few exact integer sums, so nothing is kept per
  run.
* the exact backend's store of ladders (``grover._shelf``): ``--backend
  exact`` at n = 1024 (20000 runs), n = 4096 (2000 runs) and n = 16384
  (100 runs) against 1 run at the same n, within
  ``grover.KEPT_LADDER_BYTES`` plus one worst-case ladder (one evicted
  while its search still reads it) plus 10 MB.  The store fills most of
  its bound at n = 1024, the benchmark's n, and evicts at the larger two.
* the analytic backend's store of hit tables (``grover._hit_tables``):
  ``--n 1048576`` at 60000 runs against 1 run, within
  ``grover.KEPT_HIT_BYTES`` plus 10 MB.  Nearly every run searches under
  some t no earlier run reached, so the store fills its bound and evicts
  again and again; unbounded, it grew by about 52 MB over 198,748 tables.

Both kinds of table follow one life cycle (see ``grover``): a table enters
its store at its first growth (``grover.extend``, ``grover.extend_hits``),
which counts it first, and fetching one stores nothing.  Past the bound
the other tables leave largest t first, just until the count is back
within it, and a growing table leaves only when it alone is over the
bound.

Each line also prints what the two stores hold at the end of the large
run: how many grown ladders and hit tables, and the bytes they count.

It takes about 40 s on a 2-core x86-64 Linux host, so it runs beside the
tier-1 suite, not in it:

    PYTHONPATH=src python tests/memory_bounds.py
"""
import math
import subprocess
import sys

from qminfind import grover

CHILD = """
import os, sys
from qminfind import grover
from qminfind.cli import main

code = main(["success", *sys.argv[1:], "--seed", "1", "--out", os.devnull])
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
n = int(sys.argv[2])
shelf, tables = grover._shelf(n), grover._hit_tables(n)
print(code, status["VmHWM"].split()[0], len(shelf), shelf.held, len(tables), tables.held)
"""
SLACK_KB = 10 * 1024


def peak_kb(n: int, runs: int, *flags: str) -> tuple[int, str]:
    """The child's VmHWM in kB, and what its two stores hold."""
    argv = ["--n", str(n), "--runs", str(runs), *flags]
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True
    )
    code, peak, ladders, shelf_held, tables, tables_held = map(int, result.stdout.split())
    # One run is too few for the success verdict to pass, so a 1-run
    # baseline may exit 1; every other invocation must pass.
    if code != 0 and not (runs == 1 and code == 1):
        raise SystemExit(f"success {' '.join(argv)} exited {code}: {result.stderr}")
    held = f"{ladders} ladders, {shelf_held} B; {tables} hit tables, {tables_held} B"
    return peak, held


def main() -> int:
    # (label, n, flags, baseline runs, measured runs, limit in kB)
    checks = [("fold", 4, (), 10**4, 10**6, SLACK_KB)]
    # The most one ladder over n holds once searches have measured it: a
    # search's j stays below its saturated cap ceil(sqrt(n)), so it holds at
    # most that many CDFs of n floats, the shared uniform one counted too,
    # and its complex amplitude copy.
    checks += [
        (
            "ladder store", n, ("--backend", "exact"), 1, runs,
            (grover.KEPT_LADDER_BYTES + (math.ceil(math.sqrt(n)) * 8 + 16) * n) // 1024 + SLACK_KB,
        )
        for n, runs in [(1024, 20000), (4096, 2000), (16384, 100)]
    ]
    checks += [("analytic hit tables", 2**20, (), 1, 60000, grover.KEPT_HIT_BYTES // 1024 + SLACK_KB)]
    ok = True
    for label, n, flags, small, large, limit in checks:
        baseline, _ = peak_kb(n, small, *flags)
        peak, held = peak_kb(n, large, *flags)
        growth = peak - baseline
        ok &= growth <= limit
        print(
            f"{label} n={n}: VmHWM {baseline} kB at {small} runs, {peak} kB at {large} runs ({held}): "
            f"growth {growth} kB, limit {limit} kB: {'PASS' if growth <= limit else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
