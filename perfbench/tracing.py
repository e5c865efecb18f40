"""Span tracing of the package's public functions, from outside the package.

Entering a `Tracer` swaps each traced function for a wrapper at the place
the caller looks it up (the importing module's global, or the class
attribute), and leaving it puts the originals back.  Nothing in the package
itself changes.  A target that no longer exists is skipped, so its layer
reports zero calls.

Every call of a wrapper records one span: name, parent span, start and end
(`perf_counter_ns`).  Spans live in flat integer arrays in memory and are
written out by `Tracer.save()`.  A span's self time is its duration minus
the durations of its direct children; spans nest strictly because one
thread makes all calls.  The wrapper's own bookkeeping falls outside the
child span and lands in the parent's self time; `trace.overhead` measures
it as a whole.
"""
from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path) in the order reported.  The module is
# the one the caller looks the name up in, not the one defining it.
TARGETS = (
    ("harness.run_experiment", "qminfind.harness", "run_experiment"),
    ("harness.render", "qminfind.harness", "Report.render"),
    ("seeding.derive_stream", "qminfind.harness", "derive_stream"),
    ("table.generate_table", "qminfind.harness", "generate_table"),
    ("minfind.find_minimum", "qminfind.harness", "find_minimum"),
    ("minfind.find_minimum_infinite", "qminfind.harness", "find_minimum_infinite"),
    ("qsearch.exponential_search", "qminfind.minfind", "exponential_search"),
    ("table.sample_marked", "qminfind.table", "ThresholdOracle.sample_marked"),
    ("table.sample_unmarked", "qminfind.table", "ThresholdOracle.sample_unmarked"),
    ("grover.grover_iterate", "qminfind.qsearch", "grover_iterate"),
    ("grover.measure", "qminfind.qsearch", "measure"),
    ("grover.success_probability", "qminfind.qsearch", "success_probability"),
)
# Bookkeeping done by the tracer between calls (reading outcomes); kept as
# its own span so that it stays out of every layer's self time.
OBSERVE = "trace.observe"
NAMES = tuple(t[0] for t in TARGETS) + (OBSERVE,)
# Suffixes of the per-layer metrics read off the clock; every other one is a
# count or a ratio of counts and repeats exactly for the same seed.
TIMED = ("_s", ".us_per_call", ".share", ".speedup_2w", ".overhead")

_NO_PARENT = -1


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for `path` in the module, or None when gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # A class attribute must be the class's own function, so that putting it
    # back leaves the class as it was.
    found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(found):
        return None
    return owner, attr, found


class Tracer:
    """Collects spans plus two outcome tallies: search hits and simulated steps."""

    def __init__(self):
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.current = _NO_PARENT
        self.hits = 0
        self.sim_steps = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name: str):
        name_id = NAMES.index(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        tracer = self

        def traced(*args, **kwargs):
            span = len(starts)
            parent = tracer.current
            names.append(name_id)
            parents.append(parent)
            ends.append(0)
            tracer.current = span
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter_ns()
                tracer.current = parent

        return traced

    def _observed(self, fn, name: str, observe):
        traced = self.wrap(fn, name)
        traced_observe = self.wrap(observe, OBSERVE)

        def call(*args, **kwargs):
            result = traced(*args, **kwargs)
            traced_observe(args, kwargs, result)
            return result

        return call

    def _count_hit(self, args, kwargs, outcome) -> None:
        oracle = args[0] if args else kwargs.get("oracle")
        is_marked = getattr(oracle, "is_marked", None)
        index = getattr(outcome, "index", None)
        if is_marked is not None and index is not None:
            self.hits += bool(is_marked(np.asarray([index]))[0])

    def _count_steps(self, args, kwargs, result) -> None:
        self.sim_steps += getattr(result, "total_spent", 0.0)

    def __enter__(self) -> "Tracer":
        observers = {
            "qsearch.exponential_search": self._count_hit,
            "minfind.find_minimum": self._count_steps,
            "minfind.find_minimum_infinite": self._count_steps,
        }
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            if name in observers:
                wrapper = self._observed(original, name, observers[name])
            else:
                wrapper = self.wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        cols = self.columns()
        duration = cols["end_ns"] - cols["start_ns"]
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = cols["parent"] != _NO_PARENT
        np.add.at(child, cols["parent"][has_parent], duration[has_parent])
        k = len(NAMES)
        calls = np.bincount(cols["name"], minlength=k)
        total = np.bincount(cols["name"], weights=duration, minlength=k) / 1e9
        own = np.bincount(cols["name"], weights=duration - child, minlength=k) / 1e9
        return {
            name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(NAMES)
        }

    def save(self, path: Path) -> None:
        """Write every span (columns plus the name table) as an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(NAMES), **self.columns())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    t = tracer.totals()

    def calls(name):
        return t[name][0]

    def own(name):
        return t[name][2]

    runs = calls("minfind.find_minimum") + calls("minfind.find_minimum_infinite")
    searches = calls("qsearch.exponential_search")
    samples = calls("table.sample_marked") + calls("table.sample_unmarked")
    rounds = calls("grover.measure") + samples
    iterations = calls("grover.grover_iterate")
    return {
        "seeding.derive_stream.calls": (calls("seeding.derive_stream"), "count"),
        "seeding.derive_stream.self_s": (own("seeding.derive_stream"), "s"),
        "table.generate_table.calls": (calls("table.generate_table"), "count"),
        "table.generate_table.self_s": (own("table.generate_table"), "s"),
        "table.generate_table.share": (
            _ratio(own("table.generate_table"), t["harness.run_experiment"][1]),
            "fraction",
        ),
        "table.oracle.samples": (samples, "count"),
        "table.oracle.self_s": (own("table.sample_marked") + own("table.sample_unmarked"), "s"),
        "grover.grover_iterate.calls": (iterations, "count"),
        "grover.grover_iterate.self_s": (own("grover.grover_iterate"), "s"),
        "grover.grover_iterate.us_per_call": (
            _ratio(own("grover.grover_iterate") * 1e6, iterations),
            "us",
        ),
        # Computed, not measured: one pass over N complex128 amplitudes.
        "grover.grover_iterate.computed_bytes": (iterations * n * 16, "B"),
        "grover.measure.calls": (calls("grover.measure"), "count"),
        "grover.measure.self_s": (own("grover.measure"), "s"),
        "grover.success_probability.calls": (calls("grover.success_probability"), "count"),
        "grover.success_probability.self_s": (own("grover.success_probability"), "s"),
        "qsearch.exponential_search.calls": (searches, "count"),
        "qsearch.exponential_search.self_s": (own("qsearch.exponential_search"), "s"),
        "qsearch.rounds": (rounds, "count"),
        "qsearch.rounds_per_search": (_ratio(rounds, searches), "rounds/search"),
        "qsearch.hit_ratio": (_ratio(tracer.hits, rounds), "fraction"),
        "minfind.calls": (runs, "count"),
        "minfind.self_s": (own("minfind.find_minimum") + own("minfind.find_minimum_infinite"), "s"),
        "minfind.passes_per_run": (_ratio(searches, runs), "passes/run"),
        "minfind.sim_steps_per_run": (_ratio(tracer.sim_steps, runs), "steps/run"),
        "harness.self_s": (own("harness.run_experiment"), "s"),
        "harness.render_s": (t["harness.render"][1], "s"),
    }
