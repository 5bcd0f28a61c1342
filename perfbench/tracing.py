"""Per-layer tracing from outside the package.

The tracer wraps public functions of `cocritical` by reassigning module
attributes: every module attribute that holds the original function object,
under any name, is pointed at the wrapper, so calls through `from .x import f`
bindings are seen too.  Nothing under `src/` changes.  Each wrapper records a
span: calls, inclusive seconds and self seconds (the span minus the spans of
wrapped functions it called).  Observers read exact counts off return values.

A function or report field that a later change removes is recorded as
missing.  Its metrics read 0 and the run names it on stderr; it never stops
the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from statistics import quantiles

# span name -> (module under cocritical, attribute)
SPANS = {
    "cli.main": ("cli", "main"),
    "search.exists": ("search", "exists_critical_coloring"),
    "search.max_red": ("search", "max_red_critical_coloring"),
    "search.brute": ("search", "brute_force_exists"),
    "coloring.make_coloring": ("coloring", "make_coloring"),
    "coloring.cross_graph": ("coloring", "cross_graph"),
    "verify.is_cocritical": ("verify", "is_cocritical"),
    "verify.structure": ("verify", "saturation_structure_checks"),
    "verify.min_search": ("verify", "min_cocritical_search"),
    "canon.generate": ("canon", "nonisomorphic_graphs"),
    "canon.canonical_key": ("canon", "canonical_key"),
    "construction.build": ("construction", "build"),
    "construction.blueprint": ("construction", "blueprint_coloring"),
    "percolation.run": ("percolation", "run"),
    "percolation.make_state": ("percolation", "make_state"),
    "stable.hajnal": ("stable", "hajnal_check"),
    "stable.intersection": ("stable", "stable_intersection_check"),
    "graphs.max_stable_sets": ("graphs", "max_stable_sets"),
    "graph6.parse": ("graph6", "parse_graph6"),
    "graph6.emit": ("graph6", "emit_graph6"),
}


def _observe_exists(c: Counter, outcome) -> None:
    c["search.exists.nodes"] += outcome.nodes
    c["search.exists.found"] += outcome.status == "found"


def _observe_cocritical(c: Counter, report) -> None:
    stats = report.per_edge_stats
    c["verify.nonedge_walks"] += len(stats)
    c["verify.nonedge_nodes"] += sum(nodes for _, nodes, _ in stats)


def _observe_min_search(c: Counter, result) -> None:
    c["verify.min_search.examined"] += result.examined


def _observe_generate(c: Counter, classes) -> None:
    c["canon.classes"] += len(classes)


def _observe_percolation(c: Counter, cert) -> None:
    c["percolation.iterations"] += cert.iterations
    c["percolation.certified"] += bool(cert.certified)


# span name -> (observer, the published metrics that rest on it)
OBSERVERS = {
    "search.exists": (
        _observe_exists,
        ("search.exists.nodes", "search.exists.nodes_per_s", "search.exists.found_ratio"),
    ),
    "verify.is_cocritical": (_observe_cocritical, ("verify.nonedge_walks", "verify.nonedge_nodes")),
    "verify.min_search": (_observe_min_search, ("verify.min_search.examined",)),
    "canon.generate": (_observe_generate, ("canon.classes",)),
    "percolation.run": (_observe_percolation, ("percolation.iterations", "percolation.certified_ratio")),
}

# Published per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "search.exists.calls": "count",
    "search.exists.s": "s",
    "search.exists.nodes": "count",
    "search.exists.nodes_per_s": "1/s",
    "search.exists.found_ratio": "ratio",
    "search.max_red.calls": "count",
    "search.max_red.s": "s",
    "search.max_red.self_s": "s",
    "search.brute.calls": "count",
    "search.brute.s": "s",
    "coloring.make_coloring.calls": "count",
    "coloring.make_coloring.s": "s",
    "coloring.cross_graph.s": "s",
    "verify.is_cocritical.calls": "count",
    "verify.is_cocritical.s": "s",
    "verify.is_cocritical.self_s": "s",
    "verify.nonedge_walks": "count",
    "verify.nonedge_nodes": "count",
    "verify.structure.s": "s",
    "verify.min_search.s": "s",
    "verify.min_search.examined": "count",
    "canon.generate.calls": "count",
    "canon.generate.s": "s",
    "canon.classes": "count",
    "canon.canonical_key.calls": "count",
    "construction.build.calls": "count",
    "construction.build.s": "s",
    "construction.blueprint.s": "s",
    "percolation.run.calls": "count",
    "percolation.run.s": "s",
    "percolation.run.p50_ms": "ms",
    "percolation.run.p95_ms": "ms",
    "percolation.make_state.calls": "count",
    "percolation.make_state.s": "s",
    "percolation.iterations": "count",
    "percolation.certified_ratio": "ratio",
    "stable.hajnal.s": "s",
    "stable.intersection.s": "s",
    "graphs.max_stable_sets.calls": "count",
    "graphs.max_stable_sets.s": "s",
    "graph6.parse.s": "s",
    "graph6.emit.calls": "count",
    "graph6.emit.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile by the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=100)[p - 1]


class Tracer:
    """Spans and counts for one phase of a run; reset between phases."""

    def __init__(self) -> None:
        self.missing_spans: set[str] = set()  # wrapped function not found
        self.missing_fields: set[str] = set()  # observer could not read the result
        self._patches: list[tuple[object, str, object]] = []
        self._children: list[float] = []  # child seconds of each open span
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cocritical"]
        for span, (module_name, attr) in SPANS.items():
            module = sys.modules.get(f"cocritical.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing_spans.add(span)
                continue
            wrapper = self._wrap(span, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        observer, _ = OBSERVERS.get(span, (None, ()))
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - inner
                self.durations[span].append(elapsed)
            if observer is not None:
                try:
                    observer(self.counts, result)
                except (AttributeError, TypeError, ValueError, KeyError):
                    self.missing_fields.add(span)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s, from this phase."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.total[span]
            out[f"{span}.self_s"] = self.self_time[span]
        c = self.counts
        for name in ("search.exists.nodes", "verify.nonedge_walks", "verify.nonedge_nodes",
                     "verify.min_search.examined", "canon.classes", "percolation.iterations"):
            out[name] = c[name]
        out["search.exists.nodes_per_s"] = _ratio(c["search.exists.nodes"], self.total["search.exists"])
        out["search.exists.found_ratio"] = _ratio(c["search.exists.found"], self.calls["search.exists"])
        out["percolation.certified_ratio"] = _ratio(c["percolation.certified"], self.calls["percolation.run"])
        runs_ms = [d * 1000.0 for d in self.durations["percolation.run"]]
        out["percolation.run.p50_ms"] = percentile(runs_ms, 50)
        out["percolation.run.p95_ms"] = percentile(runs_ms, 95)
        return out

    def missing_metrics(self) -> list[str]:
        """Published metrics that rest on a missing function or result field."""
        gone: set[str] = set()
        for span in self.missing_spans | self.missing_fields:
            gone.update(OBSERVERS.get(span, (None, ()))[1])
        for span in self.missing_spans:
            gone.update(name for name in PER_LAYER if name.startswith(span + "."))
        return [name for name in PER_LAYER if name in gone]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
