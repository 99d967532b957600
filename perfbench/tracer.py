"""Spans around calls into dcmatch, recorded from outside the package.

``Tracer.install`` replaces every module-level binding of the traced
functions inside the ``dcmatch`` package with a wrapper, so each call is
timed as its caller sees it: ``components`` calling ``classify`` goes
through the wrapper bound in ``dcmatch.graph``, a check calling
``build_graph`` through the one bound in ``dcmatch.verification``.
``uninstall`` puts the originals back.

Spans stay in memory and are written as JSON lines once the round is
over.  Calls made in forked pool workers are passed straight through:
their spans would die with the worker, so a parallel build is one span.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array
from contextlib import contextmanager

# Span name -> (defining module, function name).
TRACED = {
    "matching.enumerate_matchings": ("dcmatch.matching", "enumerate_matchings"),
    "matching.parse_matching": ("dcmatch.matching", "parse_matching"),
    "compat.neighbors": ("dcmatch.compat", "neighbors"),
    "compat.neighbors_bruteforce": ("dcmatch.compat", "neighbors_bruteforce"),
    "dual_tree.find_blocks": ("dcmatch.dual_tree", "find_blocks"),
    "families.classify": ("dcmatch.families", "classify"),
    "families.generate_family": ("dcmatch.families", "generate_family"),
    "graph.build_graph": ("dcmatch.graph", "build_graph"),
    "graph.components": ("dcmatch.graph", "components"),
    "graph.isomorphism_classes": ("dcmatch.graph", "isomorphism_classes"),
    "graph.component_certificate": ("dcmatch.graph", "component_certificate"),
    "graph.verify_medium_even_structure": ("dcmatch.graph", "verify_medium_even_structure"),
    "graph.build_almost_perfect_graph": ("dcmatch.graph", "build_almost_perfect_graph"),
    "counting.edge_series": ("dcmatch.counting", "edge_series"),
}

# The thirteen acceptance checks, in run order; kept here so the metric
# names do not depend on importing the package.
CHECK_NAMES = (
    "vertex-counts", "odd-census", "even-census", "isomorphism-classes",
    "max-degree", "edge-counts", "bipartiteness", "medium-even-structure",
    "neighbor-oracle", "property-suite", "family-counts", "growth-probe",
    "almost-perfect-variant",
)

# Per-layer metric name -> unit, in report order.  Every ``_s`` metric
# taken from spans is self time (the span minus its traced children),
# except graph.build_s, which is the build's wall time; ``us_per_*``
# divide inclusive time by the work count.
LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.build_cpu_s": "s",
    "graph.build_parallel_eff": "frac",
    "graph.us_per_generated_neighbor": "us",
    "graph.rss_after_build_mb": "MB",
    "graph.vertices": "count",
    "graph.edges": "count",
    "graph.components_self_s": "s",
    "graph.iso_s": "s",
    "graph.certificate_calls": "count",
    "graph.certificate_s": "s",
    "graph.medium_even_s": "s",
    "graph.variant_s": "s",
    "compat.neighbors_s": "s",
    "compat.neighbors_calls": "count",
    "compat.neighbors_out": "count",
    "compat.us_per_neighbor": "us",
    "compat.bruteforce_s": "s",
    "families.classify_s": "s",
    "families.classify_calls": "count",
    "families.us_per_classify": "us",
    "families.generate_s": "s",
    "families.warm_s": "s",
    "dual_tree.find_blocks_s": "s",
    "dual_tree.find_blocks_calls": "count",
    "matching.enumerate_s": "s",
    "matching.parse_s": "s",
    "counting.edge_series_s": "s",
    **{f"verification.{name}_s": "s" for name in CHECK_NAMES},
    "trace.overhead_frac": "ratio",
}


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children, pool workers included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def rss_mb() -> float:
    """Resident set size now, falling back to the peak where /proc is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _neighbors_extra(result, args, kwargs, before):
    return {"out": len(result)}


def _build_before():
    return cpu_seconds()


def _build_extra(result, args, kwargs, before):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
    return {
        "cpu_s": cpu_seconds() - before,
        "rss_mb": rss_mb(),
        "workers": workers or os.cpu_count() or 1,
        "vertices": result.order,
        "edges": result.edge_count,
    }


# Span name -> (hook run before the call, extra fields recorded after it).
_EXTRAS = {
    "compat.neighbors": (None, _neighbors_extra),
    "graph.build_graph": (_build_before, _build_extra),
}


class Tracer:
    """Span recorder for one traced round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # One entry per span in parallel arrays.  Nothing the garbage
        # collector tracks is allocated per span, so tracing changes the
        # collector's schedule as little as possible.
        self._names: list[str] = []
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._extras: dict[int, dict] = {}
        self._open: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        """Every span as (name, start_ns, end_ns, parent index or -1, extra or None)."""
        return [
            (name, start, end, parent, self._extras.get(i))
            for i, (name, start, end, parent) in enumerate(
                zip(self._names, self._starts, self._ends, self._parents)
            )
        ]

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._open[-1] if self._open else -1)
        self._ends.append(0)
        self._open.append(index)
        self._starts.append(time.perf_counter_ns())
        return index

    def _exit(self, index: int) -> None:
        self._ends[index] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        before_hook, extra_hook = _EXTRAS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            before = before_hook() if before_hook else None
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if extra_hook:
                tracer._extras[index] = extra_hook(result, args, kwargs, before)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded dcmatch modules."""
        originals = [getattr(sys.modules[module], attr) for module, attr in TRACED.values()]
        # Keyed by id: the originals list keeps every function alive.
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in zip(TRACED, originals)}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dcmatch" and not mod_name.startswith("dcmatch."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "id": i,
                    "parent": None if parent < 0 else parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def span_totals(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and extra fields.

    Self time is each span's duration minus the durations of its direct
    children; in one thread children never overlap, so the subtraction
    is exact.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
        t["calls"] += 1
        t["total_s"] += (end - start) / 1e9
        t["self_s"] += (end - start - child_ns[i]) / 1e9
        if extra:
            t["extras"].append(extra)
    return totals


def layer_metrics(spans: list[tuple], warm_s: float) -> dict[str, float]:
    """The per-layer metrics (all but trace.overhead_frac) of one traced round."""
    totals = span_totals(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []}

    def get(name):
        return totals.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    builds = get("graph.build_graph")["extras"]
    build_s = get("graph.build_graph")["total_s"]
    build_walls = [
        (end - start) / 1e9
        for name, start, end, _, _ in spans
        if name == "graph.build_graph"
    ]
    build_cpu = sum(b["cpu_s"] for b in builds)
    edges = sum(b["edges"] for b in builds)
    neighbors = get("compat.neighbors")
    out = sum(x["out"] for x in neighbors["extras"])
    classify = get("families.classify")
    certificate = get("graph.component_certificate")
    blocks = get("dual_tree.find_blocks")
    metrics = {
        "graph.build_s": build_s,
        "graph.build_cpu_s": build_cpu,
        "graph.build_parallel_eff": ratio(
            build_cpu, sum(b["workers"] * w for b, w in zip(builds, build_walls))
        ),
        "graph.us_per_generated_neighbor": ratio(build_s * 1e6, 2 * edges),
        "graph.rss_after_build_mb": max((b["rss_mb"] for b in builds), default=0.0),
        "graph.vertices": sum(b["vertices"] for b in builds),
        "graph.edges": edges,
        "graph.components_self_s": get("graph.components")["self_s"],
        "graph.iso_s": get("graph.isomorphism_classes")["self_s"],
        "graph.certificate_calls": certificate["calls"],
        "graph.certificate_s": certificate["self_s"],
        "graph.medium_even_s": get("graph.verify_medium_even_structure")["self_s"],
        "graph.variant_s": get("graph.build_almost_perfect_graph")["self_s"],
        "compat.neighbors_s": neighbors["self_s"],
        "compat.neighbors_calls": neighbors["calls"],
        "compat.neighbors_out": out,
        "compat.us_per_neighbor": ratio(neighbors["total_s"] * 1e6, out),
        "compat.bruteforce_s": get("compat.neighbors_bruteforce")["self_s"],
        "families.classify_s": classify["self_s"],
        "families.classify_calls": classify["calls"],
        "families.us_per_classify": ratio(classify["total_s"] * 1e6, classify["calls"]),
        "families.generate_s": get("families.generate_family")["self_s"],
        "families.warm_s": warm_s,
        "dual_tree.find_blocks_s": blocks["self_s"],
        "dual_tree.find_blocks_calls": blocks["calls"],
        "matching.enumerate_s": get("matching.enumerate_matchings")["self_s"],
        "matching.parse_s": get("matching.parse_matching")["self_s"],
        "counting.edge_series_s": get("counting.edge_series")["self_s"],
    }
    for check in CHECK_NAMES:
        metrics[f"verification.{check}_s"] = get(f"verification.{check}")["self_s"]
    return metrics
