"""Reproduction checks for the published structure of the compatibility graph.

Thirteen named checks cover vertex and edge counts, the component census
for both parities, isomorphism classes, degree extremes, bipartiteness,
medium-component shape, the neighbor oracle pair, assorted structural
properties, family counts, the growth-rate probe, and the variant graph
on an odd number of points.  ``run_checks`` executes any subset and is
shared by the CLI ``verify`` command and the acceptance test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .compat import neighbors, neighbors_bruteforce
from .counting import (
    catalan,
    count_DB,
    count_DBD,
    count_EDB_components,
    count_I,
    count_L_even,
    count_L_odd,
    count_pairs,
    edge_series,
    growth_estimate,
    medium_even_order,
    medium_odd_order,
    riordan,
)
from .dual_tree import find_antiblocks, find_blocks
from .errors import ResourceLimitError
from .families import (
    LABEL_PATH_MEMBER,
    classify_with_witness,
    generate_family,
    rings,
)
from .graph import (
    build_almost_perfect_graph,
    build_graph,
    components,
    degree_stats,
    is_bipartite,
    isomorphism_classes,
    verify_medium_even_structure,
)
from .matching import Matching, enumerate_matchings, insert, parse_matching

# Census rows pinned independently of the counting formulas; the checks
# require the measured censuses to equal both.
ISOLATED_BY_K = {1: 1, 3: 3, 5: 15, 7: 91, 9: 612, 11: 4389}
ODD_MEDIUMS_BY_K = {3: 1, 5: 5, 7: 14, 9: 36, 11: 88}
PAIRS_BY_K = {2: 1, 4: 4, 6: 12, 8: 32, 10: 80, 12: 192}
EVEN_MEDIUMS_BY_K = {4: 1, 6: 6, 8: 16, 10: 40, 12: 96}
ISO_CLASSES_BY_K = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4,
                    9: 3, 10: 3, 11: 3, 12: 3}

GROWTH_WINDOW = (Fraction(497, 100), Fraction(557, 100))
GROWTH_TERMS = 30
GROWTH_TIME_BUDGET = 1.0

# --quick skips graph builds above this size.
QUICK_BUILD_CAP = 6

# Two edges on four consecutive points, outer pair first: splicing this
# into any gap of a host matching must leave the host's degree unchanged.
_BLOCK = parse_matching("1-4,2-3")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail", or "skip"
    detail: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status != "fail"


class GraphCache:
    """Builds each graph and its component reports at most once."""

    def __init__(self, workers: int | None = None):
        self.workers = workers
        self._graphs: dict[int, object] = {}
        self._reports: dict[int, list] = {}

    def graph(self, k: int):
        if k not in self._graphs:
            self._graphs[k] = build_graph(k, workers=self.workers)
        return self._graphs[k]

    def reports(self, k: int) -> list:
        if k not in self._reports:
            self._reports[k] = components(self.graph(k))
        return self._reports[k]


class _Runner:
    def __init__(self, cache: GraphCache, lo: int, hi: int, quick: bool):
        self.cache = cache
        self.lo = lo
        self.hi = hi
        self.quick = quick

    def span(self, lo: int, hi: int, parity: int | None = None,
             builds: bool = False) -> list[int]:
        """The run range clipped to [lo, hi], optionally to one parity.

        With ``builds`` set, quick mode drops sizes whose graph build
        would exceed the quick cap.
        """
        top = min(hi, self.hi)
        if builds and self.quick:
            top = min(top, QUICK_BUILD_CAP)
        ks = range(max(lo, self.lo), top + 1)
        if parity is None:
            return list(ks)
        return [k for k in ks if k % 2 == parity]

    # -- 1: vertex counts ---------------------------------------------------

    def check_vertex_counts(self) -> tuple[str, str]:
        ks = self.span(1, 12, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = [
            f"k={k}: order {self.cache.graph(k).order} != {catalan(k)}"
            for k in ks
            if self.cache.graph(k).order != catalan(k)
        ]
        if bad:
            return "fail", "; ".join(bad)
        return "pass", f"orders equal the Catalan numbers for k={_span_str(ks)}"

    # -- 2: odd census ------------------------------------------------------

    def check_odd_census(self) -> tuple[str, str]:
        ks = self.span(1, 11, parity=1, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        for k in ks:
            half = (k + 1) // 2
            reports = self.cache.reports(k)
            isolated = sum(1 for r in reports if r.order == 1)
            if not isolated == count_I(half) == ISOLATED_BY_K[k]:
                bad.append(f"k={k}: {isolated} isolated vertices")
            mediums = [r for r in reports if r.category == "medium"]
            if k == 1:
                if mediums:
                    bad.append("k=1: unexpected medium component")
                continue
            expected = ODD_MEDIUMS_BY_K[k]
            formula = count_DBD(half) if half >= 3 else expected
            if not len(mediums) == formula == expected:
                bad.append(f"k={k}: {len(mediums)} medium stars")
            if any(r.order != medium_odd_order(half) for r in mediums):
                bad.append(f"k={k}: star order != {medium_odd_order(half)}")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            f"isolated and star counts match the tables for k={_span_str(ks)}"
        )

    # -- 3: even census -----------------------------------------------------

    def check_even_census(self) -> tuple[str, str]:
        ks = self.span(2, 12, parity=0, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        for k in ks:
            half = k // 2
            reports = self.cache.reports(k)
            pairs = sum(
                1 for r in reports if r.category == "small" and r.order == 2
            )
            if not pairs == count_pairs(half) == PAIRS_BY_K[k]:
                bad.append(f"k={k}: {pairs} pair components")
            mediums = [r for r in reports if r.category == "medium"]
            if k == 2:
                if mediums:
                    bad.append("k=2: unexpected medium component")
                continue
            expected = EVEN_MEDIUMS_BY_K[k]
            formula = count_EDB_components(half) if half >= 3 else expected
            if not len(mediums) == formula == expected:
                bad.append(f"k={k}: {len(mediums)} medium components")
            if any(r.order != medium_even_order(half) for r in mediums):
                bad.append(f"k={k}: medium order != {medium_even_order(half)}")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            f"pair and medium counts match the tables for k={_span_str(ks)}"
        )

    # -- 4: isomorphism classes ---------------------------------------------

    def check_isomorphism_classes(self) -> tuple[str, str]:
        ks = self.span(1, 12, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        got = {}
        for k in ks:
            count, _ = isomorphism_classes(
                self.cache.graph(k), self.cache.reports(k)
            )
            got[k] = count
        bad = [
            f"k={k}: {got[k]} classes != {ISO_CLASSES_BY_K[k]}"
            for k in ks
            if got[k] != ISO_CLASSES_BY_K[k]
        ]
        if bad:
            return "fail", "; ".join(bad)
        row = ",".join(str(got[k]) for k in ks)
        return "pass", f"component shape counts for k={_span_str(ks)}: {row}"

    # -- 5: max degree ------------------------------------------------------

    def check_max_degree(self) -> tuple[str, str]:
        ks = self.span(2, 12, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        for k in ks:
            g = self.cache.graph(k)
            best, argmax = degree_stats(g)
            ring_ids = {g.index_of(r) for r in rings(k)}
            if best != riordan(k):
                bad.append(f"k={k}: max degree {best} != {riordan(k)}")
            if set(argmax) != ring_ids:
                bad.append(f"k={k}: max degree not exactly at the rings")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            "max degree equals the Riordan number, attained exactly at "
            f"the rings, for k={_span_str(ks)}"
        )

    # -- 6: edge counts -----------------------------------------------------

    def check_edge_counts(self) -> tuple[str, str]:
        ks = self.span(2, 10, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        series = edge_series(max(ks))
        bad = [
            f"k={k}: {self.cache.graph(k).edge_count} edges != {series[k]}"
            for k in ks
            if self.cache.graph(k).edge_count != series[k]
        ]
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            f"edge counts match the series coefficients for k={_span_str(ks)}"
        )

    # -- 7: bipartiteness ---------------------------------------------------

    def check_bipartiteness(self) -> tuple[str, str]:
        ks = self.span(2, 12, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        for k in ks:
            g = self.cache.graph(k)
            ring_id = g.index_of(rings(k)[0])
            home = next(
                r for r in self.cache.reports(k) if ring_id in set(r.members)
            )
            flag, witness = is_bipartite(g, home)
            if flag != home.bipartite:
                bad.append(f"k={k}: witness disagrees with the census flag")
            if k <= 7:
                if not flag:
                    bad.append(f"k={k}: ring component not two-colorable")
                    continue
                for v in home.members:
                    for w in g.adjacent(v):
                        if witness[v] == witness[w]:
                            bad.append(f"k={k}: improper coloring at {v}")
                            break
            else:
                if flag:
                    bad.append(f"k={k}: ring component unexpectedly bipartite")
                    continue
                if len(witness) % 2 == 0:
                    bad.append(f"k={k}: witness cycle has even length")
                    continue
                closed = zip(witness, witness[1:] + witness[:1])
                if any(b not in g.adjacent(a) for a, b in closed):
                    bad.append(f"k={k}: witness cycle not in the graph")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            "ring component two-colorable through k=7, odd cycle exhibited "
            f"beyond, for k={_span_str(ks)}"
        )

    # -- 8: medium-even structure -------------------------------------------

    def check_medium_even_structure(self) -> tuple[str, str]:
        ks = self.span(4, 12, parity=0, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        for k in ks:
            ok, notes = verify_medium_even_structure(
                self.cache.graph(k), self.cache.reports(k)
            )
            if not ok:
                bad.extend(f"k={k}: {n}" for n in notes if "matches" not in n)
            problem = self._spine_parameter_rule(k)
            if problem:
                bad.append(f"k={k}: {problem}")
        if bad:
            return "fail", "; ".join(bad[:6])
        return "pass", (
            "every medium component matches the chord-decorated path, and "
            "spine adjacency follows the parameter-sum rule, for "
            f"k={_span_str(ks)}"
        )

    def _spine_parameter_rule(self, k: int) -> str | None:
        """Spine vertices of one medium component carry parameters (j, chi, z)
        with j in 1..(k/2 - 1) on two opposite sides; two of them are adjacent
        exactly when they sit on opposite sides and their j values sum to at
        least k/2, with sums at least k/2 + 2 forming the non-path chords."""
        half = k // 2
        g = self.cache.graph(k)
        for report in self.cache.reports(k):
            if report.category != "medium":
                continue
            spine = {}
            for v in report.members:
                label, params = classify_with_witness(g.vertices[v])
                if label == LABEL_PATH_MEMBER:
                    j, chi, z = params
                    spine[v] = (j, (chi, z))
            sides: dict[tuple, set[int]] = {}
            for j, side in spine.values():
                sides.setdefault(side, set()).add(j)
            if len(sides) != 2 or any(
                js != set(range(1, half)) for js in sides.values()
            ):
                return f"component {report.id}: malformed spine parameters"
            chords = 0
            items = sorted(spine.items())
            for a, (j1, side1) in items:
                for b, (j2, side2) in items:
                    if a >= b:
                        continue
                    linked = b in g.adjacent(a)
                    expected = side1 != side2 and j1 + j2 >= half
                    if linked != expected:
                        return (
                            f"component {report.id}: parameter rule broken "
                            f"between {g.vertices[a]} and {g.vertices[b]}"
                        )
                    if linked and j1 + j2 >= half + 2:
                        chords += 1
            path_edges = k - 3
            spine_edges = sum(
                1
                for a in spine
                for b in g.adjacent(a)
                if b in spine and a < b
            )
            if spine_edges != path_edges + chords:
                return f"component {report.id}: chord count off"
        return None

    # -- 9: neighbor oracle -------------------------------------------------

    def check_neighbor_oracle(self) -> tuple[str, str]:
        ks = self.span(1, 8)
        if not ks:
            return "skip", "no applicable sizes in range"
        checked = 0
        scans = 0
        for k in ks:
            for m in enumerate_matchings(k):
                checked += 1
                scans += catalan(k)
                if neighbors(m) != neighbors_bruteforce(m):
                    return "fail", f"k={k}: routes disagree at {m}"
        return "pass", (
            f"flip route equals the brute-force route for all {checked} "
            f"matchings with k={_span_str(ks)} ({scans} pair tests)"
        )

    # -- 10: property suite -------------------------------------------------

    def check_property_suite(self) -> tuple[str, str]:
        parts = (
            self._separated_pairs_property(),
            self._insertion_degree_property(),
            self._forced_antiblock_property(),
            self._degree_bound_properties(),
            self._isolated_antiblock_free_property(),
            self._extended_degree_property(),
        )
        bad = [p for p in parts if not p.startswith("ok")]
        if bad:
            return "fail", "; ".join(bad)
        covered = [p[3:] for p in parts if len(p) > 3]
        if not covered:
            return "skip", "no applicable sizes in range"
        return "pass", "; ".join(covered)

    def _separated_pairs_property(self) -> str:
        ks = self.span(4, 8)
        if not ks:
            return "ok"
        for k in ks:
            for m in enumerate_matchings(k):
                found = find_blocks(m) + find_antiblocks(m)
                supports = [
                    set(p.edges[0]) | set(p.edges[1]) for p in found
                ]
                if not any(
                    supports[i].isdisjoint(supports[j])
                    for i in range(len(supports))
                    for j in range(i + 1, len(supports))
                ):
                    return f"k={k}: {m} lacks two disjoint separated pairs"
        return f"ok two disjoint separated pairs exist (k={_span_str(ks)})"

    def _insertion_degree_property(self) -> str:
        ks = self.span(1, 6)
        if not ks:
            return "ok"
        for k in ks:
            for m in enumerate_matchings(k):
                degree = len(neighbors(m))
                for gap in range(2 * k + 1):
                    grown = insert(m, _BLOCK, gap)
                    if len(neighbors(grown)) != degree:
                        return f"k={k}: degree changed inserting at {gap} in {m}"
        return f"ok splicing an outer/inner pair preserves degree (hosts k={_span_str(ks)})"

    def _forced_antiblock_property(self) -> str:
        ks = self.span(2, 7)
        if not ks:
            return "ok"
        for k in ks:
            n = 2 * k
            for m in enumerate_matchings(k):
                blocks = find_blocks(m)
                if not blocks:
                    continue
                nbs = neighbors(m)
                for p in blocks:
                    i = p.start
                    forced = {
                        tuple(sorted(((i - 1) % n + 1, i % n + 1))),
                        tuple(sorted(((i + 1) % n + 1, (i + 2) % n + 1))),
                    }
                    for other in nbs:
                        if not forced <= set(other.edges):
                            return (
                                f"k={k}: neighbor {other} of {m} misses the "
                                f"forced boundary pair at {i}"
                            )
        return f"ok every neighbor re-pairs each outer/inner pair in place (k={_span_str(ks)})"

    def _degree_bound_properties(self) -> str:
        ks = self.span(2, 8)
        if not ks:
            return "ok"
        for k in ks:
            for m in enumerate_matchings(k):
                degree = len(neighbors(m))
                block_count = len(find_blocks(m))
                if k % 2 == 0 and degree < 1:
                    return f"k={k}: even-size {m} is isolated"
                if block_count == 1 and degree < 1:
                    return f"k={k}: one-block {m} is isolated"
                if block_count == 0:
                    # The two size-3 rings have degree exactly 1; the
                    # two-neighbor bound holds from size 4 on.
                    if k == 3 and degree != 1:
                        return f"k=3: blockless {m} has degree {degree}"
                    if k >= 4 and degree < 2:
                        return f"k={k}: blockless {m} has degree {degree}"
        return f"ok degree lower bounds hold (k={_span_str(ks)})"

    def _isolated_antiblock_free_property(self) -> str:
        ks = self.span(1, 9, parity=1)
        if not ks:
            return "ok"
        for k in ks:
            for m in generate_family("I", k):
                if find_antiblocks(m):
                    return f"k={k}: isolated matching {m} has an antiblock"
        return f"ok isolated matchings have no antiblocks (k={_span_str(ks)})"

    def _extended_degree_property(self) -> str:
        ks = [k for k in (8, 10, 12) if self.lo <= k <= self.hi]
        if not ks:
            return "ok"
        for k in ks:
            members = sorted(generate_family("EDB", k), key=lambda m: m.edges)
            step = max(1, len(members) // 25)
            for m in members[::step]:
                _, params = classify_with_witness(m)
                j = params[0]
                if len(neighbors(m)) != j + 2:
                    return f"k={k}: {m} does not have {j + 2} neighbors"
        return f"ok extended members have parameter+2 neighbors (sampled k={_span_str(ks)})"

    # -- 11: family counts --------------------------------------------------

    def check_family_counts(self) -> tuple[str, str]:
        jobs = []
        for k in self.span(1, 11, parity=1):
            jobs.append(("I", k, count_I((k + 1) // 2)))
        for k in self.span(2, 12):
            half = (k + 1) // 2 if k % 2 else k // 2
            expected = count_L_odd(half) if k % 2 else count_L_even(half)
            jobs.append(("L", k, expected))
        for k in self.span(2, 12, parity=0):
            jobs.append(("DB", k, count_DB(k // 2)))
        for k in self.span(5, 11, parity=1):
            jobs.append(("DBD", k, count_DBD((k + 1) // 2)))
        if not jobs:
            return "skip", "no applicable sizes in range"
        bad = []
        for variant, k, expected in jobs:
            got = len(generate_family(variant, k))
            if got != expected:
                bad.append(f"{variant} at k={k}: {got} != {expected}")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            f"{len(jobs)} generated family sizes equal the closed forms "
            "(isolated, leaf, paired, and star-center families)"
        )

    # -- 12: growth probe ---------------------------------------------------

    def check_growth_probe(self) -> tuple[str, str]:
        start = time.perf_counter()
        edge_series(GROWTH_TERMS)
        ratio = growth_estimate(GROWTH_TERMS)
        elapsed = time.perf_counter() - start
        lo, hi = GROWTH_WINDOW
        if not lo <= ratio <= hi:
            return "fail", (
                f"d_{GROWTH_TERMS}/d_{GROWTH_TERMS - 1} = {float(ratio):.4f} "
                f"outside [{float(lo)}, {float(hi)}]"
            )
        if elapsed >= GROWTH_TIME_BUDGET:
            return "fail", f"series expansion took {elapsed:.2f}s"
        return "pass", (
            f"d_{GROWTH_TERMS}/d_{GROWTH_TERMS - 1} = {float(ratio):.4f} "
            f"within [{float(lo)}, {float(hi)}]"
        )

    # -- 13: almost-perfect variant -----------------------------------------

    def check_almost_perfect(self) -> tuple[str, str]:
        ks = self.span(1, 6, builds=True)
        if not ks:
            return "skip", "no applicable sizes in range"
        bad = []
        orders = []
        for k in ks:
            ap = build_almost_perfect_graph(k)
            orders.append(f"k={k}: {ap.order}")
            if not ap.connected:
                bad.append(f"k={k}: {ap.component_count} components")
            if not ap.rings_form_cycle:
                bad.append(f"k={k}: rings do not induce a cycle")
            if ap.order != (2 * k + 1) * catalan(k):
                bad.append(f"k={k}: order {ap.order} off the construction count")
        if bad:
            return "fail", "; ".join(bad)
        return "pass", (
            "connected, with the rings inducing a full odd cycle; computed "
            "orders " + ", ".join(orders)
        )


CHECKS = (
    ("vertex-counts", _Runner.check_vertex_counts),
    ("odd-census", _Runner.check_odd_census),
    ("even-census", _Runner.check_even_census),
    ("isomorphism-classes", _Runner.check_isomorphism_classes),
    ("max-degree", _Runner.check_max_degree),
    ("edge-counts", _Runner.check_edge_counts),
    ("bipartiteness", _Runner.check_bipartiteness),
    ("medium-even-structure", _Runner.check_medium_even_structure),
    ("neighbor-oracle", _Runner.check_neighbor_oracle),
    ("property-suite", _Runner.check_property_suite),
    ("family-counts", _Runner.check_family_counts),
    ("growth-probe", _Runner.check_growth_probe),
    ("almost-perfect-variant", _Runner.check_almost_perfect),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_checks(
    lo: int = 1,
    hi: int = 12,
    quick: bool = False,
    workers: int | None = None,
    names: tuple[str, ...] | None = None,
    cache: GraphCache | None = None,
) -> list[CheckResult]:
    """Run the named checks (all by default) over sizes lo..hi.

    A size over the configured cap propagates as ResourceLimitError
    rather than turning into a failed check, so callers can report it
    distinctly.
    """
    if cache is None:
        cache = GraphCache(workers=workers)
    runner = _Runner(cache, lo, hi, quick)
    wanted = CHECK_NAMES if names is None else tuple(names)
    unknown = set(wanted) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    results = []
    for name, method in CHECKS:
        if name not in wanted:
            continue
        start = time.perf_counter()
        status, detail = method(runner)
        results.append(
            CheckResult(name, status, detail, time.perf_counter() - start)
        )
    return results


def summary_dict(
    results: list[CheckResult], lo: int, hi: int, quick: bool
) -> dict:
    """JSON-ready run summary used by the CLI verify command."""
    return {
        "k_range": [lo, hi],
        "quick": quick,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "status": r.status,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }


def _span_str(ks: list[int]) -> str:
    if len(ks) == 1:
        return str(ks[0])
    if all(b - a == 1 for a, b in zip(ks, ks[1:])):
        return f"{ks[0]}..{ks[-1]}"
    if len(ks) > 3 and all(b - a == 2 for a, b in zip(ks, ks[1:])):
        return f"{ks[0]},{ks[0] + 2},..,{ks[-1]}"
    return ",".join(map(str, ks))
