"""Reproduction checks for the published structure of the compatibility graph.

Thirteen named checks cover vertex and edge counts, the component census
for both parities, isomorphism classes, degree extremes, bipartiteness,
medium-component shape, the neighbor oracle pair, assorted structural
properties, family counts, the growth-rate probe, and the variant graph
on an odd number of points.  Each check is a row of ``CHECKS``: its
sizes and a body that returns the problems found at one size.
``run_checks`` runs any subset of the rows in one loop and is shared by
the CLI ``verify`` command and the acceptance test suite.  It returns
``CheckResult`` rows; ``cli`` writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .compat import (
    _pair_tables,
    chord_tables,
    neighbor_words,
    set_bits,
    unblocked,
)
from .counting import (
    catalan,
    census_shape,
    count_DB,
    count_DBD,
    count_I,
    count_L_even,
    count_L_odd,
    edge_series,
    growth_estimate,
    riordan,
)
from .dual_tree import find_antiblocks, find_blocks
from .families import _family_words, family_size, rings
from .graph import (
    build_almost_perfect_graph,
    build_graph,
    components,
    csr,
    degree_stats,
    is_bipartite,
    isomorphism_classes,
    verify_medium_even_structure,
)
from .matching import from_partner, word_partners, word_ranker, words

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
    """Builds each graph, its component reports and each size's flip rows
    at most once.  ``workers`` is accepted for existing callers and not
    read."""

    def __init__(self, workers: int | None = None):
        self._graphs: dict[int, object] = {}
        self._reports: dict[int, list] = {}
        self._flip_rows: dict[int, tuple] = {}

    def graph(self, k: int):
        if k not in self._graphs:
            self._graphs[k] = build_graph(k)
        return self._graphs[k]

    def reports(self, k: int) -> list:
        if k not in self._reports:
            self._reports[k] = components(self.graph(k))
        return self._reports[k]

    def flip_rows(self, k: int) -> tuple:
        """``(words, offsets, targets)``: the Dyck words of the size-k
        matchings in canonical order (``words``), and CSR rows whose row r
        holds the sorted ranks of the flip neighbors of ``words[r]``.

        Each matching's flips are walked once, as Dyck words
        (``neighbor_words``), and ranked by their numeric index
        (``word_ranker``), as the graph build ranks them.  The neighbor
        oracle and the property suite read these rows, and the suite reads
        each matching off its word, so they are built only for the sizes
        those checks cover.
        """
        if k not in self._flip_rows:
            by_rank = words(k)
            ranked = word_ranker(k, by_rank)
            self._flip_rows[k] = (by_rank, *csr(
                sorted(ranked(neighbor_words(k, w))) for w in by_rank
            ))
        return self._flip_rows[k]


# A failing check reports at most this many problems.
_MAX_PROBLEMS = 6


# -- per-size check bodies ----------------------------------------------------


def _vertex_counts(cache: GraphCache, k: int) -> list[str]:
    order = cache.graph(k).order
    return [] if order == catalan(k) else [f"k={k}: order {order} != {catalan(k)}"]


def _census(cache: GraphCache, k: int) -> list[str]:
    # The measured small and medium counts must equal both census_shape
    # and the pinned tables of k's parity; a table with no entry pins no
    # medium component.
    smalls, mediums = ((ISOLATED_BY_K, ODD_MEDIUMS_BY_K) if k % 2
                       else (PAIRS_BY_K, EVEN_MEDIUMS_BY_K))
    small_count, _, medium_count, _ = census_shape(k)
    got = Counter(r.category for r in cache.reports(k))
    return [
        f"k={k}: {got[kind]} {kind} components (formula {formula}, table {pinned})"
        for kind, formula, pinned in (
            ("small", small_count, smalls[k]),
            ("medium", medium_count, mediums.get(k, 0)),
        )
        if not got[kind] == formula == pinned
    ]


def _isomorphism_classes(cache: GraphCache, k: int) -> list[str]:
    count, _ = isomorphism_classes(cache.graph(k), cache.reports(k))
    want = ISO_CLASSES_BY_K[k]
    return [] if count == want else [f"k={k}: {count} classes != {want}"]


def _max_degree(cache: GraphCache, k: int) -> list[str]:
    g = cache.graph(k)
    best, argmax = degree_stats(g)
    problems = []
    if best != riordan(k):
        problems.append(f"k={k}: max degree {best} != {riordan(k)}")
    if set(argmax) != {g.index_of(r) for r in rings(k)}:
        problems.append(f"k={k}: max degree not exactly at the rings")
    return problems


def _edge_counts(cache: GraphCache, k: int) -> list[str]:
    got, want = cache.graph(k).edge_count, edge_series(k)[k]
    return [] if got == want else [f"k={k}: {got} edges != {want}"]


def _bipartiteness(cache: GraphCache, k: int) -> list[str]:
    g = cache.graph(k)
    ring_id = g.index_of(rings(k)[0])
    # The ring has rank 0, so its component is reported first and the
    # scan of its members stops at their first.
    home = next(r for r in cache.reports(k) if ring_id in r.members)
    flag, witness = is_bipartite(g, home)
    problems = []
    if flag != home.bipartite:
        problems.append(f"k={k}: witness disagrees with the census flag")
    if k <= 7:
        if not flag:
            return problems + [f"k={k}: ring component not two-colorable"]
        for v in home.members:
            for w in g.adjacent(v):
                if witness[v] == witness[w]:
                    problems.append(f"k={k}: improper coloring at {v}")
                    break
    elif flag:
        problems.append(f"k={k}: ring component unexpectedly bipartite")
    elif len(witness) % 2 == 0:
        problems.append(f"k={k}: witness cycle has even length")
    elif any(b not in g.adjacent(a)
             for a, b in zip(witness, witness[1:] + witness[:1])):
        problems.append(f"k={k}: witness cycle not in the graph")
    return problems


def _medium_even_structure(cache: GraphCache, k: int) -> list[str]:
    problems = verify_medium_even_structure(cache.graph(k), cache.reports(k))
    return [f"k={k}: {p}" for p in problems]


def _neighbor_oracle(cache: GraphCache, k: int) -> list[str]:
    # Each flip row against the positions that no chord of the matching
    # reaches, both as sorted ranks, so a flip listed twice disagrees.
    ms, reach = _pair_tables(k)
    eindex = chord_tables(2 * k)[0]
    _, offsets, targets = cache.flip_rows(k)
    for r, m in enumerate(ms):
        free = unblocked(reach, len(ms), [eindex[e] for e in m.edges])
        if targets[offsets[r] : offsets[r + 1]].tolist() != set_bits(free):
            return [f"k={k}: routes disagree at {m}"]
    return []


# (family, sizes, closed form of the number of members at size k, read
# from (k + 1) // 2).
_FAMILIES = (
    ("I", range(1, 12, 2), count_I),
    ("L", range(2, 13, 2), count_L_even),
    ("L", range(3, 12, 2), count_L_odd),
    ("DB", range(2, 13, 2), count_DB),
    ("DBD", range(5, 12, 2), count_DBD),
)


def _families_at(k: int) -> list[tuple[str, int]]:
    """The families counted at size k, each with its closed-form size."""
    return [(name, count((k + 1) // 2))
            for name, sizes, count in _FAMILIES if k in sizes]


def _family_counts(cache: GraphCache, k: int) -> list[str]:
    problems = []
    for variant, expected in _families_at(k):
        got = family_size(variant, k)
        if got != expected:
            problems.append(f"{variant} at k={k}: {got} != {expected}")
    return problems


def _almost_perfect(cache: GraphCache, k: int) -> list[str]:
    ap = build_almost_perfect_graph(k)
    problems = []
    if ap.component_count != 1:
        problems.append(f"k={k}: {ap.component_count} components")
    if not ap.rings_form_cycle:
        problems.append(f"k={k}: rings do not induce a cycle")
    if ap.order != (2 * k + 1) * catalan(k):
        problems.append(f"k={k}: order {ap.order} off the construction count")
    return problems


def _growth_probe() -> tuple[str, str]:
    start = time.perf_counter()
    ratio = growth_estimate(GROWTH_TERMS)
    elapsed = time.perf_counter() - start
    lo, hi = GROWTH_WINDOW
    probe = f"d_{GROWTH_TERMS}/d_{GROWTH_TERMS - 1} = {float(ratio):.4f}"
    window = f"[{float(lo)}, {float(hi)}]"
    if not lo <= ratio <= hi:
        return "fail", f"{probe} outside {window}"
    if elapsed >= GROWTH_TIME_BUDGET:
        return "fail", f"series expansion took {elapsed:.2f}s"
    return "pass", f"{probe} within {window}"


# -- the property suite -------------------------------------------------------


def _disjoint_runs(starts: list[int], n: int) -> bool:
    # Whether two of the blocks and antiblocks starting at starts, on n
    # points, share no point: a run covers its start and the next three
    # points, so two runs are disjoint when their starts are 4..n-4 apart.
    return any(4 <= (t - s) % n <= n - 4
               for i, s in enumerate(starts) for t in starts[i + 1:])


def _separated_pairs(cache: GraphCache, k: int) -> list[str]:
    for w in cache.flip_rows(k)[0]:
        p = word_partners(w, k)
        if not _disjoint_runs(find_blocks(p) + find_antiblocks(p), 2 * k):
            return [f"k={k}: {from_partner(p)} lacks two disjoint separated pairs"]
    return []


def _spliced_word(w: int, n: int, gap: int) -> int:
    # The Dyck word of families.BLOCK, 1100, spliced after point gap of
    # the n-point matching with word w: its bits go between the gap
    # points above and the n - gap below.
    low = n - gap
    return (w >> low << 4 | 0b1100) << low | w & ((1 << low) - 1)


def _insertion_degree(cache: GraphCache, k: int) -> list[str]:
    # Degrees are flip-row lengths, at k for the host and at k + 2 for
    # each splice.
    n = 2 * k
    ws, host, _ = cache.flip_rows(k)
    spliced_words, spliced, _ = cache.flip_rows(k + 2)
    ranked = word_ranker(k + 2, spliced_words)
    for r, w in enumerate(ws):
        d = host[r + 1] - host[r]
        gaps = ranked([_spliced_word(w, n, gap) for gap in range(n + 1)])
        for gap, s in enumerate(gaps):
            if spliced[s + 1] - spliced[s] != d:
                m = from_partner(word_partners(w, k))
                return [f"k={k}: degree changed inserting at {gap} in {m}"]
    return []


def _forced_antiblock(cache: GraphCache, k: int) -> list[str]:
    # Each neighbor's partner table is read off its word in the flip row.
    n = 2 * k
    ws, offsets, targets = cache.flip_rows(k)
    for r, w in enumerate(ws):
        p = word_partners(w, k)
        blocks = find_blocks(p)
        if not blocks:
            continue
        nbs = [word_partners(ws[s], k) for s in targets[offsets[r] : offsets[r + 1]]]
        for i in blocks:
            b, c, d = i % n + 1, (i + 1) % n + 1, (i + 2) % n + 1
            for q in nbs:
                if q[i] != b or q[c] != d:
                    return [f"k={k}: neighbor {from_partner(q)} of "
                            f"{from_partner(p)} misses the forced boundary "
                            f"pair at {i}"]
    return []


def _degree_bounds(cache: GraphCache, k: int) -> list[str]:
    ws, offsets, _ = cache.flip_rows(k)
    for r, w in enumerate(ws):
        d = offsets[r + 1] - offsets[r]
        p = word_partners(w, k)
        block_count = len(find_blocks(p))
        if k % 2 == 0 and d < 1:
            return [f"k={k}: even-size {from_partner(p)} is isolated"]
        if block_count == 1 and d < 1:
            return [f"k={k}: one-block {from_partner(p)} is isolated"]
        if block_count == 0:
            # The two size-3 rings have degree exactly 1; the
            # two-neighbor bound holds from size 4 on.
            if k == 3 and d != 1:
                return [f"k=3: blockless {from_partner(p)} has degree {d}"]
            if k >= 4 and d < 2:
                return [f"k={k}: blockless {from_partner(p)} has degree {d}"]
    return []


def _isolated_antiblock_free(cache: GraphCache, k: int) -> list[str]:
    for w in _family_words("I", k):
        p = word_partners(w, k)
        if find_antiblocks(p):
            return [f"k={k}: isolated matching {from_partner(p)} has an antiblock"]
    return []


def _extended_degree(cache: GraphCache, k: int) -> list[str]:
    # Each member's witness is (j, chi, z); no member is also a pair
    # member, so it is the witness classification gives.  Partner tables
    # sort in canonical order.
    table = _family_words("EDB", k)
    members = sorted(table, key=lambda w: word_partners(w, k))
    step = max(1, len(members) // 25)
    for w in members[::step]:
        j = table[w][0]
        if len(neighbor_words(k, w)) != j + 2:
            m = from_partner(word_partners(w, k))
            return [f"k={k}: {m} does not have {j + 2} neighbors"]
    return []


# (sizes, body, what holds); the pass detail fills the sizes run into {}.
# Each body takes (cache, k) and returns the problems found at size k.
# Up to k = 8 the bodies read each matching's Dyck word, its degree and
# its neighbors off the cache's flip rows; the sampled sizes above count
# each member's neighbor words.
_PROPERTIES = (
    (range(4, 9), _separated_pairs, "two disjoint separated pairs exist (k={})"),
    (range(1, 7), _insertion_degree,
     "splicing an outer/inner pair preserves degree (hosts k={})"),
    (range(2, 8), _forced_antiblock,
     "every neighbor re-pairs each outer/inner pair in place (k={})"),
    (range(2, 9), _degree_bounds, "degree lower bounds hold (k={})"),
    (range(1, 10, 2), _isolated_antiblock_free,
     "isolated matchings have no antiblocks (k={})"),
    (range(8, 13, 2), _extended_degree,
     "extended members have parameter+2 neighbors (sampled k={})"),
)


def _property_suite_detail(ks: list[int]) -> str:
    runs = [(holds, [k for k in ks if k in sizes]) for sizes, _, holds in _PROPERTIES]
    return "; ".join(holds.format(_span_str(run)) for holds, run in runs if run)


# (name, sizes, builds, body, pass detail).  A check covers its sizes
# within the run range; builds marks a check that builds a graph at each
# size, which --quick drops above the cap.  The body takes (cache, k) and
# returns the problems found at size k; the pass detail is a function of
# the sizes run.  growth-probe has no sizes: it runs once, and its body
# takes no arguments and returns (status, detail).
CHECKS = (
    ("vertex-counts", range(1, 13), True, _vertex_counts,
     lambda ks: f"orders equal the Catalan numbers for k={_span_str(ks)}"),
    ("odd-census", range(1, 13, 2), True, _census,
     lambda ks: f"isolated and star counts match the tables for k={_span_str(ks)}"),
    ("even-census", range(2, 13, 2), True, _census,
     lambda ks: f"pair and medium counts match the tables for k={_span_str(ks)}"),
    ("isomorphism-classes", range(1, 13), True, _isomorphism_classes,
     lambda ks: f"component shape counts for k={_span_str(ks)}: "
                + ",".join(str(ISO_CLASSES_BY_K[k]) for k in ks)),
    ("max-degree", range(2, 13), True, _max_degree,
     lambda ks: "max degree equals the Riordan number, attained exactly at "
                f"the rings, for k={_span_str(ks)}"),
    ("edge-counts", range(2, 11), True, _edge_counts,
     lambda ks: f"edge counts match the series coefficients for k={_span_str(ks)}"),
    ("bipartiteness", range(2, 13), True, _bipartiteness,
     lambda ks: "ring component two-colorable through k=7, odd cycle "
                f"exhibited beyond, for k={_span_str(ks)}"),
    ("medium-even-structure", range(4, 13, 2), True, _medium_even_structure,
     lambda ks: "every medium component matches the chord-decorated path, and "
                "spine adjacency follows the parameter-sum rule, for "
                f"k={_span_str(ks)}"),
    ("neighbor-oracle", range(1, 9), False, _neighbor_oracle,
     lambda ks: "flip route equals the brute-force route for all "
                f"{sum(catalan(k) for k in ks)} matchings with k={_span_str(ks)} "
                f"({sum(catalan(k) ** 2 for k in ks)} pair tests)"),
    ("property-suite", tuple(sorted(set().union(*(s for s, _, _ in _PROPERTIES)))),
     False,
     lambda cache, k: [p for sizes, body, _ in _PROPERTIES if k in sizes
                       for p in body(cache, k)],
     _property_suite_detail),
    ("family-counts", range(1, 13), False, _family_counts,
     lambda ks: f"{sum(len(_families_at(k)) for k in ks)} generated family "
                "sizes equal the closed forms (isolated, leaf, paired, and "
                "star-center families)"),
    ("growth-probe", None, False, _growth_probe, None),
    ("almost-perfect-variant", range(1, 7), True, _almost_perfect,
     lambda ks: "connected, with the rings inducing a full odd cycle; computed "
                "orders " + ", ".join(f"k={k}: {(2 * k + 1) * catalan(k)}"
                                      for k in ks)),
)

CHECK_NAMES = tuple(name for name, *_ in CHECKS)


def run_checks(
    lo: int = 1,
    hi: int = 12,
    quick: bool = False,
    workers: int | None = None,
    names: tuple[str, ...] | None = None,
    cache: GraphCache | None = None,
) -> list[CheckResult]:
    """Run the named checks (all by default) over sizes lo..hi.

    Each check runs over all its sizes before the next one starts, in
    ``CHECKS`` order.  A size over the configured cap propagates as
    ResourceLimitError rather than turning into a failed check, so
    callers can report it distinctly.  ``workers`` is accepted for
    existing callers and not read.
    """
    if cache is None:
        cache = GraphCache()
    wanted = CHECK_NAMES if names is None else tuple(names)
    unknown = set(wanted) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    results = []
    for name, sizes, builds, body, pass_detail in CHECKS:
        if name not in wanted:
            continue
        start = time.perf_counter()
        if sizes is None:
            status, detail = body()
        else:
            top = min(hi, QUICK_BUILD_CAP) if quick and builds else hi
            ks = [k for k in sizes if lo <= k <= top]
            problems = [p for k in ks for p in body(cache, k)]
            if not ks:
                status, detail = "skip", "no applicable sizes in range"
            elif problems:
                status, detail = "fail", "; ".join(problems[:_MAX_PROBLEMS])
            else:
                status, detail = "pass", pass_detail(ks)
        results.append(
            CheckResult(name, status, detail, time.perf_counter() - start)
        )
    return results


def _span_str(ks: list[int]) -> str:
    if len(ks) == 1:
        return str(ks[0])
    if all(b - a == 1 for a, b in zip(ks, ks[1:])):
        return f"{ks[0]}..{ks[-1]}"
    if len(ks) > 3 and all(b - a == 2 for a, b in zip(ks, ks[1:])):
        return f"{ks[0]},{ks[0] + 2},..,{ks[-1]}"
    return ",".join(map(str, ks))
