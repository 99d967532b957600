"""The compatibility graph itself: construction, components, and exports.

Vertices are the canonical matchings in enumeration order, adjacency is
kept as one flat sorted index array plus per-vertex offsets.  Builds are
chunked, so worker count never changes the result.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from multiprocessing import get_context

from .compat import chord_tables, edge_masks, neighbors
from .counting import medium_even_order, medium_odd_order
from .errors import DomainError, ResourceLimitError
from .families import LABEL_PATH_LEAF, LABEL_PATH_MEMBER, classify
from .matching import (
    Edge,
    Matching,
    canonical_edges,
    configured_max_k,
    enumerate_matchings,
)

# Vertices per build task; fixed so that chunk boundaries, and therefore
# the merged result, never depend on the worker count.
_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class DcmGraph:
    """Compatibility graph on all matchings of one size, in CSR form."""

    k: int
    vertices: tuple[Matching, ...]
    offsets: array
    targets: array
    edge_count: int

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return self.offsets[i + 1] - self.offsets[i]

    def adjacent(self, i: int) -> array:
        """Sorted neighbor indices of vertex ``i``."""
        return self.targets[self.offsets[i] : self.offsets[i + 1]]

    def index_of(self, m: Matching) -> int:
        i = bisect_left(self.vertices, m.edges, key=lambda v: v.edges)
        if i == len(self.vertices) or self.vertices[i] != m:
            raise ValueError(f"{m} is not a vertex of the size-{self.k} graph")
        return i


@dataclass(frozen=True)
class ComponentReport:
    """One connected component: order, census class, and family census."""

    id: int
    order: int
    category: str
    profile: dict[str, int]
    representative: Matching
    bipartite: bool
    members: tuple[int, ...]


# Chunk workers read these module globals; they are populated right
# before forking and cleared afterwards.
_WORK_VERTICES: list[Matching] | None = None
_WORK_INDEX: dict[Matching, int] | None = None


def _chunk_adjacency(bounds: tuple[int, int]) -> tuple[bytes, bytes]:
    lo, hi = bounds
    counts = array("i")
    flat = array("i")
    for i in range(lo, hi):
        found = sorted(_WORK_INDEX[m] for m in neighbors(_WORK_VERTICES[i]))
        counts.append(len(found))
        flat.extend(found)
    return counts.tobytes(), flat.tobytes()


def _offsets(counts) -> array:
    # CSR row starts: running sums of the row lengths, led by a zero.
    return array("q", accumulate(counts, initial=0))


def _assemble(k, vertices, results) -> DcmGraph:
    # Chunks are appended as they arrive, so no list of them is held.
    counts = array("i")
    targets = array("i")
    for count_bytes, flat_bytes in results:
        counts.frombytes(count_bytes)
        targets.frombytes(flat_bytes)
    offsets = _offsets(counts)
    total = offsets[-1]
    assert total % 2 == 0, "adjacency must be symmetric"
    return DcmGraph(k, tuple(vertices), offsets, targets, total // 2)


def build_graph(k: int, workers: int | None = None) -> DcmGraph:
    """Build the size-k graph.

    ``workers`` > 1 forks that many processes over fixed vertex chunks;
    the merge keeps chunk order, so any worker count yields the same
    graph.
    """
    limit = configured_max_k()
    if k < 1:
        raise DomainError(f"graph size must be >= 1, got {k}")
    if k > limit:
        raise ResourceLimitError(
            f"k={k} is over the configured cap of {limit}; "
            "set DCM_MAX_K to raise it"
        )
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise DomainError(f"worker count must be >= 1, got {workers}")
    vertices = enumerate_matchings(k)
    chunks = [
        (lo, min(lo + _CHUNK, len(vertices)))
        for lo in range(0, len(vertices), _CHUNK)
    ]
    global _WORK_VERTICES, _WORK_INDEX
    _WORK_VERTICES = vertices
    _WORK_INDEX = {m: i for i, m in enumerate(vertices)}
    try:
        if workers == 1 or len(chunks) == 1:
            return _assemble(k, vertices, map(_chunk_adjacency, chunks))
        with get_context("fork").Pool(min(workers, len(chunks))) as pool:
            results = pool.imap(_chunk_adjacency, chunks)
            return _assemble(k, vertices, results)
    finally:
        _WORK_VERTICES = None
        _WORK_INDEX = None


# -- components --------------------------------------------------------------


def _census_category(k: int, order: int) -> str:
    if k % 2:
        small = 1
        medium = medium_odd_order((k + 1) // 2) if k >= 3 else None
    else:
        small = 2
        medium = medium_even_order(k // 2) if k >= 4 else None
    if order == small:
        return "small"
    if order == medium:
        return "medium"
    return "big"


def _pieces(order: int, adjacent) -> Iterator[tuple[list[int], bool]]:
    """Connected components in order of their smallest vertex.

    Yields each component's sorted members and whether it two-colors;
    ``adjacent(v)`` lists the neighbors of vertex ``v``.
    """
    color = bytearray(order)  # 0 while unseen, then 1 or 2
    for start in range(order):
        if color[start]:
            continue
        color[start] = 1
        members = [start]
        bipartite = True
        # Breadth-first: the loop also visits members appended during it.
        for v in members:
            opposite = 3 - color[v]
            for w in adjacent(v):
                if not color[w]:
                    color[w] = opposite
                    members.append(w)
                elif color[w] != opposite:
                    bipartite = False
        members.sort()
        yield members, bipartite


def components(graph: DcmGraph) -> list[ComponentReport]:
    """Connected components in order of their smallest vertex."""
    reports: list[ComponentReport] = []
    for members, bipartite in _pieces(graph.order, graph.adjacent):
        profile = Counter(classify(graph.vertices[i]) for i in members)
        reports.append(
            ComponentReport(
                id=len(reports),
                order=len(members),
                category=_census_category(graph.k, len(members)),
                profile=dict(sorted(profile.items())),
                representative=graph.vertices[members[0]],
                bipartite=bipartite,
                members=tuple(members),
            )
        )
    assert sum(r.order for r in reports) == graph.order
    return reports


def is_bipartite(
    graph: DcmGraph, component: ComponentReport
) -> tuple[bool, tuple[int, ...] | dict[int, int]]:
    """Two-color one component.

    Returns (True, coloring) or (False, odd cycle as a closed vertex
    sequence without the repeated endpoint).
    """
    start = component.members[0]
    color = {start: 0}
    parent: dict[int, int | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in graph.adjacent(v):
            if w not in color:
                color[w] = 1 - color[v]
                parent[w] = v
                queue.append(w)
            elif color[w] == color[v]:
                return False, _odd_cycle(parent, v, w)
    return True, color


def _odd_cycle(parent, v, w):
    def chain(u):
        out = [u]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    up_v, up_w = chain(v), chain(w)
    common = set(up_w)
    meet = next(u for u in up_v if u in common)
    cycle = up_v[: up_v.index(meet) + 1] + up_w[: up_w.index(meet)][::-1]
    assert len(cycle) % 2 == 1, "witness cycle must be odd"
    return tuple(cycle)


def degree_stats(graph: DcmGraph) -> tuple[int, tuple[int, ...]]:
    """Maximum degree and the sorted indices of all vertices attaining it."""
    best = max(graph.degree(i) for i in range(graph.order))
    argmax = tuple(i for i in range(graph.order) if graph.degree(i) == best)
    return best, argmax


# -- isomorphism classes -----------------------------------------------------


def _induced_adjacency(graph: DcmGraph, members: tuple[int, ...]) -> list[list[int]]:
    local = {v: i for i, v in enumerate(members)}
    return [[local[w] for w in graph.adjacent(v)] for v in members]


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    while True:
        signature = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(len(adj))
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(signature)))}
        refined = [ranks[s] for s in signature]
        if refined == colors:
            return refined
        colors = refined


def _canonical_form(adj: list[list[int]], colors: list[int]) -> tuple:
    colors = _refine(adj, colors)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    ambiguous = [vs for _, vs in sorted(groups.items()) if len(vs) > 1]
    if not ambiguous:
        rank = {v: colors[v] for v in range(len(adj))}
        edges = sorted(
            (min(rank[v], rank[w]), max(rank[v], rank[w]))
            for v in range(len(adj))
            for w in adj[v]
            if v < w
        )
        return len(adj), tuple(edges)
    best = None
    fresh = len(adj)
    for v in ambiguous[0]:
        branched = list(colors)
        branched[v] = fresh
        candidate = _canonical_form(adj, branched)
        if best is None or candidate < best:
            best = candidate
    return best


def component_certificate(graph: DcmGraph, component: ComponentReport) -> tuple:
    """Isomorphism-invariant canonical form of one component."""
    adj = _induced_adjacency(graph, component.members)
    return _canonical_form(adj, [0] * len(adj))


def isomorphism_classes(
    graph: DcmGraph, reports: list[ComponentReport] | None = None
) -> tuple[int, list[list[int]]]:
    """Group components up to isomorphism.

    Only equal-order components are ever compared, so the canonical-form
    cost stays with the small and medium components.
    """
    if reports is None:
        reports = components(graph)
    by_order: dict[int, list[ComponentReport]] = {}
    for report in reports:
        by_order.setdefault(report.order, []).append(report)
    classes: list[list[int]] = []
    for order in sorted(by_order):
        group = by_order[order]
        if len(group) == 1:
            classes.append([group[0].id])
            continue
        by_certificate: dict[tuple, list[int]] = {}
        for report in group:
            cert = component_certificate(graph, report)
            by_certificate.setdefault(cert, []).append(report.id)
        classes.extend(sorted(by_certificate.values()))
    classes.sort(key=lambda ids: ids[0])
    return len(classes), classes


# -- medium component structure at even sizes --------------------------------


def _medium_even_template(k: int) -> list[list[int]]:
    # Spine vertices 0..K-1 carry leaves K+2i and K+2i+1; extra spine
    # chords join 1-based positions (a, b) with a even, b odd, a <= b-3.
    spine = k - 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    for a in range(2, spine + 1, 2):
        for b in range(a + 3, spine + 1, 2):
            edges.append((a - 1, b - 1))
    for i in range(spine):
        edges.append((i, spine + 2 * i))
        edges.append((i, spine + 2 * i + 1))
    adj: list[list[int]] = [[] for _ in range(3 * spine)]
    for v, w in edges:
        adj[v].append(w)
        adj[w].append(v)
    return adj


def verify_medium_even_structure(
    graph: DcmGraph, reports: list[ComponentReport] | None = None
) -> tuple[bool, list[str]]:
    """Check every medium component of an even-size graph in detail.

    Each one must be the fixed chord-decorated path: k-2 path members
    each holding two leaves, with the extra chords dictated by the
    parity rule, and the member/leaf roles matching the family labels.
    """
    k = graph.k
    if k % 2 or k < 4:
        raise DomainError(f"medium structure is defined for even k >= 4, got {k}")
    if reports is None:
        reports = components(graph)
    expected_order = medium_even_order(k // 2)
    expected_profile = {
        LABEL_PATH_LEAF: 2 * (k - 2),
        LABEL_PATH_MEMBER: k - 2,
    }
    template_cert = _canonical_form(
        _medium_even_template(k), [0] * (3 * (k - 2))
    )
    notes: list[str] = []
    ok = True
    mediums = [r for r in reports if r.category == "medium"]
    for report in mediums:
        problems = []
        if report.order != expected_order:
            problems.append(f"order {report.order} != {expected_order}")
        if report.profile != expected_profile:
            problems.append(f"profile {report.profile}")
        for v in report.members:
            label = classify(graph.vertices[v])
            leaf_neighbors = sum(
                1 for w in graph.adjacent(v) if graph.degree(w) == 1
            )
            if label == LABEL_PATH_MEMBER and leaf_neighbors != 2:
                problems.append(
                    f"member {graph.vertices[v]} has {leaf_neighbors} leaves"
                )
            if label == LABEL_PATH_LEAF and graph.degree(v) != 1:
                problems.append(f"leaf {graph.vertices[v]} is not degree 1")
        if component_certificate(graph, report) != template_cert:
            problems.append("shape differs from the chord-decorated path")
        if problems:
            ok = False
            notes.append(f"component {report.id}: " + "; ".join(problems))
        else:
            notes.append(f"component {report.id}: matches the template")
    if not mediums:
        ok = False
        notes.append("no medium components found")
    return ok, notes


# -- almost-perfect variant --------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlmostPerfectGraph:
    """Compatibility graph on near-perfect matchings of 2k+1 points."""

    k: int
    n_points: int
    vertices: tuple[tuple[int, tuple[Edge, ...]], ...]
    offsets: array
    targets: array
    edge_count: int
    connected: bool
    component_count: int
    ring_indices: tuple[int, ...]
    rings_form_cycle: bool

    @property
    def order(self) -> int:
        return len(self.vertices)

    def adjacent(self, i: int) -> array:
        return self.targets[self.offsets[i] : self.offsets[i + 1]]


def build_almost_perfect_graph(k: int) -> AlmostPerfectGraph:
    """Variant graph on 2k+1 points, each matching skipping one point.

    Adjacency is the same relation: no common edge and no crossing.
    The build compares every vertex pair, so it is only practical for
    small k; the acceptance checks stop at k=6.
    """
    limit = configured_max_k()
    if k < 1:
        raise DomainError(f"variant graph size must be >= 1, got {k}")
    if k > limit:
        raise ResourceLimitError(
            f"k={k} is over the configured cap of {limit}; "
            "set DCM_MAX_K to raise it"
        )
    n = 2 * k + 1
    raw: list[tuple[int, tuple[Edge, ...]]] = []
    for skip in range(1, n + 1):
        rest = [p for p in range(1, n + 1) if p != skip]
        for m in enumerate_matchings(k):
            edges = canonical_edges(
                (rest[a - 1], rest[b - 1]) for a, b in m.edges
            )
            raw.append((skip, edges))
    raw.sort(key=lambda v: v[1])
    eindex, cross = chord_tables(n)
    masks = []
    blocked = []
    for _, edges in raw:
        used, crossed = edge_masks(edges, eindex, cross)
        masks.append(used)
        blocked.append(used | crossed)
    counts = array("i")
    targets = array("i")
    for b in blocked:
        # A vertex's own chords block it, so no row lists the vertex.
        row = [j for j, mask in enumerate(masks) if not mask & b]
        counts.append(len(row))
        targets.extend(row)
    offsets = _offsets(counts)

    def adjacent(v: int) -> array:
        return targets[offsets[v] : offsets[v + 1]]

    pieces = sum(1 for _ in _pieces(len(raw), adjacent))
    index = {edges: i for i, (_, edges) in enumerate(raw)}
    ring_indices = []
    for skip in range(1, n + 1):
        edges = canonical_edges(
            ((skip + 2 * t) % n + 1, (skip + 2 * t + 1) % n + 1)
            for t in range(k)
        )
        ring_indices.append(index[edges])
    ring_set = set(ring_indices)
    cycle_ok = True
    for pos, v in enumerate(ring_indices):
        expected = {
            ring_indices[(pos - 1) % n],
            ring_indices[(pos + 1) % n],
        }
        got = {w for w in adjacent(v) if w in ring_set}
        if got != expected:
            cycle_ok = False
    return AlmostPerfectGraph(
        k=k,
        n_points=n,
        vertices=tuple(raw),
        offsets=offsets,
        targets=targets,
        edge_count=offsets[-1] // 2,
        connected=pieces == 1,
        component_count=pieces,
        ring_indices=tuple(ring_indices),
        rings_form_cycle=cycle_ok,
    )


# -- exports -----------------------------------------------------------------


def to_dot(graph: DcmGraph) -> str:
    """DOT text: quoted canonical strings, each edge emitted once."""
    lines = [f"graph dcm_{graph.k} {{"]
    for m in graph.vertices:
        lines.append(f'  "{m}";')
    for i in range(graph.order):
        for j in graph.adjacent(i):
            if i < j:
                lines.append(f'  "{graph.vertices[i]}" -- "{graph.vertices[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(graph: DcmGraph) -> dict:
    edges = [
        [i, int(j)]
        for i in range(graph.order)
        for j in graph.adjacent(i)
        if i < j
    ]
    return {
        "k": graph.k,
        "vertices": [str(m) for m in graph.vertices],
        "edges": edges,
    }


def census_csv(graph: DcmGraph, reports: list[ComponentReport] | None = None) -> str:
    if reports is None:
        reports = components(graph)
    lines = ["k,component_id,order,class,bipartite"]
    for r in reports:
        flag = "true" if r.bipartite else "false"
        lines.append(f"{graph.k},{r.id},{r.order},{r.category},{flag}")
    return "\n".join(lines) + "\n"
