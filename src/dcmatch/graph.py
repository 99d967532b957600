"""The compatibility graph itself: construction and components.

Vertex i is the matching of rank i in canonical order (``matching.rank``).
Rotations and reflections of the 2k-gon preserve compatibility, so the
graph is kept as its quotient by that dihedral group: the orbit tables,
and per orbit its representative's neighbor ranks, whose orbits and
symmetries label the arcs (a voltage graph; Gross and Tucker, *Topological
Graph Theory*, 1987, ch. 2).  Each representative's flips come from
``compat.neighbor_words``, which returns the Dyck word of every
neighbor, ranked as the orbit scan ranks its images, by their numeric
index (``matching.word_ranker``); every build runs in the calling
process.  A vertex's neighbors are computed when asked for, and the
census reads every component off the quotient, classifying each orbit
by its representative's word.  Its rows are CSR (offsets plus
targets), as ``csr`` lays them out; the odd-points variant makes each
row from its reach sets as one bitset when read.  The module returns
graphs and reports only; ``cli`` writes them out.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .compat import (
    chord_index,
    chord_tables,
    neighbor_words,
    set_bits,
    unblocked,
)
from .counting import census_shape
from .errors import DomainError
from .families import LABEL_PATH_LEAF, LABEL_PATH_MEMBER, _classify_word
from .matching import (
    Edge,
    Matching,
    canonical_edges,
    check_size,
    enumerate_matchings,
    from_partner,
    partner_word,
    rank,
    unrank,
    word_partners,
    word_ranker,
    word_rotations,
    words,
)


@dataclass(frozen=True, eq=False)
class DcmGraph:
    """Compatibility graph on all matchings of one size, as its dihedral
    quotient.

    ``orbit``, ``element``, ``images`` and ``words`` are the tables of
    ``orbit_tables``: orbits are numbered in order of their smallest rank,
    and ``words[o]`` is the Dyck word of orbit o's representative.  CSR
    row o of ``offsets`` and ``targets`` holds the neighbor ranks of
    orbit o's representative, neighbor x standing for the arc
    ``(orbit[x], element[x])``.  ``certificates`` keeps one certified
    lift per quotient piece, keyed by the piece: its members and its
    canonical form (``component_certificate``).
    """

    k: int
    orbit: array
    element: array
    images: array
    words: array
    offsets: array
    targets: array
    edge_count: int
    certificates: dict[int, tuple[array, tuple]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def order(self) -> int:
        return len(self.orbit)

    def vertex(self, i: int) -> Matching:
        """The matching of rank ``i``."""
        return from_partner(unrank(self.k, i))

    def degree(self, i: int) -> int:
        return self.offsets[self.orbit[i] + 1] - self.offsets[self.orbit[i]]

    def adjacent(self, i: int) -> list[int]:
        """Sorted neighbor indices of vertex ``i``."""
        # Neighbor x = f(rep'), so its image under e is (f, then e)(rep').
        o, then = self.orbit[i], _compose(2 * self.k)[self.element[i]]
        base, orbit, element = 4 * self.k, self.orbit, self.element
        row = self.targets[self.offsets[o] : self.offsets[o + 1]]
        return sorted([self.images[base * orbit[x] + then[element[x]]] for x in row])

    def index_of(self, m: Matching) -> int:
        if m.k != self.k:
            raise ValueError(f"{m} is not a vertex of the size-{self.k} graph")
        return rank(m.partner())


@dataclass(frozen=True, slots=True)
class ComponentReport:
    """One connected component: order, census class, family census, sorted
    members, and the quotient piece it lifts (pieces are numbered in
    order of their smallest vertex).  The components of one piece share
    their ``profile`` dict, so it is read-only."""

    id: int
    order: int
    category: str
    profile: dict[str, int]
    bipartite: bool
    members: array
    piece: int


def orbit_tables(
    k: int,
) -> tuple[array, array, array, array, Callable[[Iterable[int]], list[int]]]:
    """Dihedral orbits of the size-k matchings, indexed by rank.

    Returns ``(orbit, element, images, reps, ranked)``.  Symmetries are
    numbered 0..4k-1 as in ``_compose(2k)``.  Rank i is the image of
    the representative of orbit ``orbit[i]`` under symmetry
    ``element[i]``, and ``images[4k * o + e]`` is the rank of the
    representative of orbit o under symmetry e.  Each orbit's
    representative is its smallest rank, so ``images[4k * o]``, and
    ``reps[o]`` is its Dyck word.  ``ranked(ws)`` lists the ranks of
    the size-k Dyck words ``ws`` (``matching.word_ranker``).

    Images are walked as Dyck words (``matching.words``), one rotation
    step at a time, and each is ranked by its numeric index, two table
    look-ups on its halves, through one table from numeric to canonical
    order; each representative's partner table is read off its word, so
    the scan neither ranks nor unranks.
    """
    by_rank = words(k)
    ranked = word_ranker(k, by_rank)
    n = 2 * k
    orbit = array("i", [-1]) * len(by_rank)
    element = array("i", [0]) * len(orbit)
    images = array("i")
    reps = array("q")
    for i, w in enumerate(by_rank):
        if orbit[i] >= 0:
            continue
        o = len(reps)
        reps.append(w)
        p = word_partners(w, k)
        for a, (w, p) in enumerate(((w, p), _reflected(w, p))):
            for s, j in enumerate(ranked(word_rotations(w, p))):
                images.append(j)
                if orbit[j] < 0:
                    orbit[j] = o
                    element[j] = a * n + s
    return orbit, element, images, reps, ranked


def _reflected(w: int, p: Sequence[int]) -> tuple[int, list[int]]:
    """Word and partner table of the mirror image (t goes to n + 1 - t):
    the bits of ``w`` reversed and complemented."""
    n = len(p) - 1
    mirrored = int(format(w, f"0{n}b")[::-1], 2) ^ ((1 << n) - 1)
    return mirrored, [0] + [n + 1 - p[t] for t in range(n, 0, -1)]


@lru_cache(maxsize=None)
def _compose(n: int) -> tuple[tuple[int, ...], ...]:
    # _compose(n)[e][f]: the symmetry "f, then e" of the n-gon.  Symmetry
    # a*n + s is rho^s tau^a, rho the rotation by one step (t goes to
    # t + 1) and tau the reflection (t goes to n + 1 - t); tau rho^t =
    # rho^-t tau.
    # Worked in the abstract group, so the table holds for n = 2 too,
    # where the point maps repeat.
    return tuple(
        tuple(n * (a ^ b) + (s - t if a else s + t) % n for b in (0, 1) for t in range(n))
        for a in (0, 1)
        for s in range(n)
    )


def csr(rows: Iterable[Iterable[int]]) -> tuple[array, array]:
    """Row v of ``rows`` as ``targets[offsets[v] : offsets[v + 1]]``."""
    offsets, targets = array("q", [0]), array("i")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return offsets, targets


def build_graph(k: int, workers: int | None = None) -> DcmGraph:
    """Build the size-k graph as its dihedral quotient.

    The orbit tables (``orbit_tables``) come from the Dyck words alone,
    ranking every image by its numeric index.  Flips are enumerated once
    per orbit representative, from its word, and each neighbor comes
    back as its word; those words are ranked as the orbit scan ranks
    them, and the ranks become the orbit's CSR row.  Everything runs in
    the calling process; ``workers`` is accepted for existing callers
    and not read.
    """
    check_size(k)
    orbit, element, images, reps, ranked = orbit_tables(k)
    flips = map(partial(neighbor_words, k), reps)
    offsets, targets = csr(map(ranked, flips))
    degrees = [b - a for a, b in zip(offsets, offsets[1:])]
    ends = sum([degrees[o] for o in orbit])
    assert ends % 2 == 0, "adjacency must be symmetric"
    return DcmGraph(k, orbit, element, images, reps, offsets, targets, ends // 2)


# -- components --------------------------------------------------------------


def _closure(generators: set[tuple[int, int]], compose) -> set[tuple[int, int]]:
    """The subgroup of D x Z2 that ``generators`` generate."""
    found, todo = {(0, 0)}, [(0, 0)]
    for d, t in todo:
        for g, u in generators:
            x = (compose[d][g], t ^ u)
            if x not in found:
                found.add(x)
                todo.append(x)
    return found


def components(graph: DcmGraph) -> list[ComponentReport]:
    """Connected components in order of their smallest vertex.

    One breadth-first search per piece B of the quotient gives each orbit
    o a potential p_o in the dihedral group D (a tree arc o -> o' with
    symmetry f sets p_o' = p_o f) and a depth parity.  Vertex g(rep_o)
    sits at h = g p_o^-1; an arc o -> o' with symmetry f moves h to
    h p_o f p_o'^-1, and a symmetry s fixing rep_o names the same vertex
    at h p_o s p_o^-1.  With the colour parities they carry, these moves
    generate H <= D x Z2.  B lifts to one component per left coset of
    H's image H_D in D, each two-colouring exactly when (id, 1) is not
    in H and holding |orbit o| / [D : H_D] members of each orbit o of B.
    Family labels are dihedral invariants: each orbit is classified once,
    by its representative's Dyck word.
    """
    k, group, orbit, element = graph.k, 4 * graph.k, graph.orbit, graph.element
    offsets, targets = graph.offsets, graph.targets
    _, small_order, _, medium_order = census_shape(k)
    category = {medium_order: "medium", small_order: "small"}
    compose = _compose(2 * k)
    inverse = [row.index(0) for row in compose]
    piece = array("i", [-1]) * (len(offsets) - 1)
    potential = array("i", [0]) * len(piece)
    parity = bytearray(len(piece))
    lift_of: list[list[int]] = []  # per piece: the lift holding each h in D
    # per lift: bipartite, profile, piece
    kinds: list[tuple[bool, dict[str, int], int]] = []
    for start in range(len(piece)):
        if piece[start] >= 0:
            continue
        piece[start] = len(lift_of)
        orbits = [start]
        generators = set()
        weight: Counter = Counter()
        # Breadth-first: the loop also visits orbits appended during it.
        for o in orbits:
            p = potential[o]
            then = compose[p]  # then[f] = p f
            row = graph.images[group * o : group * (o + 1)]
            fixed = [s for s, j in enumerate(row) if j == row[0]]
            weight[_classify_word(graph.words[o], k)[0]] += group // len(fixed)
            generators.update((compose[then[s]][inverse[p]], 0) for s in fixed)
            for x in targets[offsets[o] : offsets[o + 1]]:
                w, pf = orbit[x], then[element[x]]
                if piece[w] < 0:
                    piece[w] = piece[start]
                    potential[w] = pf
                    parity[w] = 1 - parity[o]
                    orbits.append(w)
                move = compose[pf][inverse[potential[w]]]
                generators.add((move, 1 ^ parity[o] ^ parity[w]))
        subgroup = _closure(generators, compose)
        within = {d for d, _ in subgroup}
        lifts = group // len(within)
        profile = {label: n // lifts for label, n in sorted(weight.items())}
        kind = (0, 1) not in subgroup, profile, piece[start]
        cosets = [-1] * group
        for d in range(group):
            if cosets[d] < 0:
                for x in within:
                    cosets[compose[d][x]] = len(kinds)
                kinds.append(kind)
        lift_of.append(cosets)
    found = [array("i") for _ in kinds]  # per lift: its members, ascending
    for v, (o, e) in enumerate(zip(orbit, element)):
        h = compose[e][inverse[potential[o]]]
        found[lift_of[piece[o]][h]].append(v)
    reports: list[ComponentReport] = []
    for lift in sorted(range(len(found)), key=lambda i: found[i][0]):
        members = found[lift]
        bipartite, profile, home = kinds[lift]
        assert sum(profile.values()) == len(members), "lift orders must agree"
        reports.append(
            ComponentReport(
                id=len(reports),
                order=len(members),
                category=category.get(len(members), "big"),
                profile=profile,
                bipartite=bipartite,
                members=members,
                piece=home,
            )
        )
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
    # Degree is constant on orbits.
    degrees = [b - a for a, b in zip(graph.offsets, graph.offsets[1:])]
    best = max(degrees)
    argmax = tuple(i for i, o in enumerate(graph.orbit) if degrees[o] == best)
    return best, argmax


# -- isomorphism classes -----------------------------------------------------


def _induced_adjacency(graph: DcmGraph, members: Sequence[int]) -> list[list[int]]:
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
    """Canonical form of a vertex-coloured graph.

    The form is an isomorphism invariant of (graph, colouring). Each
    leaf of the search is a discrete colouring, read as a labelling, and
    its form is the relabelled edge list; so under one uniform colouring
    two graphs share a form exactly when they are isomorphic. After
    colour refinement, the search individualises each vertex of the
    first cell with more than one vertex and returns the minimum form
    over these branches. Two vertices of that cell with the same open
    neighbourhood are twins: swapping them is an automorphism that keeps
    the colouring, so their branches give the same form, and only the
    first vertex of each neighbourhood is branched on.
    """
    colors = _refine(adj, colors)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    ambiguous = [vs for _, vs in sorted(groups.items()) if len(vs) > 1]
    if not ambiguous:
        edges = sorted(
            (min(colors[v], colors[w]), max(colors[v], colors[w]))
            for v in range(len(adj))
            for w in adj[v]
            if v < w
        )
        return len(adj), tuple(edges)
    best = None
    fresh = len(adj)
    seen: set[frozenset[int]] = set()
    for v in ambiguous[0]:
        neighbourhood = frozenset(adj[v])
        if neighbourhood in seen:
            continue
        seen.add(neighbourhood)
        branched = list(colors)
        branched[v] = fresh
        candidate = _canonical_form(adj, branched)
        if best is None or candidate < best:
            best = candidate
    return best


def component_certificate(graph: DcmGraph, component: ComponentReport) -> tuple:
    """Isomorphism-invariant canonical form of one component.

    The form is searched once per quotient piece, on the first of its
    lifts asked for.  Every other lift of the piece is that lift's image
    under a symmetry of the 2k-gon, an automorphism of the graph, so it
    gets the same form; but only after the symmetry that takes the
    certified lift's first member into it is checked to map the certified
    lift onto its members exactly.  A failed check is an internal error.
    """
    cached = graph.certificates.get(component.piece)
    if cached is None:
        adj = _induced_adjacency(graph, component.members)
        cached = component.members, _canonical_form(adj, [0] * len(adj))
        graph.certificates[component.piece] = cached
    lift, form = cached
    if lift is not component.members and not _maps_onto(graph, lift, component.members):
        raise AssertionError(
            f"component {component.id} is no symmetric image of the "
            f"certified lift of piece {component.piece}"
        )
    return form


def _maps_onto(graph: DcmGraph, lift: array, members: array) -> bool:
    # Whether the first symmetry taking lift[0] into members maps all of
    # lift onto the sorted vertex set members.  A symmetry maps components
    # onto components, so no other symmetry can do better.
    group = 4 * graph.k
    base, e = group * graph.orbit[lift[0]], graph.element[lift[0]]
    then = next(
        (t for t in _compose(2 * graph.k) if graph.images[base + t[e]] in members),
        None,
    )
    if then is None:
        return False
    moved = sorted(
        graph.images[group * graph.orbit[v] + then[graph.element[v]]] for v in lift
    )
    return array("i", moved) == members


def isomorphism_classes(
    graph: DcmGraph, reports: list[ComponentReport]
) -> tuple[int, list[list[int]]]:
    """Group components up to isomorphism.

    Only equal-order components are ever compared, so the canonical-form
    cost stays with the small and medium components, and it is paid once
    per quotient piece (``component_certificate``).  A connected graph on
    one or two vertices is K1 or K2, so those orders form one class each
    without a certificate.
    """
    by_order: dict[int, list[ComponentReport]] = {}
    for report in reports:
        by_order.setdefault(report.order, []).append(report)
    classes: list[list[int]] = []
    for order in sorted(by_order):
        group = by_order[order]
        if len(group) == 1 or order <= 2:
            classes.append([report.id for report in group])
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


def _spine_problem(graph: DcmGraph, spine: dict[int, tuple], half: int) -> str | None:
    # The first way the path members break the parameter rule, if any;
    # spine[v] = (j, side, neighbor set) for each path member v.
    sides: dict[tuple, set[int]] = {}
    for j, side, _ in spine.values():
        sides.setdefault(side, set()).add(j)
    if len(sides) != 2 or any(js != set(range(1, half)) for js in sides.values()):
        return "malformed spine parameters"
    linked_pairs = chords = 0
    items = sorted(spine.items())
    for i, (a, (j1, side1, around)) in enumerate(items):
        for b, (j2, side2, _) in items[i + 1 :]:
            linked = b in around
            if linked != (side1 != side2 and j1 + j2 >= half):
                return (
                    "parameter rule broken between "
                    f"{graph.vertex(a)} and {graph.vertex(b)}"
                )
            linked_pairs += linked
            chords += linked and j1 + j2 >= half + 2
    if linked_pairs != 2 * half - 3 + chords:
        return "chord count off"
    return None


def verify_medium_even_structure(
    graph: DcmGraph, reports: list[ComponentReport]
) -> list[str]:
    """Check every medium component of an even-size graph in detail.

    Each one must be the fixed chord-decorated path: k-2 path members
    each holding two leaves, with the extra chords dictated by the
    parity rule, and the member/leaf roles matching the family labels.
    The path members carry strip parameters (j, chi, z) with j in
    1..(k/2 - 1) on two sides (chi, z).  Two of them are adjacent exactly
    when they sit on opposite sides and their j values sum to at least
    k/2, and sums of at least k/2 + 2 give the non-path chords.  Each
    member's label is read off its partner table and its neighbors are
    made once; its matching is made only for a problem line.  Each shape
    is read through ``component_certificate``, so one search per quotient
    piece.  Returns the problems found, one line per failing component;
    empty on a pass.
    """
    k = graph.k
    if k % 2 or k < 4:
        raise DomainError(f"medium structure is defined for even k >= 4, got {k}")
    expected_profile = {
        LABEL_PATH_LEAF: 2 * (k - 2),
        LABEL_PATH_MEMBER: k - 2,
    }
    template_cert = _canonical_form(
        _medium_even_template(k), [0] * (3 * (k - 2))
    )
    found: list[str] = []
    mediums = [r for r in reports if r.category == "medium"]
    for report in mediums:
        problems = []
        if report.profile != expected_profile:
            problems.append(f"profile {report.profile}")
        spine: dict[int, tuple] = {}
        for v in report.members:
            label, params = _classify_word(partner_word(unrank(k, v)), k)
            if label == LABEL_PATH_MEMBER:
                around = set(graph.adjacent(v))
                leaf_neighbors = sum(1 for w in around if graph.degree(w) == 1)
                if leaf_neighbors != 2:
                    problems.append(
                        f"member {graph.vertex(v)} has {leaf_neighbors} leaves"
                    )
                j, chi, z = params
                spine[v] = (j, (chi, z), around)
            if label == LABEL_PATH_LEAF and graph.degree(v) != 1:
                problems.append(f"leaf {graph.vertex(v)} is not degree 1")
        problem = _spine_problem(graph, spine, k // 2)
        if problem:
            problems.append(problem)
        if component_certificate(graph, report) != template_cert:
            problems.append("shape differs from the chord-decorated path")
        if problems:
            found.append(f"component {report.id}: " + "; ".join(problems))
    if not mediums:
        found.append("no medium components found")
    return found


# -- almost-perfect variant --------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlmostPerfectGraph:
    """Compatibility graph on near-perfect matchings of 2k+1 points; each
    row is made from ``reach``, the reach set of each chord, when read."""

    k: int
    vertices: tuple[tuple[int, tuple[Edge, ...]], ...]
    reach: list[int]
    component_count: int
    rings_form_cycle: bool

    @property
    def order(self) -> int:
        return len(self.vertices)

    def adjacent(self, i: int) -> list[int]:
        """Sorted neighbor indices of vertex ``i``."""
        return set_bits(_variant_row(self.reach, self.vertices, i))


def _variant_row(reach: list[int], vertices: Sequence, v: int) -> int:
    # Vertex v's neighbors as one bitset: the vertices that no chord of v
    # reaches.  Its own chords reach v, so the row never holds it.
    edges = vertices[v][1]
    eindex = chord_tables(2 * len(edges) + 1)[0]
    return unblocked(reach, len(vertices), [eindex[e] for e in edges])


def _piece_count(row: Callable[[int], int], order: int) -> int:
    """Connected components of the graph on 0..order-1 with neighbor
    bitsets ``row(v)``.  Each grows from its lowest unseen vertex: a
    frontier's rows are ORed into one mask, its unseen bits the next."""
    unseen = (1 << order) - 1
    count = 0
    while unseen:
        count += 1
        frontier = unseen & -unseen
        while frontier:
            unseen ^= frontier
            reached = 0
            for v in set_bits(frontier):
                reached |= row(v)
            frontier = reached & unseen
    return count


def build_almost_perfect_graph(k: int) -> AlmostPerfectGraph:
    """Variant graph on 2k+1 points, each matching skipping one point.

    Adjacency is the same relation: no common edge and no crossing.
    Each row is the complement of the reach sets of the vertex's own
    chords, taken over all (2k+1) * C(k) vertices, so the build is only
    practical for small k; the acceptance checks stop at k=6.
    """
    check_size(k)
    n = 2 * k + 1
    raw: list[tuple[int, tuple[Edge, ...]]] = []
    matchings = enumerate_matchings(k)
    for skip in range(1, n + 1):
        rest = [p for p in range(1, n + 1) if p != skip]
        for m in matchings:
            # rest ascends, so the relabelled edges keep canonical order.
            edges = tuple((rest[a - 1], rest[b - 1]) for a, b in m.edges)
            raw.append((skip, edges))
    raw.sort(key=lambda v: v[1])
    reach = chord_index([edges for _, edges in raw], n)
    row = partial(_variant_row, reach, raw)
    # The ring skipping each point, found in raw, which is sorted by chords.
    ring_indices = []
    for skip in range(1, n + 1):
        edges = canonical_edges(
            ((skip + 2 * t) % n + 1, (skip + 2 * t + 1) % n + 1)
            for t in range(k)
        )
        ring_indices.append(bisect_left(raw, edges, key=lambda v: v[1]))
    ring_mask = sum(1 << v for v in ring_indices)
    cycle_ok = all(
        row(v) & ring_mask
        == (1 << ring_indices[pos - 1]) | (1 << ring_indices[(pos + 1) % n])
        for pos, v in enumerate(ring_indices)
    )
    return AlmostPerfectGraph(
        k=k,
        vertices=tuple(raw),
        reach=reach,
        component_count=_piece_count(row, len(raw)),
        rings_form_cycle=cycle_ok,
    )
