"""Embedded dual trees of non-crossing matchings.

The chords of a matching cut the convex disc into faces; faces touching
across a chord are adjacent.  Since the chords do not cross, this adjacency
structure is a tree with k edges, one per chord.  The tree is *embedded*:
each face carries the clockwise cyclic order of its incident chords.

Walking the tree so that every chord is crossed twice (the classical
double traversal of a plane tree) visits 2k chord sides; numbering them
1..2k in traversal order recovers the point labels, so a matching is the
same data as an embedded tree with one marked side.

Face ids are deterministic: each boundary arc i (from point i to point
i+1, cyclically) lies in exactly one face, and a face's id is the smallest
arc it contains, which equals the smallest side label incident to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TreeError
from .matching import Edge, Matching, rotate, validate

# A side of a chord is identified by the face it borders.
Side = tuple[Edge, int]


@dataclass(frozen=True)
class EmbeddedTree:
    """Plane tree dual to a matching, with labeled chord sides.

    ``phi`` maps each face id to the cyclic (clockwise) tuple of its
    incident chords; ``side_labels`` maps each (chord, face) side to its
    traversal label; ``marked`` is the side labeled 1.
    """

    k: int
    vertices: tuple[int, ...]
    phi: dict[int, tuple[Edge, ...]]
    side_labels: dict[Side, int] = field(default_factory=dict)
    marked: Side | None = None

    def degree(self, v: int) -> int:
        return len(self.phi[v])

    def edge_faces(self) -> dict[Edge, tuple[int, ...]]:
        """The one or two faces bordering each chord, in face-id order."""
        out: dict[Edge, list[int]] = {}
        for v, ring in self.phi.items():
            for e in ring:
                out.setdefault(e, []).append(v)
        return {e: tuple(sorted(fs)) for e, fs in out.items()}

    def neighbors(self, v: int) -> list[int]:
        faces = self.edge_faces()
        out = []
        for e in self.phi[v]:
            a, b = faces[e]
            out.append(b if a == v else a)
        return out

    def leaves(self) -> list[int]:
        return [v for v in self.vertices if self.degree(v) == 1]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "phi": {
                str(v): [[a, b] for a, b in ring]
                for v, ring in self.phi.items()
            },
            "side_labels": [
                [e[0], e[1], face, label]
                for (e, face), label in sorted(
                    self.side_labels.items(), key=lambda kv: kv[1]
                )
            ],
            "marked": None
            if self.marked is None
            else [self.marked[0][0], self.marked[0][1], self.marked[1]],
        }


def _check_tree(tree: EmbeddedTree) -> None:
    if set(tree.phi) != set(tree.vertices):
        raise TreeError("phi keys disagree with the vertex list")
    faces = tree.edge_faces()
    if len(faces) != tree.k:
        raise TreeError(f"expected {tree.k} chords, found {len(faces)}")
    for e, fs in faces.items():
        if len(fs) != 2 or fs[0] == fs[1]:
            raise TreeError(f"chord {e} must border exactly two faces")
    if len(tree.vertices) != tree.k + 1:
        raise TreeError("a dual tree on k chords has k + 1 faces")
    # Connectivity: k + 1 vertices with k edges form a tree iff connected.
    seen = {tree.vertices[0]}
    stack = [tree.vertices[0]]
    while stack:
        for w in tree.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(tree.vertices):
        raise TreeError("face adjacency is not connected")
    if tree.marked is not None and tree.marked not in {
        (e, f) for e, fs in faces.items() for f in fs
    }:
        raise TreeError("marked side does not name a chord side")


def _cyc(i: int, n: int) -> int:
    return (i - 1) % n + 1


def to_dual_tree(m: Matching) -> EmbeddedTree:
    """Faces, face orders, and side labels of the matching's chord diagram.

    Arc i runs from point i to point i+1; following an arc to the far side
    of the next chord (arc i leads to arc p(i+1)) walks around one face, so
    faces are the orbits of that map.
    """
    n = m.n_points
    p = m.partner()
    face_of_arc = [0] * (n + 1)
    orbits: list[list[int]] = []
    for start in range(1, n + 1):
        if face_of_arc[start]:
            continue
        orbit = []
        i = start
        while True:
            orbit.append(i)
            i = p[_cyc(i + 1, n)]
            if i == start:
                break
        # start is the smallest unvisited arc, hence the minimum of its orbit
        for arc in orbit:
            face_of_arc[arc] = start
        orbits.append(orbit)

    def chord_after(arc: int) -> Edge:
        j = _cyc(arc + 1, n)
        return (min(j, p[j]), max(j, p[j]))

    phi = {orbit[0]: tuple(chord_after(i) for i in orbit) for orbit in orbits}
    side_labels: dict[Side, int] = {}
    for j in range(1, n + 1):
        e = (min(j, p[j]), max(j, p[j]))
        side_labels[(e, face_of_arc[j])] = j
    e1 = (min(1, p[1]), max(1, p[1]))
    return EmbeddedTree(
        k=m.k,
        vertices=tuple(sorted(o[0] for o in orbits)),
        phi=phi,
        side_labels=side_labels,
        marked=(e1, face_of_arc[1]),
    )


def _traverse(tree: EmbeddedTree, start: Side) -> list[Side]:
    """Double-traversal side sequence: cross the marked chord, then always
    cross the successor chord (in the entered face's order) of the one just
    crossed."""
    faces = tree.edge_faces()
    succ: dict[Side, Edge] = {}
    for v, ring in tree.phi.items():
        d = len(ring)
        for i, e in enumerate(ring):
            succ[(e, v)] = ring[(i + 1) % d]
    sides = []
    edge, face = start
    for _ in range(2 * tree.k):
        sides.append((edge, face))
        edge = succ[(edge, face)]
        a, b = faces[edge]
        face = b if a == face else a
    return sides


def from_dual_tree(tree: EmbeddedTree) -> Matching:
    """Recover the matching by numbering chord sides in traversal order.

    Each chord is crossed exactly twice; its two side labels are the labels
    of its endpoints.  If the tree carries side labels they are checked
    against the traversal.
    """
    if tree.marked is None:
        raise TreeError("cannot reconstruct a matching without a marked side")
    _check_tree(tree)
    sides = _traverse(tree, tree.marked)
    if len(set(sides)) != 2 * tree.k:
        raise TreeError("traversal does not cover every chord side once")
    labels_of: dict[Edge, list[int]] = {}
    computed: dict[Side, int] = {}
    for t, (e, f) in enumerate(sides, start=1):
        labels_of.setdefault(e, []).append(t)
        computed[(e, f)] = t
    if tree.side_labels and tree.side_labels != computed:
        raise TreeError("side labels are inconsistent with the traversal")
    return validate(tuple(ls) for ls in labels_of.values())


def embedding_code(tree: EmbeddedTree) -> tuple[int, ...]:
    """Canonical form of the unlabeled embedded tree.

    Every choice of start side yields a 2k-bit word (1 on first crossing of
    a chord, 0 on the second); the minimum word over all 2k sides depends
    only on the embedding, not on labels or mark.
    """
    faces = tree.edge_faces()
    best: tuple[int, ...] | None = None
    for e, fs in sorted(faces.items()):
        for f in fs:
            word = []
            opened = set()
            for edge, _ in _traverse(tree, (e, f)):
                word.append(1 if edge not in opened else 0)
                opened.add(edge)
            w = tuple(word)
            if best is None or w < best:
                best = w
    assert best is not None
    return best


def rotationally_equivalent(m1: Matching, m2: Matching) -> bool:
    """Whether one matching is a label rotation of the other.

    Computed twice, by direct rotation scan and by comparing canonical
    embedding codes of the dual trees; the two answers must agree.
    """
    if m1.k != m2.k:
        return False
    n = m1.n_points
    by_rotation = any(rotate(m1, s) == m2 for s in range(n))
    by_code = embedding_code(to_dual_tree(m1)) == embedding_code(
        to_dual_tree(m2)
    )
    if by_rotation != by_code:
        raise AssertionError(
            f"rotation scan ({by_rotation}) and embedding code ({by_code}) "
            f"disagree for {m1} vs {m2}"
        )
    return by_rotation


@dataclass(frozen=True)
class SeparatedPair:
    """Two matching edges on four cyclically consecutive points.

    ``kind`` is "block" when the points are paired outer/inner (first with
    fourth, second with third) and "antiblock" when paired consecutively.
    ``start`` is the first of the four points; at k = 2 one edge pair shows
    up under both kinds, at different starts.
    """

    kind: str
    start: int
    edges: tuple[Edge, Edge]


def _consecutive_runs(m: Matching, kind: str) -> list[SeparatedPair]:
    n = m.n_points
    if n < 4:
        return []
    p = m.partner()
    block = kind == "block"
    out = []
    for a in range(1, n + 1):
        b, c, d = a % n + 1, (a + 1) % n + 1, (a + 2) % n + 1
        first, second = ((a, d), (b, c)) if block else ((a, b), (c, d))
        if p[first[0]] == first[1] and p[second[0]] == second[1]:
            canon = tuple(sorted(tuple(sorted(e)) for e in (first, second)))
            out.append(SeparatedPair(kind, a, canon))
    return out


def find_blocks(m: Matching) -> list[SeparatedPair]:
    """All placements of an outer/inner pair on consecutive points."""
    return _consecutive_runs(m, "block")


def find_antiblocks(m: Matching) -> list[SeparatedPair]:
    """All placements of two boundary edges on consecutive points."""
    return _consecutive_runs(m, "antiblock")
