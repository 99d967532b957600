"""Embedded dual trees of non-crossing matchings, and the blocks and
antiblocks read off them.

The chords of a matching cut the convex disc into faces; faces touching
across a chord are adjacent.  Since the chords do not cross, this adjacency
structure is a tree with k edges, one per chord.  The tree is *embedded*:
each face carries the clockwise cyclic order of its incident chords.
``to_dual_tree`` builds it, labelling each chord side with the endpoint
where the side's face meets the chord, and marking the side labelled 1.

Face ids are deterministic: each boundary arc i (from point i to point
i+1, cyclically) lies in exactly one face, and a face's id is the smallest
arc it contains, which equals the smallest side label incident to it.

A block (an outer/inner chord pair on four consecutive points) is a leaf
face hanging off a face of degree two; an antiblock (two boundary chords
on four consecutive points) is two consecutive leaf faces around one face.
``find_blocks`` and ``find_antiblocks`` scan the partner table for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import Edge, Matching

# A side of a chord is identified by the face it borders.
Side = tuple[Edge, int]


@dataclass(frozen=True)
class EmbeddedTree:
    """Plane tree dual to a matching, with labeled chord sides.

    ``phi`` maps each face id to the cyclic (clockwise) tuple of its
    incident chords; ``side_labels`` maps each (chord, face) side to its
    point label; ``marked`` is the side labeled 1.
    """

    k: int
    vertices: tuple[int, ...]
    phi: dict[int, tuple[Edge, ...]]
    side_labels: dict[Side, int]
    marked: Side

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
            "marked": [self.marked[0][0], self.marked[0][1], self.marked[1]],
        }


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
    ring = [*range(1, n + 1), 1, 2, 3]
    out = []
    # a, b, c, d: four cyclically consecutive points, a from 1 to n.
    for a, b, c, d in zip(ring, ring[1:], ring[2:], ring[3:]):
        if (p[a] == d and p[b] == c) if block else (p[a] == b and p[c] == d):
            pair = ((a, d), (b, c)) if block else ((a, b), (c, d))
            canon = tuple(sorted(tuple(sorted(e)) for e in pair))
            out.append(SeparatedPair(kind, a, canon))
    return out


def find_blocks(m: Matching) -> list[SeparatedPair]:
    """All placements of an outer/inner pair on consecutive points."""
    return _consecutive_runs(m, "block")


def find_antiblocks(m: Matching) -> list[SeparatedPair]:
    """All placements of two boundary edges on consecutive points."""
    return _consecutive_runs(m, "antiblock")
