"""Embedded dual trees of non-crossing matchings, and the blocks and
antiblocks read off them.

The chords of a matching cut the convex disc into faces; faces touching
across a chord are adjacent.  Since the chords do not cross, this adjacency
structure is a tree with k edges, one per chord.  The tree is *embedded*:
each face carries the counterclockwise cyclic order of its incident
chords, the way the point labels run.  ``to_dual_tree`` builds it,
labelling each chord side with the endpoint where the side's face meets
the chord, and marking the side labelled 1.

Face ids are deterministic: each boundary arc i (from point i to point
i+1, cyclically) lies in exactly one face, and a face's id is the smallest
arc it contains, which equals the smallest side label incident to it.

A block (an outer/inner chord pair on four consecutive points) is a leaf
face hanging off a face of degree two; an antiblock (two boundary chords
on four consecutive points) is two consecutive leaf faces around one face.
``find_blocks`` and ``find_antiblocks`` scan a partner table for them and
return each one's first point a, which fixes its points a..a+3 (cyclically).
At k = 2 one edge pair is both, at different first points.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .matching import Edge, Matching

# A side of a chord is identified by the face it borders.
Side = tuple[Edge, int]


@dataclass(frozen=True)
class EmbeddedTree:
    """Plane tree dual to a matching, with labeled chord sides.

    ``phi`` maps each face id to the cyclic (counterclockwise) tuple of its
    incident chords; ``side_labels`` maps each (chord, face) side to its
    point label; ``marked`` is the side labeled 1.
    """

    k: int
    vertices: tuple[int, ...]
    phi: dict[int, tuple[Edge, ...]]
    side_labels: dict[Side, int]
    marked: Side


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


def _quads(p: list[int]) -> Iterator[tuple[int, int, int, int]]:
    # a, b, c, d: four cyclically consecutive points, a from 1 to n; none
    # when there are fewer than four points.
    n = len(p) - 1
    ring = [*range(1, n + 1), 1, 2, 3] if n >= 4 else []
    return zip(ring, ring[1:], ring[2:], ring[3:])


def find_blocks(p: list[int]) -> list[int]:
    """First points, ascending, of the outer/inner pairs on four
    consecutive points of the matching with partner table ``p``."""
    return [a for a, b, c, d in _quads(p) if p[a] == d and p[b] == c]


def find_antiblocks(p: list[int]) -> list[int]:
    """First points, ascending, of the two boundary edges on four
    consecutive points of the matching with partner table ``p``."""
    return [a for a, b, c, d in _quads(p) if p[a] == b and p[c] == d]
