"""Dual trees: face extraction, traversal reconstruction, substructures."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from dcmatch.dual_tree import (
    EmbeddedTree,
    find_antiblocks,
    find_blocks,
    to_dual_tree,
)
from dcmatch.matching import (
    enumerate_matchings,
    parse_matching,
    validate,
)
from dcmatch.verification import _disjoint_runs
from reference import (
    reference_consecutive_runs,
    reference_run_points,
    reference_separated_pairs,
)
from symmetries import rotate


def degree(tree, v):
    return len(tree.phi[v])


def edge_faces(tree):
    """The two faces bordering each chord, in face-id order."""
    out = {}
    for v, ring in tree.phi.items():
        for e in ring:
            out.setdefault(e, []).append(v)
    return {e: tuple(sorted(fs)) for e, fs in out.items()}


def tree_neighbors(tree, v):
    """The faces across each chord of face v, in v's counterclockwise order."""
    faces = edge_faces(tree)
    out = []
    for e in tree.phi[v]:
        a, b = faces[e]
        out.append(b if a == v else a)
    return out


def leaves(tree):
    return [v for v in tree.vertices if degree(tree, v) == 1]


def traverse(tree):
    """Chord sides in double-traversal order: cross the marked chord, then
    always the chord after the one just crossed in the entered face."""
    faces = edge_faces(tree)
    succ = {
        (e, v): ring[(i + 1) % len(ring)]
        for v, ring in tree.phi.items()
        for i, e in enumerate(ring)
    }
    sides = [tree.marked]
    while len(sides) < 2 * tree.k:
        edge, face = sides[-1]
        edge = succ[edge, face]
        a, b = faces[edge]
        sides.append((edge, b if a == face else a))
    return sides


def from_dual_tree(tree):
    """Number the sides 1..2k in traversal order; each chord's two
    numbers are its endpoints."""
    ends = {}
    for t, (e, _) in enumerate(traverse(tree), 1):
        ends.setdefault(e, []).append(t)
    return validate(ends.values())


class TestToDualTree:
    def test_single_edge(self):
        t = to_dual_tree(parse_matching("1-2"))
        assert t.vertices == (1, 2)
        assert t.phi == {1: ((1, 2),), 2: ((1, 2),)}
        assert t.marked == ((1, 2), 1)

    def test_two_nested_faces(self):
        t = to_dual_tree(parse_matching("1-2,3-4"))
        assert t.vertices == (1, 2, 3)
        # The face order starts at the face's anchor arc (its id).
        assert t.phi[2] == ((3, 4), (1, 2))
        assert degree(t, 1) == 1 and degree(t, 3) == 1
        assert t.side_labels[((1, 2), 1)] == 1
        assert t.side_labels[((1, 2), 2)] == 2
        assert t.side_labels[((3, 4), 3)] == 3
        assert t.side_labels[((3, 4), 2)] == 4

    def test_ring_gives_star(self):
        t = to_dual_tree(parse_matching("1-2,3-4,5-6,7-8"))
        assert t.vertices == (1, 2, 3, 5, 7)
        assert degree(t, 2) == 4
        assert sorted(degree(t, v) for v in t.vertices) == [1, 1, 1, 1, 4]

    def test_nested_gives_path(self):
        t = to_dual_tree(parse_matching("1-6,2-5,3-4"))
        assert sorted(degree(t, v) for v in t.vertices) == [1, 1, 2, 2]

    def test_vertex_and_degree_totals(self):
        for m in enumerate_matchings(5):
            t = to_dual_tree(m)
            assert len(t.vertices) == 6
            assert sum(degree(t, v) for v in t.vertices) == 10
            assert len(t.side_labels) == 10

    def test_leaves_match_boundary_edges(self):
        # Each boundary edge pinches off one leaf face (k >= 2).
        for k in (2, 3, 4, 5):
            for m in enumerate_matchings(k):
                boundary = sum(
                    b - a == 1 or (a, b) == (1, 2 * k) for a, b in m.edges
                )
                assert len(leaves(to_dual_tree(m))) == boundary


class TestFromDualTree:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip(self, k):
        for m in enumerate_matchings(k):
            t = to_dual_tree(m)
            assert from_dual_tree(t) == m
            numbered = {side: i for i, side in enumerate(traverse(t), 1)}
            assert t.side_labels == numbered

    def test_remarking_rotates_the_matching(self):
        # Moving the mark to the side labeled s yields the matching with
        # labels rotated by 1 - s.
        for m in enumerate_matchings(3):
            t = to_dual_tree(m)
            by_label = {lab: side for side, lab in t.side_labels.items()}
            for s in range(1, 7):
                remarked = EmbeddedTree(t.k, t.vertices, t.phi, {}, by_label[s])
                assert from_dual_tree(remarked) == rotate(m, 1 - s)


class TestBlocksAndAntiblocks:
    def test_block_instances(self):
        # One plain block, 4-7 around 5-6, and one wrapping across the 8/1
        # boundary, 8-3 around 1-2.
        m = parse_matching("1-2,3-8,4-7,5-6")
        assert find_blocks(m.partner()) == [4, 8]

    def test_antiblock_instances(self):
        m = parse_matching("1-2,3-4,5-6,7-8")
        assert find_antiblocks(m.partner()) == [1, 3, 5, 7]

    def test_k2_pair_is_both(self):
        p = parse_matching("1-2,3-4").partner()
        assert find_blocks(p) == [2, 4]
        assert find_antiblocks(p) == [1, 3]

    @pytest.mark.parametrize("k", range(1, 10))
    def test_match_the_reference_scan(self, k):
        for m in enumerate_matchings(k):
            p = m.partner()
            assert find_blocks(p) == reference_consecutive_runs(m, "block")
            assert find_antiblocks(p) == reference_consecutive_runs(m, "antiblock")

    def test_single_edge_has_neither(self):
        p = parse_matching("1-2").partner()
        assert find_blocks(p) == [] and find_antiblocks(p) == []

    def test_start_distance_gives_the_disjointness_verdict(self):
        # The property suite calls two runs disjoint when their starts lie
        # 4..n-4 steps apart; the reference compares their point sets, run
        # pair by run pair and over each whole matching.
        pairs, matchings = Counter(), Counter()
        for k in range(1, 10):
            for m in enumerate_matchings(k):
                p = m.partner()
                starts = find_blocks(p) + find_antiblocks(p)
                runs = zip(starts, reference_run_points(m), strict=True)
                for (s, a), (t, b) in combinations(runs, 2):
                    verdict = _disjoint_runs([s, t], 2 * k)
                    assert verdict == a.isdisjoint(b), (m, s, t)
                    pairs[verdict] += 1
                verdict = _disjoint_runs(starts, 2 * k)
                assert verdict == reference_separated_pairs(m), m
                matchings[verdict] += 1
        # Both verdicts occur: the 8 matchings with k <= 3 lack two
        # disjoint runs, and every larger one has them.
        assert pairs[True] and pairs[False]
        assert matchings[False] == 8

    @pytest.mark.parametrize("k", range(2, 6))
    def test_counts_match_tree_shapes(self, k):
        # Blocks appear in the dual tree as 2-branches (a leaf whose
        # neighbour has degree 2), antiblocks as wedges (two consecutive
        # leaf chords at one face), instance for instance.
        for m in enumerate_matchings(k):
            t = to_dual_tree(m)
            leaf = {v: degree(t, v) == 1 for v in t.vertices}
            branches = sum(
                degree(t, tree_neighbors(t, v)[0]) == 2
                for v in t.vertices
                if leaf[v]
            )
            wedges = 0
            for v in t.vertices:
                ring = tree_neighbors(t, v)
                if len(ring) > 1:
                    wedges += sum(
                        leaf[a] and leaf[b]
                        for a, b in zip(ring, ring[1:] + ring[:1])
                    )
            assert len(find_blocks(m.partner())) == branches
            assert len(find_antiblocks(m.partner())) == wedges
