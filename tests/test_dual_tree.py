"""Dual trees: face extraction, traversal reconstruction, substructures."""

from __future__ import annotations

import pytest

from dcmatch.dual_tree import (
    EmbeddedTree,
    embedding_code,
    find_antiblocks,
    find_blocks,
    from_dual_tree,
    rotationally_equivalent,
    to_dual_tree,
)
from dcmatch.errors import TreeError
from dcmatch.matching import (
    edge_kind,
    enumerate_matchings,
    parse_matching,
    rotate,
)


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
        assert t.degree(1) == 1 and t.degree(3) == 1
        assert t.side_labels[((1, 2), 1)] == 1
        assert t.side_labels[((1, 2), 2)] == 2
        assert t.side_labels[((3, 4), 3)] == 3
        assert t.side_labels[((3, 4), 2)] == 4

    def test_ring_gives_star(self):
        t = to_dual_tree(parse_matching("1-2,3-4,5-6,7-8"))
        assert t.vertices == (1, 2, 3, 5, 7)
        assert t.degree(2) == 4
        assert sorted(t.degree(v) for v in t.vertices) == [1, 1, 1, 1, 4]

    def test_nested_gives_path(self):
        t = to_dual_tree(parse_matching("1-6,2-5,3-4"))
        assert sorted(t.degree(v) for v in t.vertices) == [1, 1, 2, 2]

    def test_vertex_and_degree_totals(self):
        for m in enumerate_matchings(5):
            t = to_dual_tree(m)
            assert len(t.vertices) == 6
            assert sum(t.degree(v) for v in t.vertices) == 10
            assert len(t.side_labels) == 10

    def test_leaves_match_boundary_edges(self):
        # Each boundary edge pinches off one leaf face (k >= 2).
        for k in (2, 3, 4, 5):
            for m in enumerate_matchings(k):
                boundary = sum(
                    1 for e in m.edges if edge_kind(m, e) == "boundary"
                )
                assert len(to_dual_tree(m).leaves()) == boundary


class TestFromDualTree:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip(self, k):
        for m in enumerate_matchings(k):
            assert from_dual_tree(to_dual_tree(m)) == m

    def test_remarking_rotates_the_matching(self):
        # Moving the mark to the side labeled s yields the matching with
        # labels rotated by 1 - s.
        for m in enumerate_matchings(3):
            t = to_dual_tree(m)
            by_label = {lab: side for side, lab in t.side_labels.items()}
            for s in range(1, 7):
                remarked = EmbeddedTree(t.k, t.vertices, t.phi, {}, by_label[s])
                assert from_dual_tree(remarked) == rotate(m, 1 - s)

    def test_missing_mark_rejected(self):
        t = to_dual_tree(parse_matching("1-2,3-4"))
        bare = EmbeddedTree(t.k, t.vertices, t.phi, {}, None)
        with pytest.raises(TreeError):
            from_dual_tree(bare)

    def test_inconsistent_side_labels_rejected(self):
        t = to_dual_tree(parse_matching("1-2,3-4"))
        swapped = dict(t.side_labels)
        ((e1, f1), (e2, f2)) = list(swapped)[:2]
        swapped[(e1, f1)], swapped[(e2, f2)] = (
            swapped[(e2, f2)],
            swapped[(e1, f1)],
        )
        bad = EmbeddedTree(t.k, t.vertices, t.phi, swapped, t.marked)
        with pytest.raises(TreeError):
            from_dual_tree(bad)


class TestTreeChecks:
    """Structure checks that ``from_dual_tree`` runs before it walks."""

    MARK = ((1, 2), 1)

    def test_malformed_rejected(self):
        t = to_dual_tree(parse_matching("1-2,3-4"))
        short = EmbeddedTree(t.k, (1, 2), t.phi, {}, self.MARK)
        with pytest.raises(TreeError, match="phi keys"):
            from_dual_tree(short)

    def test_disconnected_phi_rejected(self):
        # Two chords borrowing the same face pair would make a cycle.
        phi = {1: ((1, 2), (3, 4)), 2: ((1, 2), (3, 4)), 3: ()}
        bad = EmbeddedTree(2, (1, 2, 3), phi, {}, self.MARK)
        with pytest.raises(TreeError, match="not connected"):
            from_dual_tree(bad)


class TestEmbeddingCode:
    def test_rotations_share_a_code(self):
        m = parse_matching("1-2,3-6,4-5")
        codes = {
            embedding_code(to_dual_tree(rotate(m, s))) for s in range(6)
        }
        assert len(codes) == 1

    def test_code_count_equals_rotation_orbit_count(self):
        for k in range(1, 6):
            ms = enumerate_matchings(k)
            orbits = {
                frozenset(rotate(m, s) for s in range(2 * k)) for m in ms
            }
            codes = {embedding_code(to_dual_tree(m)) for m in ms}
            assert len(codes) == len(orbits), f"k={k}"
        # k = 5: the two rings form one orbit of size 2, the remaining 40
        # matchings fall into four orbits of size 10.
        assert len(orbits) == 6

    @pytest.mark.parametrize("k", range(1, 5))
    def test_equivalence_routes_agree(self, k):
        ms = enumerate_matchings(k)
        for m1 in ms:
            for m2 in ms:
                expected = any(rotate(m1, s) == m2 for s in range(2 * k))
                assert rotationally_equivalent(m1, m2) == expected

    def test_different_sizes(self):
        assert not rotationally_equivalent(
            parse_matching("1-2"), parse_matching("1-2,3-4")
        )


class TestBlocksAndAntiblocks:
    def test_block_instances(self):
        # One plain block and one wrapping across the 8/1 boundary.
        m = parse_matching("1-2,3-8,4-7,5-6")
        blocks = find_blocks(m)
        assert [(b.start, b.edges) for b in blocks] == [
            (4, ((4, 7), (5, 6))),
            (8, ((1, 2), (3, 8))),
        ]
        assert all(b.kind == "block" for b in blocks)

    def test_antiblock_instances(self):
        m = parse_matching("1-2,3-4,5-6,7-8")
        anti = find_antiblocks(m)
        assert [a.start for a in anti] == [1, 3, 5, 7]
        assert all(a.kind == "antiblock" for a in anti)

    def test_k2_pair_is_both(self):
        m = parse_matching("1-2,3-4")
        assert [b.start for b in find_blocks(m)] == [2, 4]
        assert [a.start for a in find_antiblocks(m)] == [1, 3]

    def test_single_edge_has_neither(self):
        m = parse_matching("1-2")
        assert find_blocks(m) == [] and find_antiblocks(m) == []

    @pytest.mark.parametrize("k", range(2, 6))
    def test_counts_match_tree_shapes(self, k):
        # Blocks appear in the dual tree as 2-branches (a leaf whose
        # neighbour has degree 2), antiblocks as wedges (two consecutive
        # leaf chords at one face), instance for instance.
        for m in enumerate_matchings(k):
            t = to_dual_tree(m)
            leaf = {v: t.degree(v) == 1 for v in t.vertices}
            branches = sum(
                t.degree(t.neighbors(v)[0]) == 2 for v in t.vertices if leaf[v]
            )
            wedges = 0
            for v in t.vertices:
                ring = t.neighbors(v)
                if len(ring) > 1:
                    wedges += sum(
                        leaf[a] and leaf[b]
                        for a, b in zip(ring, ring[1:] + ring[:1])
                    )
            assert len(find_blocks(m)) == branches
            assert len(find_antiblocks(m)) == wedges
