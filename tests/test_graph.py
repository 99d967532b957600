"""Graph construction, component census, and structural verifiers."""

from __future__ import annotations

from collections import Counter

import pytest

from dcmatch.counting import edge_series
from dcmatch.errors import DomainError, ResourceLimitError
from dcmatch.families import classify, rings
from dcmatch.graph import (
    build_almost_perfect_graph,
    build_graph,
    census_csv,
    component_certificate,
    components,
    degree_stats,
    graph_to_json_dict,
    is_bipartite,
    isomorphism_classes,
    to_dot,
    verify_medium_even_structure,
)
from dcmatch.matching import is_crossing, parse_matching

# (order, category) -> how many components, pinned per size.
CENSUS = {
    2: {(2, "small"): 1},
    3: {(1, "small"): 3, (2, "medium"): 1},
    4: {(2, "small"): 4, (6, "medium"): 1},
    5: {(1, "small"): 15, (3, "medium"): 5, (12, "big"): 1},
    6: {(2, "small"): 12, (12, "medium"): 6, (36, "big"): 1},
    7: {(1, "small"): 91, (4, "medium"): 14, (86, "big"): 1, (196, "big"): 1},
    8: {(2, "small"): 32, (18, "medium"): 16, (278, "big"): 1, (800, "big"): 1},
}

ISO_ROW = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4}

_graphs: dict[int, object] = {}
_reports: dict[int, list] = {}


def graph_for(k):
    if k not in _graphs:
        _graphs[k] = build_graph(k)
    return _graphs[k]


def reports_for(k):
    if k not in _reports:
        _reports[k] = components(graph_for(k))
    return _reports[k]


class TestBuild:
    def test_small_shapes(self):
        g = graph_for(3)
        assert g.order == 5
        assert g.edge_count == 1
        g = graph_for(4)
        assert g.order == 14
        assert g.edge_count == 9

    def test_edge_counts_match_series(self):
        d = edge_series(8).coefficients
        for k in range(2, 9):
            assert graph_for(k).edge_count == d[k]

    def test_adjacency_sorted_symmetric_loopless(self):
        g = graph_for(5)
        for i in range(g.order):
            row = list(g.adjacent(i))
            assert row == sorted(row)
            assert i not in row
            for j in row:
                assert i in g.adjacent(j)

    def test_index_roundtrip(self):
        g = graph_for(4)
        for i, m in enumerate(g.vertices):
            assert g.index_of(m) == i
        with pytest.raises(ValueError):
            g.index_of(parse_matching("1-2,3-4"))

    def test_worker_count_is_invisible(self):
        base = graph_to_json_dict(build_graph(4, workers=1))
        assert graph_to_json_dict(build_graph(4, workers=2)) == base
        assert graph_to_json_dict(build_graph(4, workers=3)) == base

    def test_configured_cap(self, monkeypatch):
        monkeypatch.setenv("DCM_MAX_K", "5")
        with pytest.raises(ResourceLimitError):
            build_graph(6)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_graph(0)
        with pytest.raises(DomainError):
            build_graph(4, workers=0)


class TestComponents:
    def test_census_rows(self):
        for k, expected in CENSUS.items():
            got = Counter((r.order, r.category) for r in reports_for(k))
            assert dict(got) == expected, f"k={k}"

    def test_orders_sum(self):
        for k in (3, 5, 6):
            assert sum(r.order for r in reports_for(k)) == graph_for(k).order

    def test_members_sorted_and_representative(self):
        for r in reports_for(5):
            assert list(r.members) == sorted(r.members)
            assert r.representative == graph_for(5).vertices[r.members[0]]

    def test_big_profiles_are_regular(self):
        for k in (5, 6):
            big = max(reports_for(k), key=lambda r: r.order)
            assert big.profile == {"Regular": big.order}

    def test_medium_profile_k5(self):
        medium = next(r for r in reports_for(5) if r.category == "medium")
        assert medium.profile == {"Medium-DBD": 1, "Medium-DBDL": 2}

    def test_rings_share_the_big_component(self):
        for k in (5, 6, 7):
            g = graph_for(k)
            ring_home = {
                r.id
                for r in reports_for(k)
                for ring in rings(k)
                if g.index_of(ring) in set(r.members)
            }
            assert len(ring_home) == 1
            owner = reports_for(k)[ring_home.pop()]
            assert owner.category == ("big" if k >= 5 else "medium")


class TestBipartite:
    def test_ring_component_flag_flips_at_eight(self):
        for k in range(2, 8):
            g = graph_for(k)
            home = next(
                r
                for r in reports_for(k)
                if g.index_of(rings(k)[0]) in set(r.members)
            )
            assert home.bipartite
        g = graph_for(8)
        home = next(
            r for r in reports_for(8) if g.index_of(rings(8)[0]) in set(r.members)
        )
        assert not home.bipartite

    def test_two_coloring_witness(self):
        g = graph_for(6)
        big = max(reports_for(6), key=lambda r: r.order)
        flag, coloring = is_bipartite(g, big)
        assert flag
        assert set(coloring) == set(big.members)
        for v in big.members:
            for w in g.adjacent(v):
                assert coloring[v] != coloring[w]

    def test_odd_cycle_witness(self):
        g = graph_for(8)
        home = next(
            r for r in reports_for(8) if g.index_of(rings(8)[0]) in set(r.members)
        )
        flag, cycle = is_bipartite(g, home)
        assert not flag
        assert len(cycle) % 2 == 1
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in g.adjacent(a)

    def test_pair_component(self):
        g = graph_for(4)
        pair = next(r for r in reports_for(4) if r.category == "small")
        flag, coloring = is_bipartite(g, pair)
        assert flag
        assert sorted(coloring.values()) == [0, 1]

    def test_other_big_at_seven_is_odd(self):
        g = graph_for(7)
        other = next(r for r in reports_for(7) if r.order == 196)
        flag, cycle = is_bipartite(g, other)
        assert not flag
        assert len(cycle) % 2 == 1


class TestDegrees:
    def test_max_at_rings(self):
        for k, expected in ((2, 1), (4, 3), (6, 15)):
            g = graph_for(k)
            best, argmax = degree_stats(g)
            assert best == expected
            assert {g.vertices[i] for i in argmax} == set(rings(k))

    def test_k2_everyone_wins(self):
        best, argmax = degree_stats(graph_for(2))
        assert best == 1
        assert len(argmax) == 2


class TestIsomorphism:
    def test_class_counts(self):
        for k, expected in ISO_ROW.items():
            count, classes = isomorphism_classes(graph_for(k), reports_for(k))
            assert count == expected
            covered = sorted(i for group in classes for i in group)
            assert covered == [r.id for r in reports_for(k)]

    def test_partition_shape_k5(self):
        _, classes = isomorphism_classes(graph_for(5), reports_for(5))
        assert sorted(len(group) for group in classes) == [1, 5, 15]

    def test_pair_certificates_coincide(self):
        g = graph_for(4)
        pairs = [r for r in reports_for(4) if r.category == "small"]
        certs = {component_certificate(g, r) for r in pairs}
        assert len(certs) == 1

    def test_star_and_path_differ(self):
        g5, g6 = graph_for(5), graph_for(6)
        star = next(r for r in reports_for(5) if r.category == "medium")
        path = next(r for r in reports_for(6) if r.category == "medium")
        assert component_certificate(g5, star) != component_certificate(g6, path)


class TestMediumEvenStructure:
    def test_small_even_sizes_pass(self):
        for k in (4, 6, 8):
            ok, notes = verify_medium_even_structure(graph_for(k), reports_for(k))
            assert ok, notes
            mediums = [r for r in reports_for(k) if r.category == "medium"]
            assert len(notes) == len(mediums)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(DomainError):
            verify_medium_even_structure(graph_for(5))
        with pytest.raises(DomainError):
            verify_medium_even_structure(graph_for(2))


class TestAlmostPerfect:
    def test_smallest_is_a_triangle(self):
        ap = build_almost_perfect_graph(1)
        assert ap.order == 3
        assert ap.edge_count == 3
        assert ap.connected
        assert ap.rings_form_cycle

    def test_vertex_counts(self):
        for k, expected in ((1, 3), (2, 10), (3, 35), (4, 126)):
            assert build_almost_perfect_graph(k).order == expected

    def test_connected_with_ring_cycle(self):
        for k in (2, 3, 4):
            ap = build_almost_perfect_graph(k)
            assert ap.connected
            assert ap.component_count == 1
            assert ap.rings_form_cycle
            assert len(set(ap.ring_indices)) == 2 * k + 1

    def test_edge_counts(self):
        expected = {1: 3, 2: 25, 3: 161, 4: 1071, 5: 6677, 6: 41535}
        for k, count in expected.items():
            assert build_almost_perfect_graph(k).edge_count == count

    def test_adjacent_vertices_share_nothing(self):
        # Oracle: pairwise edge comparison with is_crossing, no bitmasks.
        for k in range(1, 5):
            ap = build_almost_perfect_graph(k)
            edge_sets = [set(edges) for _, edges in ap.vertices]
            for i, mine in enumerate(edge_sets):
                expected = {
                    j
                    for j, theirs in enumerate(edge_sets)
                    if j != i
                    and not mine & theirs
                    and not any(
                        is_crossing(e, f) for e in mine for f in theirs
                    )
                }
                assert set(ap.adjacent(i)) == expected, (k, i)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            build_almost_perfect_graph(0)


class TestExports:
    def test_dot_golden(self):
        assert to_dot(graph_for(2)) == (
            "graph dcm_2 {\n"
            '  "1-2,3-4";\n'
            '  "1-4,2-3";\n'
            '  "1-2,3-4" -- "1-4,2-3";\n'
            "}\n"
        )

    def test_json_golden(self):
        assert graph_to_json_dict(graph_for(2)) == {
            "k": 2,
            "vertices": ["1-2,3-4", "1-4,2-3"],
            "edges": [[0, 1]],
        }

    def test_census_golden(self):
        assert census_csv(graph_for(3), reports_for(3)) == (
            "k,component_id,order,class,bipartite\n"
            "3,0,2,medium,true\n"
            "3,1,1,small,true\n"
            "3,2,1,small,true\n"
            "3,3,1,small,true\n"
        )

    def test_json_edge_count_consistency(self):
        payload = graph_to_json_dict(graph_for(4))
        assert len(payload["edges"]) == graph_for(4).edge_count
