"""Graph construction, component census, and structural verifiers."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import networkx as nx
import pytest

from dcmatch import compat as compat_module
from dcmatch import graph as graph_module
from dcmatch import matching as matching_module
from dcmatch.compat import neighbor_words, neighbors, neighbors_bruteforce
from dcmatch.counting import (
    big_component_order,
    catalan,
    edge_series,
    medium_even_order,
    medium_odd_order,
)
from dcmatch.errors import DomainError, ResourceLimitError
from dcmatch.families import LABEL_PATH_MEMBER, classify, rings
from dcmatch.graph import (
    build_almost_perfect_graph,
    build_graph,
    component_certificate,
    components,
    degree_stats,
    is_bipartite,
    isomorphism_classes,
    orbit_tables,
    verify_medium_even_structure,
)
from dcmatch.matching import (
    enumerate_matchings,
    from_partner,
    parse_matching,
    partner_word,
    rank,
    words,
)
from dcmatch.verification import ISO_CLASSES_BY_K, run_checks
from reference import canonical_edges, is_crossing, unrank
from symmetries import dihedral_permutations, permute, reflect, rotate

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

# sha256 of the bytes of each DcmGraph table at the two largest sizes.
TABLE_DIGESTS = {
    11: {
        "orbit": "777f923f6a8b0ede1e9856169ab8d7dd711f289c4a0a7c3a0367cae4b24ab79b",
        "element": "32685caf312b12a7046b7d3d9bdddf8ae30dee44e2cd1a0d90ef8fcc20583973",
        "images": "4b48852838c9f2d5b58ae67f55cc6ba2f2a45d59f2e0c4b473de0a4876ff6258",
        "words": "fb63301a6557f6ff3ebf6b75151140a5a17b84ab5d32226bc4d467ee2a7f66cb",
        "offsets": "575c8285a0cf5045b33776c0238aae5f7437a930186b0fc6ac7945243b86637a",
        "targets": "ef09cd0dbcf00f6e8b9f3b7bb7f957d59b0d9948dcc9c4c97d9a2e0a6051bf55",
    },
    12: {
        "orbit": "60d91c93d7c94c9942dc93fe5210aa0abde053c2446895bd8684676cfd8b05c5",
        "element": "5e6f19b6b427974fc2fca0999a76e35c7e1a707a50023f8231141d5d4eafc2a4",
        "images": "eeab2708d3b254e875b9b90ae3419f21071a9fd2c472b8146547c171caa1b4c9",
        "words": "6d753ba60f2b069692004c3b28a5e6cef335d8fb8315d5fcab2221c5c8ea445f",
        "offsets": "fa09838d2b2b1632dfa7ebec2d809712412e4265278a450876133237b1ee22e6",
        "targets": "dea8477393c656bd9be01d8de33a6a4a4a6e693a16539620071d159332b27eba",
    },
}


class TestBuild:
    def test_small_shapes(self, graph_cache):
        g = graph_cache.graph(3)
        assert g.order == 5
        assert g.edge_count == 1
        g = graph_cache.graph(4)
        assert g.order == 14
        assert g.edge_count == 9

    def test_edge_counts_match_series(self, graph_cache):
        d = edge_series(8)
        for k in range(2, 9):
            assert graph_cache.graph(k).edge_count == d[k]

    def test_largest_edge_counts_are_pinned(self, graph_cache):
        # d_11 and d_12, past the edge-counts check; the acceptance tests
        # and later tests in this module read both graphs anyway.
        counts = [graph_cache.graph(k).edge_count for k in (11, 12)]
        assert counts == [185285, 888937]

    @pytest.mark.parametrize("k", [11, 12])
    def test_largest_tables_are_pinned(self, k, graph_cache):
        # The sha256 of each table's machine bytes, so a change to how the
        # tables are built cannot move one entry unseen.
        g = graph_cache.graph(k)
        got = {name: hashlib.sha256(getattr(g, name).tobytes()).hexdigest()
               for name in TABLE_DIGESTS[k]}
        assert got == TABLE_DIGESTS[k]

    def test_adjacency_sorted_symmetric_loopless(self, graph_cache):
        g = graph_cache.graph(5)
        for i in range(g.order):
            row = list(g.adjacent(i))
            assert row == sorted(row)
            assert i not in row
            for j in row:
                assert i in g.adjacent(j)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_rows_match_bruteforce(self, k, graph_cache):
        # Oracle: chord-mask scan over enumeration order, no ranks or symmetries.
        ms = enumerate_matchings(k)
        index = {m: i for i, m in enumerate(ms)}
        g = graph_cache.graph(k)
        for i, m in enumerate(ms):
            expected = sorted(index[x] for x in neighbors_bruteforce(m))
            assert list(g.adjacent(i)) == expected, (k, i)

    def test_index_roundtrip(self, graph_cache):
        g = graph_cache.graph(4)
        for i, m in enumerate(enumerate_matchings(4)):
            assert g.index_of(m) == i
        for other_size in ("1-2,3-4", "1-10,2-3,4-5,6-7,8-9"):
            with pytest.raises(ValueError):
                g.index_of(parse_matching(other_size))

    def test_one_flip_enumeration_per_orbit(self, monkeypatch):
        calls = 0
        real = compat_module._flips

        def counted(p):
            nonlocal calls
            calls += 1
            return real(p)

        monkeypatch.setattr(compat_module, "_flips", counted)
        build_graph(9)
        assert calls == max(orbit_tables(9)[0]) + 1 == 175

    def test_configured_cap(self, monkeypatch):
        monkeypatch.setenv("DCM_MAX_K", "5")
        with pytest.raises(ResourceLimitError):
            build_graph(6)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_graph(0)


class TestOrbits:
    @pytest.mark.parametrize("k, count", [(8, 65), (10, 490)])
    def test_orbit_counts(self, k, count):
        orbit, _, images, reps, _ = orbit_tables(k)
        assert max(orbit) + 1 == len(reps) == count
        assert len(images) == 4 * k * count

    @pytest.mark.parametrize("k", range(1, 8))
    def test_tables_describe_each_vertex(self, k):
        # Oracle: relabel the representative's edges with rotate/reflect.
        vertices = enumerate_matchings(k)
        orbit, element, images = orbit_tables(k)[:3]
        n = 2 * k
        for i, m in enumerate(vertices):
            rep = vertices[images[2 * n * orbit[i]]]
            e = element[i]
            image = rotate(rep, e) if e < n else rotate(reflect(rep), e - n)
            assert image == m
            assert images[2 * n * orbit[i]] <= i

    def test_graph_keeps_the_orbit_table(self):
        for k in range(1, 10):
            graph = build_graph(k)
            assert graph.orbit == orbit_tables(k)[0]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_orbit_is_closed_under_the_generators(self, k, graph_cache):
        # Oracle: rotate/reflect and index_of, not the orbit tables.
        graph = graph_cache.graph(k)
        for i, v in enumerate(enumerate_matchings(k)):
            assert graph.orbit[graph.index_of(rotate(v, 1))] == graph.orbit[i]
            assert graph.orbit[graph.index_of(reflect(v))] == graph.orbit[i]


def reference_orbit_tables(k):
    """The orbit tables by ranking every image's permuted partner table:
    one ``rank(permute(p, sigma))`` per symmetry of each representative."""
    perms = dihedral_permutations(2 * k)
    orbit = array("i", [-1]) * catalan(k)
    element = array("i", [0]) * len(orbit)
    images = array("i")
    for i in range(len(orbit)):
        if orbit[i] >= 0:
            continue
        o = len(images) // len(perms)
        p = unrank(k, i)
        for e, sigma in enumerate(perms):
            j = rank(permute(p, sigma))
            images.append(j)
            if orbit[j] < 0:
                orbit[j] = o
                element[j] = e
    return orbit, element, images


def word_of(p):
    """Oracle: the Dyck word read point by point off a partner table."""
    n = len(p) - 1
    return sum(1 << (n - t) for t in range(1, n + 1) if p[t] > t)


class TestOrbitWalk:
    @pytest.mark.parametrize("k", range(1, 12))
    def test_matches_the_ranked_pass(self, k):
        assert orbit_tables(k)[:3] == reference_orbit_tables(k)

    def test_matches_the_ranked_pass_at_12(self):
        assert orbit_tables(12)[:3] == reference_orbit_tables(12)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_flip_words_rank_like_partner_tables(self, k):
        # Oracle: each neighbor's partner table, its word read point by
        # point and its rank by the partner-table ranking, each word
        # with its rank; a word listed twice disagrees with the set.
        _, _, images, reps, ranked = orbit_tables(k)
        representatives = images[:: 4 * k]
        assert list(reps) == [word_of(unrank(k, r)) for r in representatives]
        for r, w in zip(representatives, reps):
            found = [x.partner() for x in neighbors(from_partner(unrank(k, r)))]
            got = neighbor_words(k, w)
            want = [(partner_word(q), rank(q)) for q in found]
            assert sorted(zip(got, ranked(got))) == sorted(want), (k, r)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_steps_match_permute(self, k):
        # Seeded random partner tables, up to 60 points.
        rng = random.Random(k)
        n = 2 * k
        perms = dihedral_permutations(n)
        for _ in range(3):
            p = unrank(k, rng.randrange(catalan(k)))
            turns = [word_of(permute(p, perms[s])) for s in range(n)]
            assert list(matching_module.word_rotations(word_of(p), p)) == turns
            w, q = graph_module._reflected(word_of(p), p)
            assert q == permute(p, perms[n])
            assert w == word_of(q)
            turns = [word_of(permute(p, perms[n + s])) for s in range(n)]
            assert list(matching_module.word_rotations(w, q)) == turns

    def test_no_rank_and_no_unrank(self, monkeypatch):
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        # rank is patched where both modules bind it, so a rename fails
        # here; unrank lives in the tests alone.
        for module in (graph_module, matching_module):
            counting(module, "rank")
            assert not hasattr(module, "unrank")
        orbit_tables(9)
        assert calls == Counter()


class TestComponents:
    def test_census_rows(self, graph_cache):
        for k, expected in CENSUS.items():
            got = Counter((r.order, r.category) for r in graph_cache.reports(k))
            assert dict(got) == expected, f"k={k}"

    def test_orders_sum(self, graph_cache):
        for k in (3, 5, 6):
            orders = [r.order for r in graph_cache.reports(k)]
            assert sum(orders) == graph_cache.graph(k).order

    def test_members_sorted_and_representative(self, graph_cache):
        # The components JSON names a component by its first member's matching.
        vertices = enumerate_matchings(5)
        for r in graph_cache.reports(5):
            assert list(r.members) == sorted(r.members)
            assert graph_cache.graph(5).vertex(r.members[0]) == vertices[r.members[0]]

    def test_big_profiles_are_regular(self, graph_cache):
        for k in (5, 6):
            big = max(graph_cache.reports(k), key=lambda r: r.order)
            assert big.profile == {"Regular": big.order}

    def test_medium_profile_k5(self, graph_cache):
        medium = next(r for r in graph_cache.reports(5) if r.category == "medium")
        assert medium.profile == {"Medium-DBD": 1, "Medium-DBDL": 2}

    @pytest.mark.parametrize("k", [5, 7, 9, 11])
    def test_odd_mediums_are_stars(self, k, graph_cache):
        # Each medium component is K_{1,l-1}: one Medium-DBD centre joined
        # to l - 1 Medium-DBDL leaves, read off the adjacency itself.
        l = (k + 1) // 2
        g = graph_cache.graph(k)
        mediums = [r for r in graph_cache.reports(k) if r.category == "medium"]
        assert mediums
        for r in mediums:
            labels = {v: classify(g.vertex(v)) for v in r.members}
            centres = [v for v in r.members if labels[v] == "Medium-DBD"]
            assert len(centres) == 1, (k, r.id)
            centre = centres[0]
            leaves = [v for v in r.members if v != centre]
            assert len(leaves) == l - 1, (k, r.id)
            assert g.adjacent(centre) == leaves, (k, r.id)
            for v in leaves:
                assert labels[v] == "Medium-DBDL", (k, r.id, v)
                assert g.adjacent(v) == [centre], (k, r.id, v)

    def test_rings_share_the_big_component(self, graph_cache):
        for k in (5, 6, 7):
            g = graph_cache.graph(k)
            ring_home = {
                r.id
                for r in graph_cache.reports(k)
                for ring in rings(k)
                if g.index_of(ring) in set(r.members)
            }
            assert len(ring_home) == 1
            owner = graph_cache.reports(k)[ring_home.pop()]
            assert owner.category == ("big" if k >= 5 else "medium")


def reference_category(k, order):
    # The census class from the small orders 1 and 2 and the medium order
    # formulas, without census_shape, so the reports check it.
    if k % 2:
        small, medium = 1, medium_odd_order((k + 1) // 2) if k >= 3 else None
    else:
        small, medium = 2, medium_even_order(k // 2) if k >= 4 else None
    return "small" if order == small else "medium" if order == medium else "big"


def reference_reports(k, adjacent, orbit):
    """Component reports from networkx's components and two-colouring of
    the rows ``adjacent`` lists, classifying every vertex, not one per
    orbit.  Two components lift one quotient piece exactly when they cover
    the same orbits (``orbit[v]`` for each member v), and pieces are
    numbered as they first appear."""
    vertices = enumerate_matchings(k)
    g = to_nx([adjacent(v) for v in range(len(vertices))])
    reports = []
    pieces: dict[frozenset, int] = {}
    # Distinct components have distinct smallest members.
    for members in sorted(sorted(c) for c in nx.connected_components(g)):
        bipartite = nx.is_bipartite(g.subgraph(members))
        profile = Counter(classify(vertices[i]) for i in members)
        covered = frozenset(orbit[v] for v in members)
        reports.append(
            graph_module.ComponentReport(
                id=len(reports),
                order=len(members),
                category=reference_category(k, len(members)),
                profile=dict(sorted(profile.items())),
                bipartite=bipartite,
                members=array("i", members),
                piece=pieces.setdefault(covered, len(pieces)),
            )
        )
    return reports


class TestOrbitLabels:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_reports_match_per_vertex_labels(self, k, graph_cache):
        # profile reaches no CLI output, so only this and the row
        # reference below compare it.
        g = graph_cache.graph(k)
        assert graph_cache.reports(k) == reference_reports(k, g.adjacent, g.orbit)

    def test_one_classify_call_per_orbit(self, monkeypatch):
        # One classification per orbit, of its representative's word; the
        # census reads no vertex's word and makes no matching for any
        # component.
        calls = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, call)

        graph = build_graph(9)
        counted(graph_module, "_classify_word")
        counted(graph_module.DcmGraph, "word")
        reports = components(graph)
        assert len(reports) > 175
        assert calls == {"_classify_word": 175}
        assert max(graph.orbit) + 1 == 175


# -- the quotient census against per-rank rows ------------------------------


def reference_rows(k):
    """Per-rank CSR rows (offsets, targets) of the size-k graph.

    Every row is built in rank order from the flips of its orbit's
    representative, with symmetries composed as point maps: the rows the
    graph kept before its census moved to the quotient.
    """
    orbit, element, images = orbit_tables(k)[:3]
    group = 4 * k
    perms = dihedral_permutations(2 * k)
    number = {sigma: e for e, sigma in enumerate(perms)}
    compose = [
        [number[tuple(outer[t] for t in inner)] for inner in perms]
        for outer in perms
    ]
    known = []
    for r in images[::group]:
        found = [rank(x.partner()) for x in neighbors(from_partner(unrank(k, r)))]
        known.append([(group * orbit[x], element[x]) for x in found])
    counts = array("i")
    targets = array("i")
    for i in range(len(orbit)):
        then = compose[element[i]]
        row = sorted(images[base + then[f]] for base, f in known[orbit[i]])
        counts.append(len(row))
        targets.extend(row)
    return array("q", accumulate(counts, initial=0)), targets


_references: dict[int, tuple] = {}


def assert_matches_rows(graph):
    k = graph.k
    if k not in _references:
        offsets, targets = reference_rows(k)

        def adjacent(v):
            return targets[offsets[v] : offsets[v + 1]]

        _references[k] = (
            offsets, targets, reference_reports(k, adjacent, graph.orbit)
        )
    offsets, targets, reports = _references[k]
    assert graph.order == len(offsets) - 1
    assert graph.edge_count == len(targets) // 2
    for i in range(graph.order):
        row = list(targets[offsets[i] : offsets[i + 1]])
        assert graph.degree(i) == len(row), (k, i)
        assert graph.adjacent(i) == row, (k, i)
    assert components(graph) == reports


class TestQuotient:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_the_rows(self, k):
        assert_matches_rows(build_graph(k))

    def test_matches_the_rows_at_11(self, graph_cache):
        assert_matches_rows(graph_cache.graph(11))

    def test_one_vertex_at_k1(self, graph_cache):
        # dihedral_permutations(2) repeats point maps; the group table must not.
        g = graph_cache.graph(1)
        assert (g.order, g.edge_count, g.degree(0), g.adjacent(0)) == (1, 0, 0, [])
        (r,) = graph_cache.reports(1)
        assert (r.order, r.category, r.bipartite, r.members) == (
            1, "small", True, array("i", [0])
        )

    @pytest.mark.parametrize("k", range(2, 11))
    def test_stabilised_orbits_list_each_member_once(self, k, graph_cache):
        # The rings are one orbit of two, fixed by half of the 4k symmetries.
        g = graph_cache.graph(k)
        ring = g.orbit[g.index_of(rings(k)[0])]
        assert list(g.orbit).count(ring) == 2
        members = [i for r in graph_cache.reports(k) for i in r.members]
        assert sorted(members) == list(range(g.order))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_compose_is_the_point_map_composition(self, k):
        perms = dihedral_permutations(2 * k)
        table = graph_module._compose(2 * k)
        for e, outer in enumerate(perms):
            for f, inner in enumerate(perms):
                assert perms[table[e][f]] == tuple(outer[t] for t in inner)

    def test_compose_is_a_group_at_two_points(self):
        # At n = 2 the point maps repeat, so only the axioms pin the table.
        table = graph_module._compose(2)
        elements = range(4)
        assert all(table[0][e] == table[e][0] == e for e in elements)
        assert all(0 in table[e] for e in elements)
        for a in elements:
            for b in elements:
                for c in elements:
                    assert table[table[a][b]][c] == table[a][table[b][c]]


class TestCensusMemory:
    # tracemalloc counts Python allocations only, so these bounds do not
    # move with the interpreter's resident size or the machine.
    def test_reports_retain_little_per_vertex(self):
        # Members live in one flat int array per component, and the
        # lifts of a piece share its profile dict.
        g = build_graph(10)
        components(g)  # fill the family tables first
        tracemalloc.start()
        try:
            reports = components(g)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 121
        assert retained <= 8 * g.order

    def test_quotient_retains_little_per_arc(self):
        # Each arc is one neighbor rank in a flat int array; its orbit and
        # symmetry are read off the orbit tables.  At k = 10 the rows keep
        # 5.5 bytes per arc beyond the orbit tables, where per-arc
        # (orbit, symmetry) tuples kept 44.6; the bound leaves about 45%
        # over the first.
        def retained(make):
            tracemalloc.start()
            try:
                kept = make()
                return kept, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        build_graph(10)  # fill the flip and rank tables first
        g, built = retained(lambda: build_graph(10))
        # The graph keeps the first four of them.
        _, tables = retained(lambda: orbit_tables(10)[:4])
        # One arc per neighbor of each orbit representative.
        arcs = sum(g.degree(r) for r in g.images[:: 4 * 10])
        assert arcs == 3399
        assert built - tables <= 8 * arcs

    def test_orbit_tables_peak_per_vertex(self):
        # Each image is ranked through two half-word tables and one int
        # array from numeric to canonical order (matching.word_ranker).
        # At k = 10 the scan peaked at 26.9 bytes per vertex, where a
        # sorted list of packed ints took 61.4; the bound leaves about 50%
        # over the first.
        tracemalloc.start()
        try:
            orbit = orbit_tables(10)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * len(orbit)


class TestVertices:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_rank_roundtrip(self, k, graph_cache):
        g = graph_cache.graph(k)
        ms = enumerate_matchings(k)
        by_rank = words(k)
        assert g.order == len(ms)
        for i, m in enumerate(ms):
            assert g.word(i) == by_rank[i]
            assert g.vertex(i) == m
            assert g.index_of(m) == i

    def test_one_past_the_last_rank(self, graph_cache):
        # An array or a tuple would read -1 as the last vertex; both graph
        # classes refuse it, and one past the last, with one message.
        g, ap = graph_cache.graph(4), build_almost_perfect_graph(4)
        reads = (g.word, g.vertex, g.degree, g.adjacent, ap.adjacent)
        for read in reads:
            for i in (read.__self__.order, -1):
                with pytest.raises(ValueError, match=f"rank {i} out of range for k=4"):
                    read(i)


class TestBigComponent:
    @pytest.mark.parametrize("k", range(9, 13))
    def test_order_is_the_subtraction_formula(self, k, graph_cache):
        big = [r.order for r in graph_cache.reports(k) if r.category == "big"]
        assert big == [big_component_order(k)]

    def test_orbits_with_symmetry_at_12(self, graph_cache):
        # An orbit smaller than the 48 symmetries has a non-trivial stabiliser.
        sizes = Counter(graph_cache.graph(12).orbit).values()
        assert len(sizes) == 4588
        assert sum(1 for size in sizes if size < 48) == 487


class TestBipartite:
    def test_ring_component_flag_flips_at_eight(self, graph_cache):
        for k in range(2, 8):
            g = graph_cache.graph(k)
            home = next(
                r
                for r in graph_cache.reports(k)
                if g.index_of(rings(k)[0]) in set(r.members)
            )
            assert home.bipartite
        g = graph_cache.graph(8)
        home = next(
            r
            for r in graph_cache.reports(8)
            if g.index_of(rings(8)[0]) in set(r.members)
        )
        assert not home.bipartite

    def test_two_coloring_witness(self, graph_cache):
        g = graph_cache.graph(6)
        big = max(graph_cache.reports(6), key=lambda r: r.order)
        flag, coloring = is_bipartite(g, big)
        assert flag
        assert set(coloring) == set(big.members)
        for v in big.members:
            for w in g.adjacent(v):
                assert coloring[v] != coloring[w]

    def test_odd_cycle_witness(self, graph_cache):
        g = graph_cache.graph(8)
        home = next(
            r
            for r in graph_cache.reports(8)
            if g.index_of(rings(8)[0]) in set(r.members)
        )
        flag, cycle = is_bipartite(g, home)
        assert not flag
        assert len(cycle) % 2 == 1
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in g.adjacent(a)

    def test_pair_component(self, graph_cache):
        g = graph_cache.graph(4)
        pair = next(r for r in graph_cache.reports(4) if r.category == "small")
        flag, coloring = is_bipartite(g, pair)
        assert flag
        assert sorted(coloring.values()) == [0, 1]

    def test_other_big_at_seven_is_odd(self, graph_cache):
        g = graph_cache.graph(7)
        other = next(r for r in graph_cache.reports(7) if r.order == 196)
        flag, cycle = is_bipartite(g, other)
        assert not flag
        assert len(cycle) % 2 == 1


class TestDegrees:
    def test_max_at_rings(self, graph_cache):
        for k, expected in ((2, 1), (4, 3), (6, 15)):
            g = graph_cache.graph(k)
            best, argmax = degree_stats(g)
            assert best == expected
            assert {g.vertex(i) for i in argmax} == set(rings(k))

    def test_k2_everyone_wins(self, graph_cache):
        best, argmax = degree_stats(graph_cache.graph(2))
        assert best == 1
        assert len(argmax) == 2


class TestIsomorphism:
    def test_class_counts(self, graph_cache):
        for k, expected in ISO_ROW.items():
            count, classes = isomorphism_classes(
                graph_cache.graph(k), graph_cache.reports(k)
            )
            assert count == expected
            covered = sorted(i for group in classes for i in group)
            assert covered == [r.id for r in graph_cache.reports(k)]

    def test_partition_shape_k5(self, graph_cache):
        _, classes = isomorphism_classes(graph_cache.graph(5), graph_cache.reports(5))
        assert sorted(len(group) for group in classes) == [1, 5, 15]

    def test_pair_certificates_coincide(self, graph_cache):
        g = graph_cache.graph(4)
        pairs = [r for r in graph_cache.reports(4) if r.category == "small"]
        certs = {component_certificate(g, r) for r in pairs}
        assert len(certs) == 1

    def test_star_and_path_differ(self, graph_cache):
        g5, g6 = graph_cache.graph(5), graph_cache.graph(6)
        star = next(r for r in graph_cache.reports(5) if r.category == "medium")
        path = next(r for r in graph_cache.reports(6) if r.category == "medium")
        assert component_certificate(g5, star) != component_certificate(g6, path)


class TestPieceCertificates:
    """One search per quotient piece: every other lift gets the piece's
    form only through a symmetry checked member by member."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_pieces_are_the_covered_orbits(self, k, graph_cache):
        g = graph_cache.graph(k)
        by_piece, by_cover = {}, {}
        for r in graph_cache.reports(k):
            cover = frozenset(g.orbit[v] for v in r.members)
            by_piece.setdefault(r.piece, set()).add(cover)
            by_cover.setdefault(cover, set()).add(r.piece)
        assert all(len(covers) == 1 for covers in by_piece.values())
        assert all(len(pieces) == 1 for pieces in by_cover.values())

    @pytest.mark.parametrize("k", range(1, 11))
    def test_medium_certificates_match_a_direct_search(self, k):
        g = build_graph(k)
        for r in components(g):
            if r.category == "medium":
                adj = graph_module._induced_adjacency(g, r.members)
                expected = graph_module._canonical_form(adj, [0] * len(adj))
                assert component_certificate(g, r) == expected, (k, r.id)

    @pytest.mark.parametrize("position", (0, -1))
    def test_a_lift_with_a_foreign_member_is_refused(self, monkeypatch, position):
        g = build_graph(8)
        first, second, third = [
            r for r in components(g) if r.category == "medium"
        ][:3]
        assert first.piece == second.piece == third.piece
        form = component_certificate(g, first)
        members = list(second.members)
        members[position] = third.members[position]
        mixed = replace(second, members=array("i", sorted(members)))
        searches = []
        monkeypatch.setattr(
            graph_module, "_canonical_form", lambda *args: searches.append(args)
        )
        with pytest.raises(AssertionError, match="no symmetric image"):
            component_certificate(g, mixed)
        assert searches == []
        assert component_certificate(g, second) == form


class TestMediumEvenStructure:
    def test_small_even_sizes_pass(self, graph_cache):
        for k in (4, 6, 8):
            g, reports = graph_cache.graph(k), graph_cache.reports(k)
            assert verify_medium_even_structure(g, reports) == []

    def test_rejects_odd_or_tiny(self, graph_cache):
        with pytest.raises(DomainError):
            verify_medium_even_structure(graph_cache.graph(5), graph_cache.reports(5))
        with pytest.raises(DomainError):
            verify_medium_even_structure(graph_cache.graph(2), graph_cache.reports(2))

    def test_wrong_template_fails_the_check(self, monkeypatch, graph_cache):
        # One extra edge between two leaves: every medium component's
        # shape then differs, and the check reports the first six.
        real = graph_module._medium_even_template

        def template(k):
            adj = real(k)
            first, second = k - 2, k
            adj[first].append(second)
            adj[second].append(first)
            return adj

        monkeypatch.setattr(graph_module, "_medium_even_template", template)
        (result,) = run_checks(
            8, 8, names=("medium-even-structure",), cache=graph_cache
        )
        problems = result.detail.split("; ")
        assert result.status == "fail"
        assert problems[0] == (
            "k=8: component 2: shape differs from the chord-decorated path"
        )
        assert len(problems) == 6

    def test_role_problems_name_the_matching(self, monkeypatch, graph_cache):
        # With every degree read as 2, no path member counts a leaf and no
        # leaf has degree 1; each problem names the member's matching.
        g, reports = graph_cache.graph(4), graph_cache.reports(4)
        monkeypatch.setattr(graph_module.DcmGraph, "degree", lambda self, i: 2)
        (problem,) = verify_medium_even_structure(g, reports)
        (medium,) = [r for r in reports if r.category == "medium"]
        for v in medium.members:
            m = g.vertex(v)
            if classify(m) == LABEL_PATH_MEMBER:
                assert f"member {m} has 0 leaves" in problem
            else:
                assert f"leaf {m} is not degree 1" in problem


# -- canonical search against an unpruned reference and VF2 ----------------


def unpruned_canonical_form(adj, colors):
    """The canonical search without twin pruning: it branches on every
    vertex of the first ambiguous cell."""
    colors = graph_module._refine(adj, colors)
    groups = {}
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
    for v in ambiguous[0]:
        branched = list(colors)
        branched[v] = len(adj)
        candidate = unpruned_canonical_form(adj, branched)
        if best is None or candidate < best:
            best = candidate
    return best


def induced(cache, k, report):
    return graph_module._induced_adjacency(cache.graph(k), report.members)


def relabelled(adj, rng):
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    out = [[] for _ in adj]
    for v, row in enumerate(adj):
        out[perm[v]] = sorted(perm[w] for w in row)
    return out


def random_regular_adjacencies():
    """40 seeded random 3- and 4-regular graphs on 8 to 12 vertices."""
    rng = random.Random(2014)
    out = []
    for i in range(40):
        d = 3 + i % 2
        n = rng.choice([n for n in range(8, 13) if n * d % 2 == 0])
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
        out.append([sorted(g[v]) for v in range(n)])
    return out


def to_nx(adj):
    g = nx.empty_graph(len(adj))
    g.add_edges_from((v, w) for v, row in enumerate(adj) for w in row)
    return g


class TestCanonicalForm:
    def test_pruning_keeps_every_component_form(self, graph_cache):
        for k in range(1, 11):
            graphs = [
                induced(graph_cache, k, r)
                for r in graph_cache.reports(k)
                if r.category in ("small", "medium")
            ]
            if k % 2 == 0 and k >= 4:
                graphs.append(graph_module._medium_even_template(k))
            for adj in graphs:
                colors = [0] * len(adj)
                assert graph_module._canonical_form(
                    adj, colors
                ) == unpruned_canonical_form(adj, colors)

    def test_regular_graphs(self):
        # Refinement cannot split a regular graph, so the search alone
        # decides its form: a pruning rule that drops a needed branch
        # gives a different or label-dependent form here.
        rng = random.Random(7)
        pool = []
        for adj in random_regular_adjacencies():
            colors = [0] * len(adj)
            form = graph_module._canonical_form(adj, colors)
            assert form == unpruned_canonical_form(adj, colors)
            moved = relabelled(adj, rng)
            assert graph_module._canonical_form(moved, colors) == form
            pool += [(to_nx(adj), form), (to_nx(moved), form)]
        for i, (a, form_a) in enumerate(pool):
            for b, form_b in pool[i + 1:]:
                assert (form_a == form_b) == nx.is_isomorphic(a, b)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_vf2_reproduces_the_class_table(self, k, graph_cache):
        classes = []
        for r in graph_cache.reports(k):
            h = to_nx(induced(graph_cache, k, r))
            for rep, ids in classes:
                if len(rep) == len(h) and nx.is_isomorphic(rep, h):
                    ids.append(r.id)
                    break
            else:
                classes.append((h, [r.id]))
        assert len(classes) == ISO_CLASSES_BY_K[k]
        _, certified = isomorphism_classes(graph_cache.graph(k), graph_cache.reports(k))
        assert sorted(ids for _, ids in classes) == certified

    @pytest.mark.parametrize("k", (4, 6, 8, 10))
    def test_vf2_matches_the_medium_even_template(self, k, graph_cache):
        template = to_nx(graph_module._medium_even_template(k))
        mediums = [r for r in graph_cache.reports(k) if r.category == "medium"]
        assert mediums
        for r in mediums:
            assert nx.is_isomorphic(to_nx(induced(graph_cache, k, r)), template)


class TestSearchSize:
    """Twin pruning keeps the search small on the even medium shape,
    where the unpruned search visits about 2^(k-2) leaves."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # The search recurses through the module global, so the wrapper
        # sees every call.
        count = [0]
        search = graph_module._canonical_form

        def counted(adj, colors):
            count[0] += 1
            return search(adj, colors)

        monkeypatch.setattr(graph_module, "_canonical_form", counted)
        return count

    @pytest.mark.parametrize("k", (8, 10))
    def test_even_medium_components(self, calls, k, graph_cache):
        mediums = [r for r in graph_cache.reports(k) if r.category == "medium"]
        assert mediums
        # Certificates made by earlier tests would be read back unsearched.
        graph_cache.graph(k).certificates.clear()
        searched = set()
        for r in mediums:
            calls[0] = 0
            component_certificate(graph_cache.graph(k), r)
            # The first lift of each piece is searched, every other lift
            # is mapped onto it without a search.
            if r.piece in searched:
                assert calls[0] == 0
            else:
                assert 0 < calls[0] <= 2 * k
                searched.add(r.piece)
        assert len(searched) < len(mediums)

    @pytest.mark.parametrize("k", (6, 8))
    def test_each_component_certified_once(self, monkeypatch, k):
        # Top-level searches only: the search recurses through the global.
        entries, depth = [0], [0]
        search = graph_module._canonical_form

        def counted(adj, colors):
            entries[0] += depth[0] == 0
            depth[0] += 1
            try:
                return search(adj, colors)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(graph_module, "_canonical_form", counted)
        g = build_graph(k)
        reports = components(g)
        isomorphism_classes(g, reports)
        assert verify_medium_even_structure(g, reports) == []
        by_order = Counter(r.order for r in reports)
        shared = [r for r in reports if r.order > 2 and by_order[r.order] > 1]
        # One search per quotient piece among the components of a shared
        # order above 2, then one for the medium template; the mediums
        # are read back.
        pieces = {r.piece for r in shared}
        assert len(shared) > len(pieces)
        assert entries[0] == len(pieces) + 1

    @pytest.mark.parametrize("k", (8, 10))
    def test_medium_even_template(self, calls, k):
        adj = graph_module._medium_even_template(k)
        graph_module._canonical_form(adj, [0] * len(adj))
        assert calls[0] <= 2 * k


class TestAlmostPerfect:
    def test_smallest_is_a_triangle(self):
        ap = build_almost_perfect_graph(1)
        assert ap.order == 3
        assert sum(len(ap.adjacent(v)) for v in range(ap.order)) == 2 * 3
        assert ap.component_count == 1
        assert ap.rings_form_cycle

    def test_vertex_counts(self):
        for k, expected in ((1, 3), (2, 10), (3, 35), (4, 126)):
            assert build_almost_perfect_graph(k).order == expected

    def test_connected_with_ring_cycle(self):
        for k in (2, 3, 4):
            ap = build_almost_perfect_graph(k)
            assert ap.component_count == 1
            assert ap.rings_form_cycle
            # A ring joins cyclically adjacent points only: exactly one
            # vertex per skipped point.
            n = 2 * k + 1
            skips = [
                skip
                for skip, edges in ap.vertices
                if all((b - a) % n in (1, n - 1) for a, b in edges)
            ]
            assert sorted(skips) == list(range(1, n + 1))

    def test_edge_counts(self):
        expected = {1: 3, 2: 25, 3: 161, 4: 1071, 5: 6677, 6: 41535}
        for k, count in expected.items():
            ap = build_almost_perfect_graph(k)
            assert sum(len(ap.adjacent(v)) for v in range(ap.order)) == 2 * count

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

    @pytest.mark.parametrize("k", range(1, 10))
    def test_piece_count_finds_every_component(self, k, graph_cache):
        # The variant is connected at every size it is built for, so the
        # compatibility graph's rows, as bitsets, give the count more
        # than one piece to find (649 at k = 9).
        g = graph_cache.graph(k)
        rows = [sum(1 << w for w in g.adjacent(v)) for v in range(g.order)]
        pieces = graph_module._piece_count(rows.__getitem__, len(rows))
        assert pieces == len(graph_cache.reports(k))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_vertices_hold_canonical_edges(self, k):
        # The build relabels each matching's edges without re-sorting them.
        for _, edges in build_almost_perfect_graph(k).vertices:
            assert canonical_edges(edges) == edges

    def test_bad_size(self):
        with pytest.raises(DomainError):
            build_almost_perfect_graph(0)
