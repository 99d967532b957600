"""Matching core: canonical form, validation, enumeration, label maps."""

from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import given, strategies as st

from dcmatch.compat import neighbors_bruteforce
from dcmatch.errors import (
    CrossingError,
    DomainError,
    LabelError,
    MatchingError,
    ParseError,
    ResourceLimitError,
)
from dcmatch.graph import build_almost_perfect_graph, build_graph
from dcmatch.matching import (
    Matching,
    canonical_edges,
    enumerate_matchings,
    from_partner,
    insert,
    parse_matching,
    partner_word,
    rank,
    unrank,
    validate,
    word_index,
    word_partners,
    word_ranker,
    words,
)
from reference import (
    is_crossing,
    reference_insert,
    reference_parse,
    reference_validate,
)
from symmetries import dihedral_permutations, permute, reflect, rotate

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

# All five matchings on 6 points, in canonical enumeration order.
EXPECTED_K3 = [
    "1-2,3-4,5-6",
    "1-2,3-6,4-5",
    "1-4,2-3,5-6",
    "1-6,2-3,4-5",
    "1-6,2-5,3-4",
]


def all_perfect_matchings(points):
    """Every perfect matching of the labels, crossing or not."""
    if not points:
        yield ()
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1 :]
        for tail in all_perfect_matchings(rest):
            yield ((first, points[j]),) + tail


def matchings_strategy(max_k=6):
    return st.integers(1, max_k).flatmap(
        lambda k: st.sampled_from(enumerate_matchings(k))
    )


class TestCrossing:
    def test_interleaved_pairs_cross(self):
        assert is_crossing((1, 3), (2, 4))
        assert is_crossing((2, 4), (1, 3))
        assert is_crossing((1, 5), (3, 8))

    def test_nested_and_separated_do_not_cross(self):
        assert not is_crossing((1, 4), (2, 3))
        assert not is_crossing((1, 2), (3, 4))
        assert not is_crossing((2, 3), (1, 4))

    def test_shared_endpoint_is_not_a_crossing(self):
        assert not is_crossing((1, 3), (3, 5))
        assert not is_crossing((1, 3), (1, 5))

    def test_unordered_pairs_accepted(self):
        assert is_crossing((3, 1), (4, 2))


class TestValidate:
    def test_canonical_ordering(self):
        m = validate([(6, 1), (5, 2), (4, 3)])
        assert m.edges == ((1, 6), (2, 5), (3, 4))
        assert str(m) == "1-6,2-5,3-4"

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            validate([(1, 2), (3, 5)])
        with pytest.raises(LabelError):
            validate([(0, 1), (2, 3)])

    def test_duplicate_label(self):
        with pytest.raises(LabelError):
            validate([(1, 2), (2, 3)])

    def test_self_loop(self):
        with pytest.raises(LabelError):
            validate([(1, 1), (2, 3)])

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2, 3)],
            [(1,)],
            [(1.0, 2.0)],
            [(1, "2")],
            [(True, 2)],
            [(1, True)],
            [(0.5, 2)],
        ],
    )
    def test_edge_that_is_not_an_integer_pair(self, edges):
        with pytest.raises(LabelError, match="pair of integer labels"):
            validate(edges)

    def test_crossing_rejected_with_witness(self):
        with pytest.raises(CrossingError) as info:
            validate([(1, 3), (2, 4)])
        seen = {info.value.first, info.value.second}
        assert seen == {(1, 3), (2, 4)}

    def test_crossing_in_larger_matching(self):
        with pytest.raises(CrossingError):
            validate([(1, 5), (2, 3), (4, 7), (6, 8)])


class TestParse:
    def test_round_trip(self):
        for text in EXPECTED_K3:
            assert str(parse_matching(text)) == text

    def test_unsorted_input_is_canonicalized(self):
        assert str(parse_matching("5-6,2-1,4-3")) == "1-2,3-4,5-6"

    @pytest.mark.parametrize("bad", ["", "1", "1-2-3", "a-b", "1-2,,3-4", "1,2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_matching(bad)

    def test_parse_validates(self):
        with pytest.raises(CrossingError):
            parse_matching("1-3,2-4")


def outcome(f, *args):
    """What ``f`` returns, or the type, message and witness it raises."""
    try:
        return f(*args)
    except MatchingError as exc:
        return type(exc), str(exc), getattr(exc, "first", None), getattr(
            exc, "second", None
        )


@st.composite
def edge_lists(draw):
    """Edge lists near a matching on 2k points: shuffled, with pairs
    reversed or given as lists, points paired at random (so crossings
    occur), labels replaced by any in -2..2k + 2 (out of range, repeated,
    a point paired with itself), and an edge dropped or added."""
    k = draw(st.integers(1, 7))
    n = 2 * k
    if draw(st.booleans()):
        edges = list(draw(st.sampled_from(enumerate_matchings(k))).edges)
    else:
        points = draw(st.permutations(range(1, n + 1)))
        edges = list(zip(points[::2], points[1::2]))
    edges = draw(st.permutations(edges))
    label = st.integers(-2, n + 2)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, k - 1))
        a, b = edges[i]
        edges[i] = (draw(label), b) if draw(st.booleans()) else (a, draw(label))
    if draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    if draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), (draw(label), draw(label)))
    pairs = [
        e[::-1] if swap else e
        for e, swap in zip(edges, draw(st.lists(st.booleans(), min_size=len(edges),
                                                max_size=len(edges))))
    ]
    if draw(st.booleans()):
        pairs = [list(e) for e in pairs]
    return pairs


class TestValidateOracle:
    """validate against its sorted-pairs reference: an equal matching, or
    the same exception type, message and crossing witness."""

    @given(edge_lists())
    def test_matches_the_reference(self, edges):
        assert outcome(validate, edges) == outcome(reference_validate, edges)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_pairing_matches_the_reference(self, k):
        # Every pairing of 2k points, crossing or not, in canonical order
        # and reversed.
        for pairing in all_perfect_matchings(tuple(range(1, 2 * k + 1))):
            for edges in (pairing, [e[::-1] for e in reversed(pairing)]):
                assert outcome(validate, edges) == outcome(reference_validate, edges)

    @given(
        st.lists(st.sampled_from("0123456789-, x"), max_size=24).map("".join)
        | edge_lists().map(lambda edges: ",".join(f"{a}-{b}" for a, b in edges))
    )
    def test_parse_matches_the_reference(self, text):
        assert outcome(parse_matching, text) == outcome(reference_parse, text)


class TestEnumerate:
    def test_k3_exact(self):
        assert [str(m) for m in enumerate_matchings(3)] == EXPECTED_K3

    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts_are_catalan(self, k):
        assert len(enumerate_matchings(k)) == CATALAN[k]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_brute_force_filter(self, k):
        brute = set()
        for pairing in all_perfect_matchings(tuple(range(1, 2 * k + 1))):
            if all(
                not is_crossing(e, f)
                for e, f in itertools.combinations(pairing, 2)
            ):
                brute.add(validate(pairing))
        assert brute == set(enumerate_matchings(k))

    def test_all_outputs_valid_and_sorted(self):
        ms = enumerate_matchings(5)
        assert ms == sorted(ms, key=lambda m: m.edges)
        assert len(set(ms)) == len(ms)
        for m in ms:
            validate(m.edges)

    def test_memo_needs_no_cycle_pass(self):
        # The run memo is emptied before the return, so a collection
        # finds only the recursive run closure (a few objects), not the
        # thousands of memoised lists and edge tuples.
        gc.collect()
        gc.disable()
        try:
            enumerate_matchings(8)
            found = gc.collect()
        finally:
            gc.enable()
        assert found <= 10

    def test_out_of_range(self, monkeypatch):
        monkeypatch.delenv("DCM_MAX_K", raising=False)
        with pytest.raises(ResourceLimitError):
            enumerate_matchings(13)
        # The cap itself is in range.
        monkeypatch.setenv("DCM_MAX_K", "3")
        assert len(enumerate_matchings(3)) == 5
        with pytest.raises(ResourceLimitError):
            enumerate_matchings(4)
        with pytest.raises(DomainError):
            enumerate_matchings(0)


@pytest.mark.parametrize(
    "entry, takes_k",
    [
        (enumerate_matchings, True),
        (lambda k: neighbors_bruteforce(from_partner(unrank(k, 0))), False),
        (build_graph, True),
        (build_almost_perfect_graph, True),
    ],
    ids=[
        "enumerate_matchings",
        "neighbors_bruteforce",
        "build_graph",
        "build_almost_perfect_graph",
    ],
)
def test_every_entry_point_keeps_the_cap(monkeypatch, entry, takes_k):
    entry(4)  # work cached under the default cap must not skip the guard
    monkeypatch.setenv("DCM_MAX_K", "3")
    with pytest.raises(ResourceLimitError):
        entry(4)
    if takes_k:
        with pytest.raises(DomainError):
            entry(0)


class TestRelabelings:
    def test_rotate_example(self):
        m = parse_matching("1-2,3-4,5-6")
        assert str(rotate(m, 1)) == "1-6,2-3,4-5"

    def test_rotate_full_turn_is_identity(self):
        m = parse_matching("1-8,2-3,4-7,5-6")
        assert rotate(m, 8) == m
        assert rotate(m, -8) == m

    @given(matchings_strategy(), st.integers(-20, 20), st.integers(-20, 20))
    def test_rotate_composes(self, m, s, t):
        assert rotate(rotate(m, s), t) == rotate(m, s + t)

    @given(matchings_strategy())
    def test_reflect_is_an_involution(self, m):
        assert reflect(reflect(m)) == m

    def test_reflect_example(self):
        assert str(reflect(parse_matching("1-2,3-6,4-5"))) == "1-4,2-3,5-6"

    @given(matchings_strategy())
    def test_relabelings_preserve_validity(self, m):
        validate(rotate(m, 3).edges)
        validate(reflect(m).edges)


class TestRanking:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_rank_is_enumeration_index(self, k):
        for i, m in enumerate(enumerate_matchings(k)):
            assert rank(m.partner()) == i

    @pytest.mark.parametrize("k", range(1, 10))
    def test_unrank_then_rank_is_identity(self, k):
        for i in range(CATALAN[k]):
            p = unrank(k, i)
            assert rank(p) == i
            assert validate(from_partner(p).edges).k == k

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(3, 5)
        with pytest.raises(ValueError):
            unrank(3, -1)


def word_of(p):
    """Oracle: the Dyck word read point by point off a partner table."""
    n = len(p) - 1
    return sum(1 << (n - t) for t in range(1, n + 1) if p[t] > t)


class TestWords:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_word_at_each_rank(self, k):
        found = words(k)
        assert len(found) == CATALAN[k]
        for r, w in enumerate(found):
            assert w == word_of(unrank(k, r)), (k, r)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_word_partners_decodes_each_rank(self, k):
        for r, w in enumerate(words(k)):
            assert word_partners(w, k) == unrank(k, r), (k, r)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_matching_word_at_each_rank(self, k):
        # Read off the edges in canonical order: bit t, from the top, is
        # set at each edge's smaller end.
        n = 2 * k
        for r, (m, w) in enumerate(zip(enumerate_matchings(k), words(k))):
            assert sum(1 << (n - a) for a, _ in m.edges) == w, (k, r)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_partner_word_inverts_word_partners(self, k):
        for r, w in enumerate(words(k)):
            assert partner_word(unrank(k, r)) == w, (k, r)
            assert partner_word(word_partners(w, k)) == w, (k, r)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_partner_tables_sort_in_canonical_order(self, k):
        # verification's sampled extended members rest on this.
        found = words(k)
        assert sorted(found, key=lambda w: word_partners(w, k)) == list(found)

    def test_canonical_order_is_not_numeric_order(self):
        found = words(4)
        a = rank(parse_matching("1-6,2-5,3-4,7-8").partner())
        b = rank(parse_matching("1-8,2-3,4-5,6-7").partner())
        assert a < b
        assert (found[a], found[b]) == (0b11100010, 0b11010100)


class TestWordIndex:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_index_maps_numeric_order_onto_positions(self, k):
        high, low = word_index(k)
        assert len(high) == len(low) == 2**k
        half = 2**k - 1
        ws = sorted(words(k))
        assert [high[w >> k] + low[w & half] for w in ws] == list(range(len(ws)))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_ranker_agrees_with_rank(self, k):
        # Oracle: each word decoded to its partner table and ranked there.
        by_rank = words(k)
        ranked = word_ranker(k, by_rank)
        assert ranked(by_rank) == list(range(CATALAN[k]))
        ws = sorted(by_rank)
        assert ranked(ws) == [rank(word_partners(w, k)) for w in ws]


class TestSymmetries:
    # Oracle: label arithmetic on the edge list, no permutation tables.
    @staticmethod
    def expected(m, s, mirrored):
        n = m.n_points
        edges = m.edges
        if mirrored:
            edges = [(n + 1 - a, n + 1 - b) for a, b in edges]
        return Matching(
            canonical_edges(((a - 1 + s) % n + 1, (b - 1 + s) % n + 1) for a, b in edges)
        )

    @pytest.mark.parametrize("k", range(1, 8))
    def test_permutations_match_rotate_and_reflect(self, k):
        n = 2 * k
        perms = dihedral_permutations(n)
        assert len(perms) == 2 * n
        for m in enumerate_matchings(k):
            p = m.partner()
            for s in range(n):
                image = from_partner(permute(p, perms[s]))
                assert image == rotate(m, s) == self.expected(m, s, False)
                image = from_partner(permute(p, perms[n + s]))
                assert image == rotate(reflect(m), s) == self.expected(m, s, True)


class TestInsertRemove:
    def test_insert_examples(self):
        host = parse_matching("1-2")
        assert str(insert(host, parse_matching("1-4,2-3"), 1)) == "1-6,2-5,3-4"
        assert str(insert(host, parse_matching("1-2,3-4"), 2)) == "1-2,3-4,5-6"

    def test_insert_at_zero_shifts_host(self):
        host = parse_matching("1-2")
        assert str(insert(host, parse_matching("1-2"), 0)) == "1-2,3-4"
        assert str(insert(host, parse_matching("1-2"), 1)) == "1-4,2-3"

    def test_gap_range_checked(self):
        host = parse_matching("1-2,3-4")
        inner = parse_matching("1-2")
        with pytest.raises(ValueError):
            insert(host, inner, 5)
        with pytest.raises(ValueError):
            insert(host, inner, -1)

    def test_remove_inverts_insert(self):
        # The window gap+1..gap+4 is matched within itself and holds
        # inner shifted by gap; the points outside it, renumbered in
        # order, hold the host.
        for host in enumerate_matchings(3):
            for inner in enumerate_matchings(2):
                for gap in range(0, 7):
                    p = insert(host, inner, gap).partner()
                    window = range(gap + 1, gap + 5)
                    assert [p[t] - gap for t in window] == inner.partner()[1:]
                    outside = [t for t in range(1, 11) if t not in window]
                    at = {t: i for i, t in enumerate(outside, 1)}
                    assert [at[p[t]] for t in outside] == host.partner()[1:]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_insert_matches_the_reference(self, k):
        inners = enumerate_matchings(1) + enumerate_matchings(2)
        for host in enumerate_matchings(k):
            for inner in inners:
                for gap in range(2 * k + 1):
                    assert insert(host, inner, gap) == reference_insert(
                        host, inner, gap
                    )

    @given(matchings_strategy(4), matchings_strategy(3), st.integers(0, 8))
    def test_insert_always_valid(self, host, inner, gap):
        if gap <= host.n_points:
            validate(insert(host, inner, gap).edges)
