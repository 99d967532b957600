"""Adjacency, flips, and flip-partition enumeration."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from bisect import bisect_left
from itertools import chain, combinations, product

import pytest

from dcmatch.compat import (
    _flips,
    _pair_tables,
    _patterns,
    chord_tables,
    flip_group,
    neighbor_words,
    neighbors,
    neighbors_bruteforce,
    set_bits,
)
from dcmatch.counting import catalan, riordan
from dcmatch.families import BLOCK
from dcmatch.matching import (
    enumerate_matchings,
    from_partner,
    insert,
    parse_matching,
    partner_word,
    validate,
    word_partners,
)
from reference import canonical_edges, is_crossing, unrank
from symmetries import reflect, rotate

RING4 = parse_matching("1-2,3-4,5-6,7-8")

# A 16-point matching containing a flippable group that extends to no
# flip partition: the two edges 4-5 and 6-7 can pair off together, but
# 14-15 is left alone in its gap.
WIDE = parse_matching("1-2,3-8,4-5,6-7,9-10,11-12,13-16,14-15")


def adjacent(a, b):
    # Adjacency by the flip route, which the oracle tests check in full.
    return b in neighbors(a)


def alternating_cycles(m1, m2):
    """Cycles of the union of two edge-disjoint matchings, each from its
    smallest point, following the first matching first."""
    p1, p2 = m1.partner(), m2.partner()
    seen, cycles = set(), []
    for start in range(1, len(p1)):
        if start not in seen:
            cycle, t = [], start
            while not cycle or t != start:
                cycle += [t, p1[t]]
                t = p2[p1[t]]
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return cycles


def flip_groups(m, x):
    """The edges of ``m`` on each alternating cycle of ``m`` and ``x``,
    sorted: the flip partition that takes ``m`` to ``x``."""
    return sorted(
        canonical_edges(zip(c[::2], c[1::2])) for c in alternating_cycles(m, x)
    )


class TestPredicate:
    """Adjacency examples, read off the flip route."""

    def test_simple_pairs(self):
        a = parse_matching("1-2,3-4")
        b = parse_matching("1-4,2-3")
        assert adjacent(a, b)
        assert adjacent(b, a)

    def test_shared_edge_blocks(self):
        a = parse_matching("1-2,3-4,5-6")
        b = parse_matching("1-2,3-6,4-5")
        assert not adjacent(a, b)

    def test_self_incompatible(self):
        assert not adjacent(RING4, RING4)

    def test_crossing_blocks(self):
        a = parse_matching("1-2,3-6,4-5")
        b = parse_matching("1-6,2-5,3-4")
        # 3-6 and 2-5 cross
        assert not adjacent(a, b)

    def test_rings_are_adjacent(self):
        for k in (2, 3, 4, 5):
            ms = enumerate_matchings(k)
            r1 = parse_matching(
                ",".join(f"{i}-{i+1}" for i in range(1, 2 * k, 2))
            )
            r2 = [
                m
                for m in ms
                if m != r1
                and all((a % (2 * k)) + 1 == b or (a, b) == (1, 2 * k)
                       for a, b in m.edges)
            ]
            assert len(r2) == 1
            assert adjacent(r1, r2[0])

    @pytest.mark.parametrize("k", range(1, 5))
    def test_symmetry(self, k):
        ms = enumerate_matchings(k)
        for a, b in combinations(ms, 2):
            assert adjacent(a, b) == adjacent(b, a)


class TestCycles:
    def test_single_cycle(self):
        a = RING4
        b = parse_matching("1-8,2-3,4-5,6-7")
        assert alternating_cycles(a, b) == [(1, 2, 3, 4, 5, 6, 7, 8)]

    def test_two_cycles(self):
        a = RING4
        b = parse_matching("1-4,2-3,5-8,6-7")
        assert alternating_cycles(a, b) == [(1, 2, 3, 4), (5, 6, 7, 8)]

    def test_cycle_points_partition_the_circle(self):
        a = parse_matching("1-2,3-6,4-5")
        b = parse_matching("1-6,2-5,3-4")
        cycles = alternating_cycles(a, b)
        assert sorted(t for c in cycles for t in c) == list(range(1, 7))


class FlipError(ValueError):
    """A proposed flip group or flip partition is not valid for the matching."""


def _gap_index(support, t):
    # Which open interval between consecutive support points holds t; the
    # two unbounded ends belong to the same wrap-around gap.
    return bisect_left(support, t) % len(support)


def _single_gap(support, points):
    gaps = {_gap_index(support, t) for t in points}
    return len(gaps) == 1


def _check_flippable(m, edges):
    """None if the edge group is flippable within m, else the reason."""
    group = set(edges)
    if len(group) < 2:
        return "a flippable group needs at least two edges"
    if not group <= set(m.edges):
        return "group contains edges not in the matching"
    support = sorted(chain.from_iterable(edges))
    s = support
    even = all(
        (s[i], s[i + 1]) in group for i in range(0, len(s), 2)
    )
    odd = all(
        (s[i], s[i + 1]) in group for i in range(1, len(s) - 1, 2)
    ) and (s[0], s[-1]) in group
    if not (even or odd):
        return "group does not pair consecutive support points"
    for e in m.edges:
        if e in group:
            continue
        if _gap_index(support, e[0]) != _gap_index(support, e[1]):
            return f"edge {e} enters the support hull"
    return None


def flip(m, groups):
    """Apply a full flip partition to ``m``, checking every group and every
    pair of groups first: the reference the partition enumeration is
    checked against.

    ``groups`` lists the partition's edge groups; together they must hold
    every edge of ``m`` once.
    """
    parts = [canonical_edges(g) for g in groups]
    claimed = [e for part in parts for e in part]
    if len(claimed) != len(set(claimed)):
        raise FlipError("flip groups overlap")
    if set(claimed) != set(m.edges):
        raise FlipError("flip groups must cover the matching exactly")
    for part in parts:
        reason = _check_flippable(m, part)
        if reason is not None:
            raise FlipError(reason)
    # Groups may be flippable one by one yet have interleaving hulls, e.g.
    # {1-2,5-6} and {3-4,7-8} in the 8-ring; each must sit inside a single
    # gap of every other.
    supports = [sorted(chain.from_iterable(part)) for part in parts]
    for sa, sb in combinations(supports, 2):
        if not _single_gap(sa, tuple(sb)):
            raise FlipError(
                f"group hulls interleave: supports {sa} and {sb}"
            )
    p = m.partner()
    for support in supports:
        flip_group(p, support)
    return from_partner(p)


def is_flippable_set(m, edges):
    """Whether the edges form a flippable group inside ``m``, by the
    check ``flip`` applies to each of its groups."""
    return _check_flippable(m, canonical_edges(edges)) is None


class TestFlippableSets:
    def test_adjacent_pair_is_flippable(self):
        assert is_flippable_set(RING4, [(1, 2), (3, 4)])

    def test_far_pair_is_flippable_but_unextendable(self):
        assert is_flippable_set(RING4, [(1, 2), (5, 6)])
        for x in neighbors(RING4):
            assert ((1, 2), (5, 6)) not in flip_groups(RING4, x)

    def test_singleton_rejected(self):
        assert not is_flippable_set(RING4, [(1, 2)])

    def test_hull_violation_rejected(self):
        # The group's support is 1, 3, 4, 6; 2-5 has its ends in two
        # different gaps of it, so it enters the group's hull.
        m = parse_matching("1-6,2-5,3-4")
        assert not is_flippable_set(m, [(1, 6), (3, 4)])

    def test_wide_example(self):
        group = ((1, 2), (3, 8), (13, 16))
        assert is_flippable_set(WIDE, group)
        for x in neighbors(WIDE):
            assert group not in flip_groups(WIDE, x)


class TestFlip:
    def test_whole_ring_flip(self):
        other = flip(RING4, [RING4.edges])
        assert str(other) == "1-8,2-3,4-5,6-7"

    def test_partitioned_flip(self):
        out = flip(RING4, [[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert str(out) == "1-4,2-3,5-8,6-7"

    def test_flip_overlap_rejected(self):
        with pytest.raises(FlipError):
            flip(RING4, [[(1, 2), (3, 4)], [(3, 4), (5, 6), (7, 8)]])

    def test_flip_cover_required(self):
        with pytest.raises(FlipError):
            flip(RING4, [[(1, 2), (3, 4)]])

    def test_singleton_group_rejected(self):
        with pytest.raises(FlipError):
            flip(RING4, [[(1, 2), (3, 4)], [(5, 6)], [(7, 8)]])

    def test_interleaved_hulls_rejected(self):
        with pytest.raises(FlipError):
            flip(RING4, [[(1, 2), (5, 6)], [(3, 4), (7, 8)]])

    def test_flip_gives_a_neighbor(self):
        for m in enumerate_matchings(4):
            for x in neighbors(m):
                out = flip(m, flip_groups(m, x))
                validate(out.edges)
                assert out in neighbors_bruteforce(m)


class TestPartitions:
    def test_ring4_partitions(self):
        shapes = sorted(tuple(flip_groups(RING4, x)) for x in neighbors(RING4))
        assert shapes == [
            (((1, 2), (3, 4)), ((5, 6), (7, 8))),
            (((1, 2), (3, 4), (5, 6), (7, 8)),),
            (((1, 2), (7, 8)), ((3, 4), (5, 6))),
        ]

    def test_unique_neighbor_example(self):
        m = parse_matching("1-8,2-3,4-7,5-6")
        x = parse_matching("1-2,3-8,4-5,6-7")
        assert neighbors(m) == {x}
        assert flip(m, flip_groups(m, x)) == x

    def test_isolated_matchings(self):
        assert neighbors(parse_matching("1-2")) == set()
        assert neighbors(parse_matching("1-6,2-5,3-4")) == set()

    def test_partition_count_equals_neighbor_count(self):
        # Every brute-force neighbor is the flip of the edges of m on its
        # alternating cycles, one group per cycle, and there are as many
        # as flip partitions.  flip re-checks each group on its own and
        # the groups' hulls pairwise; the brute-force scan shares no code
        # with the enumeration.
        for k in range(1, 7):
            for m in enumerate_matchings(k):
                around = neighbors_bruteforce(m)
                assert len(around) == len(neighbors(m))
                for x in around:
                    assert flip(m, flip_groups(m, x)) == x


class TestOracleAgreement:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_neighbors_match_bruteforce(self, k):
        for m in enumerate_matchings(k):
            assert neighbors(m) == neighbors_bruteforce(m)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_bruteforce_matches_edge_predicate(self, k):
        # Oracle: pairwise edge comparison with is_crossing, no bitmasks.
        ms = enumerate_matchings(k)
        for m in ms:
            mine = set(m.edges)
            expected = {
                m2
                for m2 in ms
                if not mine & set(m2.edges)
                and not any(is_crossing(e, f) for e in mine for f in m2.edges)
            }
            assert neighbors_bruteforce(m) == expected

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bruteforce_is_dihedrally_equivariant(self, k):
        # The geometric fact the orbit-driven graph build rests on,
        # checked on the chord-mask route alone.
        for m in enumerate_matchings(k):
            around = neighbors_bruteforce(m)
            for s in range(2 * k):
                assert neighbors_bruteforce(rotate(m, s)) == {
                    rotate(x, s) for x in around
                }
            assert neighbors_bruteforce(reflect(m)) == {reflect(x) for x in around}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_degree_counts_the_neighbors(self, k):
        for m in enumerate_matchings(k):
            assert len(word_neighbors(m.partner())) == len(neighbors(m)) == len(
                neighbors_bruteforce(m)
            )

    @pytest.mark.parametrize("k", range(1, 7))
    def test_degree_after_splicing_a_block(self, k):
        for host in enumerate_matchings(k):
            for gap in range(2 * k + 1):
                m = insert(host, BLOCK, gap)
                assert len(word_neighbors(m.partner())) == len(neighbors(m)) == len(
                    neighbors_bruteforce(m)
                )

    def test_ring_degrees(self):
        # Ring degrees follow the closed-form row 1, 1, 3, 6, 15.
        for k, deg in [(2, 1), (3, 1), (4, 3), (5, 6), (6, 15)]:
            ring = validate(
                [(i, i + 1) for i in range(1, 2 * k, 2)]
            )
            assert len(neighbors(ring)) == deg, f"k={k}"


class TestChordIndex:
    def test_set_bits(self):
        assert set_bits(0) == []
        assert set_bits(0b1011) == [0, 1, 3]
        assert set_bits(1 << 200 | 1 << 70) == [70, 200]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_reach_lists_each_chords_blockers(self, k):
        # Oracle: pairwise edge comparison with is_crossing, no bitmasks.
        ms, reach = _pair_tables(k)
        chords = list(chord_tables(2 * k)[0])
        assert len(reach) == len(chords)
        for c, bitset in zip(chords, reach):
            blockers = {
                i
                for i, m in enumerate(ms)
                if any(e == c or is_crossing(e, c) for e in m.edges)
            }
            assert set(set_bits(bitset)) == blockers

    @pytest.mark.parametrize("n", range(2, 17))
    def test_crossing_masks_match_the_pairwise_test(self, n):
        eindex, cross = chord_tables(n)
        chords = list(eindex)
        points = range(1, n + 1)
        assert chords == [(a, b) for a in points for b in points if a < b]
        assert list(eindex.values()) == list(range(len(chords)))
        for e, mask in zip(chords, cross):
            assert mask == sum(
                1 << eindex[f] for f in chords if is_crossing(e, f)
            )

    def test_cache_keeps_the_last_two_sizes(self):
        _pair_tables.cache_clear()
        for k in range(1, 7):
            neighbors_bruteforce(enumerate_matchings(k)[0])
        assert _pair_tables.cache_info().currsize <= 2
        hits = _pair_tables.cache_info().hits
        _pair_tables(5)
        _pair_tables(6)
        assert _pair_tables.cache_info().hits == hits + 2

    def test_cache_clear_drops_the_index(self):
        reach = _pair_tables(4)[1]
        held = sys.getrefcount(reach)
        _pair_tables.cache_clear()
        assert sys.getrefcount(reach) == held - 1
        assert _pair_tables(4)[1] is not reach

    def test_tables_retain_little_per_matching(self):
        # tracemalloc counts Python allocations only.  At k = 10 the
        # matchings take about 169 B each and the reach sets 26 B more,
        # 195 B in all; a chord mask per matching read 241 B.  The bound
        # leaves a 15% margin.
        _pair_tables.cache_clear()
        chord_tables(20)  # shared with the flip-free routes, and kept
        gc.collect()
        tracemalloc.start()
        try:
            ms, _ = _pair_tables(10)
            # No cycle holds the enumeration's memo, but the tuples it
            # freed sit on CPython's tuple free lists (up to 2000 of each
            # length, about 46 B a matching here) until a full collection.
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _pair_tables.cache_clear()
        assert retained <= 225 * len(ms)


# -- the edge-group route, a reference for the face walk ------------------


def _anchored_parts(p, a, hi):
    # Groups that could hold the edge at a, with the intervals they leave.
    b = p[a]

    def nested(c, edges, gaps):
        if edges:
            tail = [(c, b - 1)] if c <= b - 1 else []
            outer_gap = [(b + 1, hi)] if b + 1 <= hi else []
            yield [(a, b)] + edges, gaps + tail + outer_gap
        s = c
        while s <= b - 1:
            e2 = p[s]
            pre = [(c, s - 1)] if s > c else []
            under = [(s + 1, e2 - 1)] if s + 1 <= e2 - 1 else []
            yield from nested(e2 + 1, edges + [(s, e2)], gaps + pre + under)
            s = e2 + 1

    def rightward(c, edges, gaps):
        if edges:
            tail = [(c, hi)] if c <= hi else []
            yield [(a, b)] + edges, gaps + tail
        s = c
        while s <= hi:
            e2 = p[s]
            pre = [(c, s - 1)] if s > c else []
            under = [(s + 1, e2 - 1)] if s + 1 <= e2 - 1 else []
            yield from rightward(e2 + 1, edges + [(s, e2)], gaps + pre + under)
            s = e2 + 1

    yield from nested(a + 1, [], [])
    under_anchor = [(a + 1, b - 1)] if a + 1 <= b - 1 else []
    yield from rightward(b + 1, [], under_anchor)


def reference_partners(p):
    """Partner tables of the neighbors of ``p``, as a set of tuples: every
    flip partition as edge groups, unpruned and memoised by (lo, hi),
    each group flipped by re-sorting its support."""
    memo = {}

    def interval(lo, hi):
        if lo > hi:
            return [()]
        if (lo, hi) not in memo:
            out = []
            for edges, gaps in _anchored_parts(p, lo, hi):
                pieces = [interval(glo, ghi) for glo, ghi in gaps]
                for combo in product(*pieces):
                    out.append((tuple(edges),) + tuple(chain.from_iterable(combo)))
            memo[lo, hi] = out
        return memo[lo, hi]

    n = len(p) - 1
    found = set()
    for raw in interval(1, n):
        q = list(p)
        for group in raw:
            flip_group(q, sorted(chain.from_iterable(group)))
        found.add(tuple(q))
    return found


def word_neighbors(p):
    """Partner tables of the neighbors of ``p``, in flip order, each read
    off the Dyck word the flip route writes for it."""
    k = len(p) // 2
    return [tuple(word_partners(w, k)) for w in neighbor_words(k, partner_word(p))]


def random_matching(k, rng):
    return from_partner(unrank(k, rng.randrange(catalan(k))))


class TestPairEnumeration:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_matches_the_group_route(self, k):
        for m in enumerate_matchings(k):
            p = m.partner()
            found = word_neighbors(p)
            assert len(set(found)) == len(found)
            assert set(found) == reference_partners(p)

    def test_matches_the_group_route_at_40(self):
        m = random_matching(40, random.Random(40))
        found = set(word_neighbors(m.partner()))
        assert found == reference_partners(m.partner())
        assert len(found) > 1000

    def test_matches_the_group_route_at_70(self):
        # A long chord, 1-140, holds 2-13 with a 5-pair ring inside it,
        # and a stack of 63 nested chords.  Each face of the stack has two
        # chords, which keeps the neighbors few.
        edges = [(1, 140), (2, 13)]
        edges += [(t, t + 1) for t in range(3, 13, 2)]
        edges += [(14 + i, 139 - i) for i in range(63)]
        p = validate(edges).partner()
        found = set(word_neighbors(p))
        assert found == reference_partners(p)
        assert len(found) == 21

    @pytest.mark.parametrize("k, samples", [(11, 12), (12, 6)])
    def test_samples_match_bruteforce(self, k, samples):
        rng = random.Random(f"flips/{k}")
        try:
            for _ in range(samples):
                m = random_matching(k, rng)
                assert neighbors(m) == neighbors_bruteforce(m)
        finally:
            _pair_tables.cache_clear()  # about 46 MB at k = 12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_neighbors_are_canonical(self, k):
        # neighbors sorts the flipped pairs without sorting within a pair.
        for m in enumerate_matchings(k):
            for x in neighbors(m):
                y = validate(x.edges)
                assert y.edges == x.edges and y.k == k

    def test_neighbors_are_canonical_at_40(self):
        m = random_matching(40, random.Random(40))
        assert len(neighbors(m)) == 2253
        for x in neighbors(m):
            y = validate(x.edges)
            assert y.edges == x.edges and y.k == 40


def nest(n):
    """n chords nested one inside the next: (i, 2n + 1 - i)."""
    return validate([(i, 2 * n + 1 - i) for i in range(1, n + 1)])


def ring(n):
    """The n boundary chords (2i - 1, 2i)."""
    return validate([(2 * i - 1, 2 * i) for i in range(1, n + 1)])


class TestDeepNesting:
    # Each face of a nest holds two chords, the innermost one; so its
    # chords pair off from the inside out, and an odd stack leaves the
    # outermost chord alone on the outer face.
    def test_a_thousand_nested_chords(self):
        assert neighbors(nest(1000)) == {ring(1000)}

    def test_an_odd_nest_is_isolated(self):
        assert neighbors(nest(999)) == set()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_nests_match_bruteforce(self, n):
        assert neighbors(nest(n)) == neighbors_bruteforce(nest(n))


def patterns_of(m):
    """Each partition in ``_patterns(m)`` as the face-list indices it picks."""
    return [flip(range(2 * m)) for flip in _patterns(m)]


def blocks_of(chunk):
    """The blocks named by the face-list indices of one partition, each in
    successor order from its smallest chord, and whether every end 2x and
    every start 2y + 1 is named once."""
    ends, starts = chunk[::2], chunk[1::2]
    m = len(chunk) // 2
    once = sorted(ends) == [2 * x for x in range(m)] and sorted(starts) == [
        2 * y + 1 for y in range(m)
    ]
    after = dict(zip((e // 2 for e in ends), (s // 2 for s in starts)))
    seen, blocks = set(), []
    for x in range(m):
        if x not in seen:
            block = [x]
            while after[block[-1]] != x:
                block.append(after[block[-1]])
            seen.update(block)
            blocks.append(tuple(block))
    return blocks, once


class TestPatterns:
    @pytest.mark.parametrize("m", range(2, 14))
    def test_one_partition_per_riordan_count(self, m):
        assert len(_patterns(m)) == riordan(m)

    @pytest.mark.parametrize("m", range(2, 14))
    def test_each_partition_names_every_end_and_start_once(self, m):
        for chunk in patterns_of(m):
            assert blocks_of(chunk)[1]

    @pytest.mark.parametrize("m", range(2, 11))
    def test_partitions_are_distinct_non_crossing_without_singletons(self, m):
        # With the count above, these are all such partitions.
        found = set()
        for chunk in patterns_of(m):
            blocks, _ = blocks_of(chunk)
            for block in blocks:
                assert len(block) >= 2
                assert list(block) == sorted(block)
            for b, c in combinations(blocks, 2):
                # c sits in one gap of b, the two ends forming one gap.
                assert len({sum(x > y for y in b) % len(b) for x in c}) == 1
            found.add(frozenset(blocks))
        assert len(found) == riordan(m)

    def test_no_partition_of_fewer_than_two_chords(self):
        assert _patterns(0) == _patterns(1) == ()


class TestFlatFlips:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_each_flat_tuple_covers_every_point_once(self, k):
        points = list(range(1, 2 * k + 1))
        for m in enumerate_matchings(k):
            for flat in _flips(m.partner()):
                assert type(flat) is tuple
                assert sorted(flat) == points


class TestSharedChords:
    def test_neighbor_sets_share_chord_tuples(self):
        (x,) = neighbors(parse_matching("1-2,3-4"))
        (y,) = neighbors(parse_matching("1-2,3-4,5-6"))
        assert x.edges[1] == y.edges[1] == (2, 3)
        assert x.edges[1] is y.edges[1]

    def test_neighbor_sets_retain_little_per_neighbor(self):
        # tracemalloc counts Python allocations only, so the bound does not
        # move with the interpreter's resident size or the machine.  With
        # shared chords, a neighbor holds its Matching, its edge tuple and
        # its set slot.
        rng = random.Random("neighbors/memory")
        ms = [random_matching(k, rng) for k in (10, 11, 12) for _ in range(300)]
        for m in ms:
            neighbors(m)  # fill the pattern and chord tables first
        tracemalloc.start()
        try:
            found = [neighbors(m) for m in ms]
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 320 * sum(map(len, found))
