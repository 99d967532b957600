"""Disjoint compatibility of matchings and the flip moves realizing it.

Two matchings of the same point set are adjacent when they share no edge
and no edge of one crosses an edge of the other.  Equivalently, their
union splits into cycles that alternate between the two matchings, each
cycle visiting its points in convex order, with the cycle supports
mutually non-interleaved.  Both formulations are implemented and checked
against each other.

Every neighbor of M is reached by one *flip partition*: a partition of
M's edges into groups of two or more, each group pairing up cyclically
consecutive support points, with all remaining edges confined to single
gaps between consecutive support points.  Flipping shifts each group's
pairing to the complementary one.  Distinct partitions give distinct
neighbors, so enumerating partitions enumerates the adjacency.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

from .errors import FlipError
from .matching import (
    Edge,
    Matching,
    canonical_edges,
    enumerate_matchings,
    from_partner,
    is_crossing,
)

# -- adjacency predicate ----------------------------------------------------


def _pairwise_compatible(m1: Matching, m2: Matching) -> bool:
    if m1.k != m2.k:
        return False
    mine = set(m1.edges)
    if any(e in mine for e in m2.edges):
        return False
    return all(
        not is_crossing(e, f) for e in m1.edges for f in m2.edges
    )


def alternating_cycles(
    m1: Matching, m2: Matching
) -> list[tuple[int, ...]]:
    """Cycles of the union of two edge-disjoint matchings.

    Each cycle is reported from its smallest point, following the first
    matching first.  Shared edges would give degenerate 2-cycles and are
    rejected.
    """
    if m1.k != m2.k:
        raise ValueError("matchings must have the same size")
    if set(m1.edges) & set(m2.edges):
        raise ValueError("matchings share an edge")
    n = m1.n_points
    p1, p2 = m1.partner(), m2.partner()
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        points = []
        t, odd_step = start, True
        while True:
            points.append(t)
            seen[t] = True
            t = p1[t] if odd_step else p2[t]
            odd_step = not odd_step
            if t == start:
                break
        cycles.append(tuple(points))
    return cycles


def _is_cyclic_ordering(points: tuple[int, ...]) -> bool:
    # True when the visiting order is a rotation of the sorted circular
    # order, in either direction.
    srt = sorted(points)
    m = len(points)
    for cand in (list(points), list(reversed(points))):
        i = cand.index(srt[0])
        if cand[i:] + cand[:i] == srt:
            return True
    return False


def _gap_index(support: list[int], t: int) -> int:
    # Which open interval between consecutive support points holds t; the
    # two unbounded ends belong to the same wrap-around gap.
    return bisect_left(support, t) % len(support)


def _single_gap(support: list[int], points: tuple[int, ...]) -> bool:
    gaps = {_gap_index(support, t) for t in points}
    return len(gaps) == 1


def _cycle_compatible(m1: Matching, m2: Matching) -> bool:
    if m1.k != m2.k:
        return False
    if set(m1.edges) & set(m2.edges):
        return False
    cycles = alternating_cycles(m1, m2)
    if any(not _is_cyclic_ordering(c) for c in cycles):
        return False
    for a, b in combinations(cycles, 2):
        if not _single_gap(sorted(a), b):
            return False
    return True


def are_disjoint_compatible(m1: Matching, m2: Matching) -> bool:
    """Whether the two matchings are adjacent.

    Evaluated by the edge-pair test and by the alternating-cycle
    characterization; a disagreement would be a bug and raises.
    """
    direct = _pairwise_compatible(m1, m2)
    via_cycles = _cycle_compatible(m1, m2)
    if direct != via_cycles:
        raise AssertionError(
            f"compatibility routes disagree on {m1} vs {m2}: "
            f"pairwise={direct} cycles={via_cycles}"
        )
    return direct


# -- flips ------------------------------------------------------------------


@dataclass(frozen=True)
class FlippableSet:
    """A group of matching edges pairing consecutive support points."""

    edges: tuple[Edge, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(chain.from_iterable(self.edges)))


@dataclass(frozen=True)
class FlippablePartition:
    """All edges of a matching, grouped into simultaneously flippable sets."""

    parts: tuple[FlippableSet, ...]

    def __iter__(self):
        return iter(self.parts)


def _check_flippable(m: Matching, edges: tuple[Edge, ...]) -> str | None:
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


def _flip_edges(edges: tuple[Edge, ...]) -> list[Edge]:
    # Shift the pairing of consecutive support points to the other one.
    s = sorted(chain.from_iterable(edges))
    if (s[0], s[1]) in set(edges):
        out = [(s[i], s[i + 1]) for i in range(1, len(s) - 1, 2)]
        out.append((s[0], s[-1]))
    else:
        out = [(s[i], s[i + 1]) for i in range(0, len(s), 2)]
    return out


def flip(m: Matching, partition: FlippablePartition | list) -> Matching:
    """Apply a full flip partition to ``m``, yielding one neighbor."""
    parts = [
        tuple(p.edges) if isinstance(p, FlippableSet) else canonical_edges(p)
        for p in partition
    ]
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
    flipped = [e for part in parts for e in _flip_edges(part)]
    return Matching(canonical_edges(flipped))


# -- partition enumeration --------------------------------------------------


def _anchored_parts(p: list[int], a: int, hi: int):
    """Groups that could contain the edge at the interval's first point.

    Yields (edges, gaps): the group's edges and the intervals left over,
    each of which must be partitioned on its own.  The anchor edge
    (a, p[a]) is either the group's spanning edge with the chain nested
    inside it, or the leftmost pair with the chain continuing to its
    right.  Chain steps hop over whole closed runs, which become gaps.
    """
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
            yield from rightward(
                e2 + 1, edges + [(s, e2)], gaps + pre + under
            )
            s = e2 + 1

    yield from nested(a + 1, [], [])
    under_anchor = [(a + 1, b - 1)] if a + 1 <= b - 1 else []
    yield from rightward(b + 1, [], under_anchor)


def _raw_partitions(
    p: list[int], n: int
) -> list[tuple[tuple[Edge, ...], ...]]:
    """All flip partitions, as tuples of edge groups, unordered."""
    memo: dict[tuple[int, int], list] = {}

    def interval(lo: int, hi: int):
        if lo > hi:
            return [()]
        key = (lo, hi)
        got = memo.get(key)
        if got is not None:
            return got
        out = []
        for edges, gaps in _anchored_parts(p, lo, hi):
            pieces = [interval(glo, ghi) for glo, ghi in gaps]
            if all(pieces):
                head = (tuple(edges),)
                for combo in product(*pieces):
                    out.append(head + tuple(chain.from_iterable(combo)))
        memo[key] = out
        return out

    return interval(1, n)


def flippable_partitions(m: Matching) -> list[FlippablePartition]:
    """Every flip partition of ``m``, in support order.

    The list is empty exactly when ``m`` is isolated; its length is the
    degree of ``m`` in the compatibility graph.
    """
    found = []
    for raw in _raw_partitions(m.partner(), m.n_points):
        parts = tuple(
            sorted(
                (FlippableSet(canonical_edges(g)) for g in raw),
                key=lambda f: f.support,
            )
        )
        found.append(FlippablePartition(parts))
    found.sort(key=lambda P: tuple(f.support for f in P.parts))
    return found


def neighbor_partners(p: list[int]) -> Iterator[list[int]]:
    """Partner tables of all neighbors of the matching with partner table ``p``."""
    n = len(p) - 1
    for raw in _raw_partitions(p, n):
        q = [0] * (n + 1)
        for group in raw:
            for a, b in _flip_edges(group):
                q[a] = b
                q[b] = a
        yield q


def neighbors(m: Matching) -> set[Matching]:
    """All matchings disjoint compatible with ``m``, via flip partitions."""
    return {from_partner(q) for q in neighbor_partners(m.partner())}


# -- independent oracle -----------------------------------------------------


@lru_cache(maxsize=None)
def chord_tables(n: int) -> tuple[dict[Edge, int], list[int]]:
    """Bit index of each chord on points 1..n, and its crossing mask."""
    eindex: dict[Edge, int] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            eindex[(a, b)] = len(eindex)
    chords = list(eindex)
    cross = [0] * len(chords)
    for i, e in enumerate(chords):
        for j in range(i + 1, len(chords)):
            if is_crossing(e, chords[j]):
                cross[i] |= 1 << j
                cross[j] |= 1 << i
    return eindex, cross


def edge_masks(
    edges, eindex: dict[Edge, int], cross: list[int]
) -> tuple[int, int]:
    """Mask of the given chords, and mask of all chords crossing one."""
    used = 0
    crossed = 0
    for e in edges:
        i = eindex[e]
        used |= 1 << i
        crossed |= cross[i]
    return used, crossed


@lru_cache(maxsize=None)
def _pair_tables(k: int):
    # Every matching of size k with its chord mask over 2k points.
    eindex, cross = chord_tables(2 * k)
    ms = enumerate_matchings(k)
    return ms, [edge_masks(m.edges, eindex, cross)[0] for m in ms]


def neighbors_bruteforce(m: Matching) -> set[Matching]:
    """Adjacency by scanning all matchings of the same size.

    Independent of the flip route: precomputed chord bitmasks decide
    edge-disjointness and crossing-freeness per candidate.
    """
    ms, masks = _pair_tables(m.k)
    mask, cm = edge_masks(m.edges, *chord_tables(2 * m.k))
    return {
        m2
        for m2, mask2 in zip(ms, masks)
        if m2 != m and not mask & mask2 and not cm & mask2
    }
