"""Disjoint compatibility of matchings and the flip moves realizing it.

Two matchings of the same point set are adjacent when they share no edge
and no edge of one crosses an edge of the other.  Equivalently, their
union splits into cycles that alternate between the two matchings, each
cycle visiting its points in convex order, with the cycle supports
mutually non-interleaved.

Every neighbor of M is reached by one *flip partition*: a partition of
M's edges into groups of two or more, each group pairing up cyclically
consecutive support points, with all remaining edges confined to single
gaps between consecutive support points.  Flipping shifts each group's
pairing to the complementary one.  Distinct partitions give distinct
neighbors, so enumerating partitions enumerates the adjacency.

The enumeration walks each group's chain of edges in support order and
writes down the flipped pairs as it goes, memoised per closed run of
points.  A chain is not extended past a run it skips or covers that has
no partition of its own, so most dead branches end at a memo lookup.
``neighbors`` and ``neighbor_partners`` read the pairs directly.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .matching import (
    Edge,
    Matching,
    check_size,
    enumerate_matchings,
    is_crossing,
)

# -- flips ------------------------------------------------------------------


def flip_group(p: list[int], support: list[int]) -> None:
    """Flip one flippable group of the matching ``p`` in place.

    ``support`` lists the group's points in ascending order.  The group
    pairs consecutive support points one way round the circle; the flip
    pairs them the other way.
    """
    s = support
    if p[s[0]] == s[1]:
        s = s[1:] + s[:1]
    for a, b in zip(s[::2], s[1::2]):
        p[a], p[b] = b, a


# -- partition enumeration --------------------------------------------------
#
# In a flip partition of a closed run lo..hi (a run matched within itself),
# the group of the edge (lo, b) holds a chain (s1,e1),...,(sm,em) of edges
# that either nests under (lo, b) or continues to its right.  Each chain
# step hops over whole closed runs.  Flipping the group pairs every chain
# end with the next chain start:
#
#     nested     (lo,s1),(e1,s2),...,(em,b)
#     rightward  (b,s1),(e1,s2),...,(lo,em)
#
# Every run left before, under or after a chain edge, or under or past the
# anchor, sits in one gap of the group and is partitioned on its own.


def _interval(p: list[int], memo: dict, lo: int, hi: int) -> list[tuple]:
    """Flipped pairs of every flip partition of the closed run lo..hi.

    Each partition is one flat tuple of ``(a, b)`` pairs with ``a < b``:
    the edges the flip puts on the run's points.  An empty list means no
    partition exists.
    """
    key = lo * len(p) + hi  # distinct for every run, since hi < len(p)
    found = memo.get(key)
    if found is None:
        found = memo[key] = []
        b = p[lo]
        # A chain nested under (lo, b), with the run past b left aside.
        past = [_interval(p, memo, b + 1, hi)] if b < hi else []
        if all(past):
            _walk(p, memo, found, lo + 1, b - 1, lo, b, (), [], past)
        # A chain right of (lo, b), with the run under it left aside.
        under = [_interval(p, memo, lo + 1, b - 1)] if lo + 1 < b else []
        if all(under):
            _walk(p, memo, found, b + 1, hi, b, lo, (), under, [])
    return found


def _walk(p, memo, found, c, limit, prev, close, pairs, pieces, after) -> None:
    """Extend a chain by every edge starting in c..limit, to the right of
    ``prev``, the last chain point so far; ``close`` is the anchor end that
    the last chain end pairs with.

    ``pieces`` and ``after`` hold the partitions of the runs the group
    leaves aside.  A step whose skipped or covered run has none is not
    taken, since no extension of it can be completed.
    """
    if pairs:
        last = (prev, close) if prev < close else (close, prev)
        tail = [_interval(p, memo, c, limit)] if c <= limit else []
        if all(tail):
            combos = [pairs + (last,)]
            for piece in pieces + tail + after:
                combos = [x + y for x in combos for y in piece]
            found.extend(combos)
    s = c
    while s <= limit:
        e = p[s]
        step = pieces
        if s > c:
            pre = _interval(p, memo, c, s - 1)
            step = step + [pre] if pre else None
        if step is not None and s + 1 < e:
            inner = _interval(p, memo, s + 1, e - 1)
            step = step + [inner] if inner else None
        if step is not None:
            grown = pairs + ((prev, s),)
            _walk(p, memo, found, e + 1, limit, e, close, grown, step, after)
        s = e + 1


def _flips(p: list[int]) -> list[tuple]:
    # Flipped pairs of every flip partition of the matching p.
    return _interval(p, {}, 1, len(p) - 1)


def neighbor_partners(p: list[int]) -> Iterator[list[int]]:
    """Partner tables of all neighbors of the matching with partner table ``p``.

    Each table is written straight from the flipped pairs of one flip
    partition.
    """
    n = len(p) - 1
    for pairs in _flips(p):
        q = [0] * (n + 1)
        for a, b in pairs:
            q[a] = b
            q[b] = a
        yield q


def neighbors(m: Matching) -> set[Matching]:
    """All matchings disjoint compatible with ``m``, via flip partitions."""
    # Every flipped pair has a < b, so sorting makes the canonical form.
    return {Matching(tuple(sorted(pairs))) for pairs in _flips(m.partner())}


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


def set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x``, in ascending order."""
    # bin() writes the bits in one C pass; reversed, position i is bit i.
    bits = bin(x)[:1:-1]
    found = []
    i = bits.find("1")
    while i >= 0:
        found.append(i)
        i = bits.find("1", i + 1)
    return found


def chord_index(masks: list[int], n_chords: int) -> list[int]:
    """Per chord, the bitset of the positions in ``masks`` that use it.

    Each position's bit is set in one byte array per chord, and each
    array becomes one int, so the build is linear in the chords listed.
    """
    rows = [bytearray(len(masks) // 8 + 1) for _ in range(n_chords)]
    for i, mask in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        for c in set_bits(mask):
            rows[c][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def unblocked(index: list[int], count: int, blocked: int) -> list[int]:
    """Positions, of ``count`` indexed, whose chords avoid ``blocked``."""
    hit = 0
    for c in set_bits(blocked):
        hit |= index[c]
    return set_bits(((1 << count) - 1) ^ hit)


@lru_cache(maxsize=2)
def _pair_tables(k: int):
    # Every matching of size k, its chord mask over 2k points, and the
    # chord index over those masks; clearing the cache frees all three.
    # Two sizes are kept: the oracle sweeps k upward, and a caller
    # alternating between two sizes rebuilds nothing.
    eindex, cross = chord_tables(2 * k)
    ms = enumerate_matchings(k)
    masks = [edge_masks(m.edges, eindex, cross)[0] for m in ms]
    return ms, masks, chord_index(masks, len(cross))


def neighbors_bruteforce(m: Matching) -> set[Matching]:
    """Adjacency read off the chord index of all matchings of the size.

    Independent of the flip route: the matchings adjacent to ``m`` are
    those using none of its chords and no chord crossing one of them.
    ``m`` uses its own chords, so it is never listed.
    """
    check_size(m.k)  # before the cache, which would skip the guard
    ms, _, index = _pair_tables(m.k)
    used, crossed = edge_masks(m.edges, *chord_tables(2 * m.k))
    return {ms[i] for i in unblocked(index, len(ms), used | crossed)}
