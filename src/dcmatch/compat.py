"""Disjoint compatibility of matchings and the flip moves realizing it.

Two matchings of the same point set are adjacent when they share no edge
and no edge of one crosses an edge of the other.  Equivalently, their
union splits into cycles that alternate between the two matchings, each
cycle visiting its points in convex order, with the cycle supports
mutually non-interleaved.

The chords of a matching M cut the polygon into faces, each bounded by
chords and polygon sides in turn.  Every chord borders two faces, the one
under it and the one around it, so the faces and chords form a tree, the
dual tree.  A matching M' is adjacent to M exactly when every alternating
cycle of M and M' lies inside one face of M.  So a neighbor is two
choices: each chord goes to one of its two faces, with no face receiving
exactly one; and each face's chords are split into a non-crossing
partition with no singleton block.  Each block of chords x_0, ..., x_r-1,
in order round the face, is flipped by pairing the end of each x_i with
the start of x_i+1, cyclically.  Distinct choices give distinct
neighbors.  A face of m chords has Riordan(m) such partitions, so a ring,
with all k chords on one face, has Riordan(k) neighbors.

``_flips`` walks the points once, keeping a stack of the faces still
open, each with every way its chords so far can be chosen: its options,
each a tuple pair of the points flipped so far in the faces under it and
its own face list.  When a chord closes, the face under it is resolved,
with the chord going into it or out to the face around it, and each
partition of it is applied as one ``itemgetter`` from one table per face
size (``_patterns``).  Each choice is one neighbor, and the walk has two
readers: ``neighbors`` makes each neighbor's ``Matching`` from its
flipped pairs, for the public API, and ``neighbor_words`` writes its
Dyck word from them, for every caller inside the package.

The oracle ``neighbors_bruteforce`` reads adjacency off the definition
instead, with no flip work.  M' is blocked by M when some chord of M' is
a chord of M or crosses one.  Crossing is symmetric, so M' is blocked
exactly when it lies in the reach set of some chord c of M: the
matchings that use c or a chord crossing c.  ORing the reach sets of
M's k chords thus gives the same blocked set as ORing the users of every
chord M uses or crosses, with k ORs instead of one per such chord; the
neighbors of M are its complement.  The crossing masks of the chords
come from interleaving alone: (a, b) crosses exactly the chords (c, d)
with a < c < b < d or c < a < d < b.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import itemgetter

from .matching import (
    Edge,
    Matching,
    check_size,
    enumerate_matchings,
    word_partners,
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


# -- face enumeration -------------------------------------------------------
#
# A face of m chords is listed flat as [e0, s0, e1, s1, ...]: chord x is
# met at s_x and left at e_x going round the face, and the polygon side
# after it leads on to s_x+1.  Flipping a block pairs e_x with s_y for
# each member x and its cyclic successor y.


@lru_cache(maxsize=None)
def _patterns(m: int) -> tuple[itemgetter, ...]:
    """Flipped pairs of every partition of a face of ``m`` chords.

    Each partition is non-crossing with no singleton block, and is one
    getter of a face list: for every block member x with cyclic successor
    y, it picks the face-list items ``2x, 2y + 1``.
    """
    memo: dict[tuple[int, int], list[bytes]] = {}

    def run(lo: int, hi: int) -> list[bytes]:
        # Partitions of the chords lo..hi-1; the block of lo is lo and a
        # chain of later members, each gap between them partitioned alone.
        found = memo.get((lo, hi))
        if found is None:
            found = memo[lo, hi] = [] if lo < hi else [b""]
            chains = [(lo, [b""])]
            for prev, heads in chains:
                for x in range(prev + 1, hi):
                    gap = run(prev + 1, x)
                    if not gap:
                        continue
                    step = bytes((2 * prev, 2 * x + 1))
                    grown = [h + step + g for h in heads for g in gap]
                    close = bytes((2 * x, 2 * lo + 1))
                    rest = run(x + 1, hi)
                    found += [h + close + r for h in grown for r in rest]
                    chains.append((x, grown))
        return found

    # The one partition of no chords picks nothing, and is no getter.
    return tuple(itemgetter(*pattern) for pattern in run(0, m) if pattern)


def _flips(p: list[int]) -> Iterator[tuple[int, ...]]:
    """Flipped pairs of every neighbor of the matching ``p``, each neighbor
    one flat tuple of points taken two at a time, a pair in either order.

    An open face in which no chord has closed yet holds ``None`` for its
    options.  A face that closes with no option leaves ``p`` without
    neighbors, and ends the walk at once.
    """
    faces: list = []
    here = None  # the options of the innermost open face
    for t in range(1, len(p)):
        a = p[t]
        if a > t:
            faces.append(here)
            here = None
            continue
        inner = here
        around = faces.pop()
        if inner is None:
            # No chord under (a, t): it can only join the face around it.
            if around is None:
                here = [((), (t, a))]
            else:
                here = [(x, face + (t, a)) for x, face in around]
            continue
        # Each option of the face around (one empty one for None), times
        # each way to resolve the face under (a, t), with (a, t) out or in.
        here = []
        for flipped, outer in around or (((), ()),):
            for x, face in inner:
                if len(face) == 2:
                    # One chord under (a, t): the two pair off, one way only.
                    here.append((flipped + x + (face[0], t, a, face[1]), outer))
                elif not face:
                    here.append((flipped + x, outer + (t, a)))
                else:
                    x = flipped + x
                    joined = outer + (t, a)
                    m = len(face) >> 1
                    here += [(x + flip(face), joined) for flip in _patterns(m)]
                    face = (a, t) + face
                    here += [(x + flip(face), outer) for flip in _patterns(m + 1)]
        if not here:
            return
    for x, face in here:
        if not face:
            yield x
        elif len(face) > 2:
            for flip in _patterns(len(face) >> 1):
                yield x + flip(face)


def neighbor_words(k: int, w: int) -> list[int]:
    """Dyck words (``matching.words``) of the neighbors of the size-k
    matching with word ``w``, in flip order.

    Each flipped pair's smaller point opens its chord.
    """
    bit = [1 << 2 * k - t for t in range(2 * k + 1)]
    found = []
    for flat in _flips(word_partners(w, k)):
        pairs = iter(flat)
        found.append(sum([bit[a] if a < b else bit[b] for a, b in zip(pairs, pairs)]))
    return found


class _Chords(dict):
    # Canonical (min, max) tuple of each chord returned so far, under both
    # orders of its points, so that neighbor sets share their chords.
    def __missing__(self, pair: tuple[int, int]) -> Edge:
        a, b = pair
        chord = (a, b) if a < b else (b, a)
        self[chord] = self[chord[::-1]] = chord
        return chord


_CHORDS = _Chords()


def neighbors(m: Matching) -> set[Matching]:
    """All matchings disjoint compatible with ``m``, via face partitions."""
    chord = _CHORDS.__getitem__
    found = set()
    for flat in _flips(m.partner()):
        pairs = iter(flat)
        found.add(Matching(tuple(sorted(map(chord, zip(pairs, pairs))))))
    return found


# -- independent oracle -----------------------------------------------------


@lru_cache(maxsize=None)
def chord_tables(n: int) -> tuple[dict[Edge, int], list[int]]:
    """Bit index of each chord on points 1..n, and its crossing mask."""
    eindex: dict[Edge, int] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            eindex[(a, b)] = len(eindex)
    cross = [0] * len(eindex)
    # Each crossing pair once, as (a, b) and (c, d) with a < c < b < d.
    for (a, b), i in eindex.items():
        for c in range(a + 1, b):
            for d in range(b + 1, n + 1):
                j = eindex[c, d]
                cross[i] |= 1 << j
                cross[j] |= 1 << i
    return eindex, cross


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


def chord_index(edge_lists: list[tuple[Edge, ...]], n: int) -> list[int]:
    """Per chord c on points 1..n, the reach set of c: the bitset of the
    positions in ``edge_lists`` that use c or a chord crossing c.

    Each position's bit is set in one byte array per chord it uses, so
    the fill is linear in the chords listed; then each chord's users are
    ORed with the users of every chord crossing it.
    """
    eindex, cross = chord_tables(n)
    rows = [bytearray(len(edge_lists) // 8 + 1) for _ in cross]
    for i, edges in enumerate(edge_lists):
        byte, bit = i >> 3, 1 << (i & 7)
        for e in edges:
            rows[eindex[e]][byte] |= bit
    users = [int.from_bytes(row, "little") for row in rows]
    reach = []
    for c, crossing in enumerate(cross):
        hit = users[c]
        for d in set_bits(crossing):
            hit |= users[d]
        reach.append(hit)
    return reach


def unblocked(reach: list[int], count: int, edges: Iterable[Edge], n: int) -> int:
    """Bitset of the positions, of ``count`` indexed, that no chord of
    ``edges`` reaches, ``reach`` being ``chord_index`` over points 1..n:
    one OR of a reach set per chord given."""
    eindex = chord_tables(n)[0]
    hit = 0
    for e in edges:
        hit |= reach[eindex[e]]
    return ((1 << count) - 1) ^ hit


@lru_cache(maxsize=2)
def _pair_tables(k: int):
    # Every matching of size k and the reach set of each chord over them;
    # clearing the cache frees both.  Two sizes are kept: the oracle
    # sweeps k upward, and a caller alternating between two sizes
    # rebuilds nothing.
    ms = enumerate_matchings(k)
    return ms, chord_index([m.edges for m in ms], 2 * k)


def neighbors_bruteforce(m: Matching) -> set[Matching]:
    """Adjacency read off the reach sets of all matchings of the size.

    Independent of the flip route: the matchings adjacent to ``m`` are
    those outside the reach set of every chord of ``m``, one OR per
    chord.  ``m`` uses its own chords, so it is never listed.
    """
    check_size(m.k)  # before the cache, which would skip the guard
    ms, reach = _pair_tables(m.k)
    return {ms[i] for i in set_bits(unblocked(reach, len(ms), m.edges, 2 * m.k))}
