"""Non-crossing perfect matchings of points in convex position.

Points are labeled 1..2k in counterclockwise convex order.  A matching is a
set of k chords pairing up all points so that no two chords cross.  Crossing
is a property of the cyclic label order alone, so no coordinates are stored.

The canonical form used everywhere: each edge is an ``(a, b)`` tuple with
``a < b``, and edges are sorted by their first point.  The string form joins
edges with commas, e.g. ``"1-2,3-4,5-6"``.  Canonical order sorts matchings
by their edge tuples; a matching's index in it is its rank (:func:`rank`),
computed from its partner table.  Its Dyck word marks which points open
a chord (:func:`words`, :func:`word_partners`, :func:`partner_word`),
and is ranked through its numeric index (:func:`word_index`,
:func:`word_ranker`).
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CrossingError,
    DomainError,
    LabelError,
    ParseError,
    ResourceLimitError,
)

Edge = tuple[int, int]

DEFAULT_MAX_K = 12


def configured_max_k() -> int:
    """Size cap for heavy operations, overridable via the DCM_MAX_K variable."""
    raw = os.environ.get("DCM_MAX_K")
    if raw is None:
        return DEFAULT_MAX_K
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"DCM_MAX_K must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"DCM_MAX_K must be positive, got {value}")
    return value


def check_size(k: int) -> None:
    """Reject a size below 1 or over the configured cap."""
    limit = configured_max_k()
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > limit:
        raise ResourceLimitError(
            f"k={k} is over the configured cap of {limit}; "
            "set DCM_MAX_K to raise it"
        )


@dataclass(frozen=True, slots=True)
class Matching:
    """A non-crossing perfect matching in canonical edge order.

    Instances are immutable and hashable; construct them through
    :func:`validate`, :func:`parse_matching`, or the generators in this
    package, which guarantee the canonical form.
    """

    edges: tuple[Edge, ...]

    @property
    def k(self) -> int:
        return len(self.edges)

    @property
    def n_points(self) -> int:
        return 2 * len(self.edges)

    def partner(self) -> list[int]:
        """Partner table ``p`` with ``p[i]`` the point matched to ``i``.

        Index 0 is unused so that labels index directly.
        """
        p = [0] * (2 * len(self.edges) + 1)
        for a, b in self.edges:
            p[a] = b
            p[b] = a
        return p

    def __str__(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.edges)


def validate(edges: Iterable[Iterable[int]]) -> Matching:
    """Check labels, coverage, and planarity; return the canonical matching.

    The edge count k fixes the labels to 1..2k.  Raises
    :class:`LabelError` for an edge that is not a pair of labels of type
    ``int`` (a ``bool`` is refused), for bad labels or for bad coverage,
    and :class:`CrossingError` (with one offending pair) for crossings.
    The first error in canonical edge order is the one raised.
    """
    # An edge of the wrong length fails to unpack, and a label that is not
    # an integer fails to compare or to index the partner table.  A bool or
    # a float can do both, so the loop tests each label's type, and a first
    # label below 1 is out of range only when it is an int.
    try:
        canon = [(a, b) if a < b else (b, a) for a, b in edges]
        canon.sort()
        if not canon:
            raise LabelError("a matching needs at least one edge")
        n = 2 * len(canon)
        if canon[0][0] < 1 and type(canon[0][0]) is int:
            raise LabelError(f"label {canon[0][0]} out of range 1..{n}")
        # No label is below the first one.  The partner table marks the
        # labels seen, and a label over n is the look-up that runs off its
        # end.
        partner = [0] * (n + 1)
        for a, b in canon:
            if type(a) is not int or type(b) is not int:
                raise TypeError
            if partner[a]:
                raise LabelError(f"label {a} used more than once")
            partner[a] = b
            if partner[b]:
                raise LabelError(f"label {b} used more than once")
            partner[b] = a
    except IndexError:
        raise LabelError(f"label {a if a > n else b} out of range 1..{n}") from None
    except LabelError:
        raise
    except (TypeError, ValueError):
        raise LabelError("every edge must be a pair of integer labels") from None
    # Single stack pass detects crossings: when edge (a, b) closes at b, every
    # point opened after a must already be closed.
    stack: list[int] = []
    for t in range(1, n + 1):
        if partner[t] > t:
            stack.append(t)
        else:
            top = stack.pop()
            if top != partner[t]:
                raise CrossingError((top, partner[top]), (partner[t], t))
    return Matching(tuple(canon))


def parse_matching(text: str) -> Matching:
    """Parse the ``"a-b,c-d,..."`` string form and validate it."""
    pairs = []
    for chunk in text.strip().split(","):
        try:
            a, b = chunk.split("-")
            pairs.append((int(a), int(b)))
        except ValueError as exc:
            expected = "'a-b'" if chunk.count("-") != 1 else "integers"
            raise ParseError(f"bad edge {chunk!r}, expected {expected}") from exc
    return validate(pairs)


def enumerate_matchings(k: int) -> list[Matching]:
    """All non-crossing perfect matchings on 2k points, in canonical order."""
    check_size(k)
    # Matchings of each run of points, as canonical edge tuples: match the
    # run's first point to every odd-offset partner, then combine the runs
    # inside and after that chord.  The first chord grows, then the inside,
    # then the rest, so every list comes out in canonical order.  Runs are
    # memoised, which also shares their edge tuples.
    runs: dict[tuple[int, int], list[tuple[Edge, ...]]] = {}

    def run(first: int, pairs: int) -> list[tuple[Edge, ...]]:
        found = runs.get((first, pairs))
        if found is None:
            found = [] if pairs else [()]
            for j in range(pairs):
                edge = (first, first + 2 * j + 1)
                after = run(first + 2 * j + 2, pairs - 1 - j)
                for inside in run(first + 1, j):
                    head = (edge,) + inside
                    found.extend([head + rest for rest in after])
            runs[(first, pairs)] = found
        return found

    ms = [Matching(t) for t in run(1, k)]
    runs.clear()  # run refers to itself, so the memo would wait for gc
    return ms


# -- ranking -----------------------------------------------------------------
#
# Canonical order sorts first by the chord at point 1, then by the pairs
# inside it, then by the pairs after it.  So if that chord (1, 2j + 2)
# encloses j pairs and o = k - 1 - j pairs lie after it, the rank is
#
#     before[k][j] + rank(inside) * C(o) + rank(after),
#
# where ``before[k][j]`` counts the size-k matchings whose first chord
# encloses fewer than j pairs (Ruskey, Combinatorial Generation; Knuth,
# TAOCP 7.2.1.6).  Unrolled, every chord adds its own ``before`` term,
# scaled by C(o) for each chord around it.


@lru_cache(maxsize=None)
def _rank_tables(k: int) -> tuple[list[list[int]], list[int]]:
    cat = [comb(2 * i, i) // (i + 1) for i in range(k + 1)]
    before = [
        list(accumulate((cat[i] * cat[s - 1 - i] for i in range(s)), initial=0))
        for s in range(k + 1)
    ]
    return before, cat


def rank(p: Sequence[int]) -> int:
    """Index in canonical order of the matching with partner table ``p``.

    ``p`` is taken to be a valid non-crossing partner table; it is not
    checked.
    """
    n = len(p) - 1
    before, cat = _rank_tables(n // 2)
    r = 0
    end, scale = n, 1  # last point of the current run, and its multiplier
    # The run and multiplier to go back to after each chord closes.
    outer_end = [0] * (n + 1)
    outer_scale = [0] * (n + 1)
    for a in range(1, n + 1):
        b = p[a]
        if b > a:
            r += scale * before[(end - a + 1) // 2][(b - a - 1) // 2]
            outer_end[b] = end
            outer_scale[b] = scale
            scale *= cat[(end - b) // 2]
            end = b - 1
        else:
            end = outer_end[a]
            scale = outer_scale[a]
    return r


def words(k: int) -> array:
    """Dyck words of the size-k matchings, in canonical order.

    A word is a 2k-bit int whose bit t, counted from the top, is set when
    point t opens a chord.  A matching with first chord ``(1, 2j + 2)``
    has the word ``1 inside 0 after``, so the words are combined in the
    order of :func:`enumerate_matchings`.  They fit 63 bits for k <= 31.
    """
    runs = [array("q", [0])]  # runs[s]: the words of s pairs, in order
    for size in range(1, k + 1):
        found = array("q")
        top = 1 << (2 * size - 1)
        for j in range(size):
            after = runs[size - 1 - j]
            shift = 2 * (size - 1 - j) + 1  # the closer, then after
            found.extend([top | inside << shift | rest
                          for inside in runs[j] for rest in after])
        runs.append(found)
    return runs[k]


def word_index(k: int) -> tuple[list[int], list[int]]:
    """Tables ``high`` and ``low`` of ``2**k`` entries each, such that
    ``high[w >> k] + low[w & (2**k - 1)]`` is the index of the size-k
    Dyck word ``w`` among all of them in increasing numeric order.

    That index counts the smaller words: for each opener of ``w``, those
    that share its prefix and close there instead, a ballot number fixed
    by the opener's place and height (Knuth, TAOCP 7.2.1.6).  The height
    at the middle is the low half's closers less its openers, so each
    half's share of the sum is a function of that half alone.  Entries
    of halves that no Dyck word has are left 0.
    """
    n = 2 * k
    # ways[m][h]: the paths of m steps from height h down to 0 that never
    # go below 0, a ballot number.
    ways = [[1] + [0] * n]
    for m in range(n):
        row = ways[m] + [0]
        ways.append([row[1]] + [row[h - 1] + row[h + 1] for h in range(1, n + 1)])
    # (half, height, share) for each half read so far.  A head reads its
    # next point down from the top, standing at height h before it; a
    # tail reads its next point up from the bottom, standing at height h
    # after it, so an opener there starts from h - 1 with i points after.
    heads = tails = [(0, 0, 0)]
    for i in range(k):
        heads = [s for x, h, r in heads for s in (
            (x << 1, h - 1, r),
            (x << 1 | 1, h + 1, r + (ways[n - 1 - i][h - 1] if h else 0)),
        ) if s[1] >= 0]
        tails = [s for x, h, r in tails for s in (
            (x, h + 1, r),
            (x | 1 << i, h - 1, r + (ways[i][h - 2] if h > 1 else 0)),
        ) if s[1] >= 0]
    high, low = [0] * (1 << k), [0] * (1 << k)
    for table, found in ((high, heads), (low, tails)):
        for x, _, r in found:
            table[x] = r
    return high, low


def word_ranker(
    k: int, by_rank: Sequence[int]
) -> Callable[[Iterable[int]], list[int]]:
    """``ranked(ws)``: the ranks of the size-k Dyck words ``ws``, given
    ``by_rank``, the words in canonical order (:func:`words`).

    Each word is looked up by its numeric index (:func:`word_index`) in
    one table that maps numeric order onto canonical order.
    """
    high, low = word_index(k)
    half = (1 << k) - 1
    perm = array("i", [0]) * len(by_rank)
    for r, w in enumerate(by_rank):
        perm[high[w >> k] + low[w & half]] = r

    def ranked(ws: Iterable[int]) -> list[int]:
        return [perm[high[w >> k] + low[w & half]] for w in ws]

    return ranked


def word_partners(w: int, k: int) -> list[int]:
    """Partner table of the size-k matching with Dyck word ``w``."""
    p = [0] * (2 * k + 1)
    opened: list[int] = []
    for t, bit in enumerate(format(w, f"0{2 * k}b"), 1):
        if bit == "1":
            opened.append(t)
        else:
            a = opened.pop()
            p[a], p[t] = t, a
    return p


def partner_word(p: Sequence[int]) -> int:
    """Dyck word of the matching with partner table ``p``; the inverse
    of :func:`word_partners`."""
    n = len(p) - 1
    return sum([1 << n - t for t, q in enumerate(p) if q > t])


def word_rotations(w: int, p: Sequence[int]) -> Iterator[int]:
    """Words of the matching with word ``w`` and partner table ``p``
    rotated by 0, 1, ..., n - 1 steps (point t goes to t + s)."""
    n = len(p) - 1
    top = 1 << (n - 1)
    for s in range(n):
        yield w
        # The last point, n - s before any step, moves to the front as an
        # opener; its partner, now at point a, moves to a + 1 and closes.
        a = (p[n - s] + s - 1) % n + 1
        w = (w >> 1 | top) ^ top >> a


def from_partner(p: Sequence[int]) -> Matching:
    """The matching with partner table ``p`` (index 0 unused); not validated."""
    return Matching(tuple((a, b) for a, b in enumerate(p) if a < b))


def insert(host: Matching, inner: Matching, gap: int) -> Matching:
    """Splice ``inner`` into ``host`` after the host point ``gap``.

    ``gap`` ranges over 0..2r where r is the host size: 0 places the run
    before host point 1, and 2r places it after the last host point.  Host
    labels above the gap shift up by the run length 2s; inserted labels keep
    their relative order, offset by ``gap``.
    """
    r2 = host.n_points
    s2 = inner.n_points
    if not 0 <= gap <= r2:
        raise ValueError(f"gap must be in 0..{r2}, got {gap}")
    p = [a if a <= gap else a + s2 for a in host.partner()]
    q = [b + gap for b in inner.partner()[1:]]
    return from_partner(p[: gap + 1] + q + p[gap + 1 :])
