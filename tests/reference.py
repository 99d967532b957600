"""Reference copies of matching routines that the package has since
rewritten for speed, kept as the tests' oracles.

``reference_validate`` and ``reference_parse`` are the sorted-pairs
versions of ``matching.validate`` and ``matching.parse_matching``: every
pair is sorted, then the pair list, then each label is checked in that
order, and crossings are found by a stack over all points.  The package's
versions must return an equal matching or raise the same exception type
with the same message.

``is_crossing`` is the pairwise crossing test the package once exported;
the tests check the package's crossing masks and neighbor routes
against it.  ``reference_consecutive_runs`` is an index-by-index scan for
the first points of blocks and antiblocks; ``reference_run_points`` reads
each run's points off its edges, and ``reference_separated_pairs`` is the
property suite's verdict when it compared those point sets.
``reference_insert`` is the splice that ``matching.insert`` made by
re-sorting the shifted edges with ``canonical_edges``, which sorts each
pair and then the pair list; the tests write edge lists in canonical
order with it.
``unrank`` is the inverse of ``matching.rank``, descending the same
counts by bisection; the package named a vertex with it before it read
the vertex's Dyck word off the graph's dihedral quotient
(``DcmGraph.word``).  The tests check ``matching.words``, the orbit
tables and the neighbor routes against it.
``reference_edge_series`` is the fixed-point iteration that
``counting.edge_series`` ran before it read the coefficients off a
recurrence: truncated products and a series inverse, repeated from the
constant series until nothing changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from dcmatch.errors import CrossingError, LabelError, ParseError
from dcmatch.matching import Edge, Matching, _rank_tables


def canonical_edges(edges: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    """Sort each pair and then the pair list.  No validity checking."""
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def reference_validate(edges: Iterable[Iterable[int]]) -> Matching:
    canon = tuple(sorted(tuple(sorted(e)) for e in edges))
    k = len(canon)
    if k < 1:
        raise LabelError("a matching needs at least one edge")
    n = 2 * k
    seen = [False] * (n + 1)
    for a, b in canon:
        for t in (a, b):
            if not 1 <= t <= n:
                raise LabelError(f"label {t} out of range 1..{n}")
            if seen[t]:
                raise LabelError(f"label {t} used more than once")
            seen[t] = True
        if a == b:
            raise LabelError(f"edge ({a}, {b}) joins a point to itself")
    partner = [0] * (n + 1)
    for a, b in canon:
        partner[a] = b
        partner[b] = a
    stack: list[int] = []
    for t in range(1, n + 1):
        if partner[t] > t:
            stack.append(t)
        else:
            top = stack.pop()
            if top != partner[t]:
                raise CrossingError((top, partner[top]), (partner[t], t))
    return Matching(canon)


def reference_parse(text: str) -> Matching:
    pairs = []
    for chunk in text.strip().split(","):
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ParseError(f"bad edge {chunk!r}, expected 'a-b'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge {chunk!r}, expected integers") from exc
    if not pairs:
        raise ParseError("empty matching string")
    return reference_validate(pairs)


def is_crossing(e1: Edge, e2: Edge, /) -> bool:
    """Whether two chords of the same convex point set cross.

    Edges sharing an endpoint never cross.  Otherwise the four endpoints are
    distinct and the chords cross exactly when they interleave around the
    circle, i.e. one edge has exactly one endpoint strictly between the two
    endpoints of the other.
    """
    a1, b1 = min(e1), max(e1)
    a2, b2 = min(e2), max(e2)
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return False
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def reference_consecutive_runs(m: Matching, kind: str) -> list[int]:
    n = m.n_points
    if n < 4:
        return []
    p = m.partner()
    block = kind == "block"
    out = []
    for a in range(1, n + 1):
        b, c, d = a % n + 1, (a + 1) % n + 1, (a + 2) % n + 1
        first, second = ((a, d), (b, c)) if block else ((a, b), (c, d))
        if p[first[0]] == first[1] and p[second[0]] == second[1]:
            out.append(a)
    return out


def reference_run_points(m: Matching) -> list[set[int]]:
    # The point sets of the matching's blocks, then of its antiblocks, each
    # the ends of its run's two edges: the edge at the start and the edge
    # one point on (block) or two points on (antiblock).
    n = m.n_points
    p = m.partner()
    out = []
    for kind, step in (("block", 1), ("antiblock", 2)):
        for a in reference_consecutive_runs(m, kind):
            x = (a + step - 1) % n + 1
            out.append({a, p[a], x, p[x]})
    return out


def reference_separated_pairs(m: Matching) -> bool:
    # Whether two of the matching's blocks and antiblocks share no point.
    runs = reference_run_points(m)
    return any(
        runs[i].isdisjoint(runs[j])
        for i in range(len(runs))
        for j in range(i + 1, len(runs))
    )


def reference_insert(host: Matching, inner: Matching, gap: int) -> Matching:
    s2 = inner.n_points
    shifted = [
        (a if a <= gap else a + s2, b if b <= gap else b + s2)
        for a, b in host.edges
    ]
    placed = [(a + gap, b + gap) for a, b in inner.edges]
    return Matching(canonical_edges(shifted + placed))


def unrank(k: int, r: int) -> list[int]:
    """Partner table of the size-k matching at index ``r`` of canonical order."""
    before, cat = _rank_tables(k)
    if not 0 <= r < cat[k]:
        raise ValueError(f"rank {r} out of range for k={k}")
    p = [0] * (2 * k + 1)
    runs = [(1, k, r)]  # (first point, pairs, rank within the run)
    while runs:
        a, size, r = runs.pop()
        if not size:
            continue
        j = bisect_right(before[size], r) - 1
        inside, after = divmod(r - before[size][j], cat[size - 1 - j])
        b = a + 2 * j + 1
        p[a], p[b] = b, a
        runs.append((a + 1, j, inside))
        runs.append((b + 1, size - 1 - j, after))
    return p


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    # Truncated product; both inputs already cut at degree n.
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(min(n - i, len(b) - 1) + 1):
            out[i + j] += x * b[j]
    return out


def _inverse(f: list[int], n: int) -> list[int]:
    # Power series inverse; needs constant term 1.
    assert f[0] == 1
    out = [1] + [0] * n
    for m in range(1, n + 1):
        out[m] = -sum(f[i] * out[m - i] for i in range(1, m + 1) if i < len(f))
    return out


def reference_edge_series(n: int) -> tuple[int, ...]:
    # Z = 2z - 1 solves Z = 1 + 2x^2 Z^4 / (1 - x Z^2); each round of the
    # iteration settles one more coefficient, since the correction term
    # carries a factor x^2.
    big = [1] + [0] * n
    for _ in range(n + 3):
        sq = _mul(big, big, n)
        fourth = _mul(sq, sq, n)
        denom = [1] + [-c for c in sq[:n]]
        frac = _mul(fourth, _inverse(denom, n), n)
        nxt = [1] + [0] * n
        for i in range(n - 1):
            nxt[i + 2] += 2 * frac[i]
        if nxt == big:
            break
        big = nxt
    else:
        raise AssertionError("series iteration did not stabilize")
    return tuple((c + (i == 0)) // 2 for i, c in enumerate(big))
