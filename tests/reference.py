"""Reference copies of matching routines that the package has since
rewritten for speed, kept as the tests' oracles.

``reference_validate`` and ``reference_parse`` are the sorted-pairs
versions of ``matching.validate`` and ``matching.parse_matching``: every
pair is sorted, then the pair list, then each label is checked in that
order, and crossings are found by a stack over all points.  The package's
versions must return an equal matching or raise the same exception type
with the same message.
"""

from __future__ import annotations

from typing import Iterable

from dcmatch.errors import CrossingError, LabelError, ParseError
from dcmatch.matching import Matching


def reference_validate(
    edges: Iterable[Iterable[int]], k: int | None = None
) -> Matching:
    canon = tuple(sorted(tuple(sorted(e)) for e in edges))
    if k is None:
        k = len(canon)
    if len(canon) != k:
        raise LabelError(f"expected {k} edges, got {len(canon)}")
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
