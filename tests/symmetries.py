"""The dihedral symmetries of the 2k-gon as point maps, for the tests'
symmetry oracles."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from dcmatch.matching import Matching, from_partner


@lru_cache(maxsize=None)
def dihedral_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2n symmetries of the n-gon as point maps, 0 fixed.

    Element ``s < n`` rotates by s: point t goes to t + s (mod n).
    Element ``n + s`` reflects (t goes to n + 1 - t) and then rotates by s.
    This is the numbering of ``graph._compose`` and the orbit tables.
    """
    points = range(1, n + 1)
    return tuple(
        (0, *[(t - 1 + s) % n + 1 for t in points]) for s in range(n)
    ) + tuple((0, *[(n - t + s) % n + 1 for t in points]) for s in range(n))


def permute(p: Sequence[int], sigma: Sequence[int]) -> list[int]:
    """Partner table of the matching ``p`` after moving each point t to sigma[t]."""
    q = [0] * len(p)
    for t in range(1, len(p)):
        q[sigma[t]] = sigma[p[t]]
    return q


def rotate(m: Matching, s: int) -> Matching:
    """Rotate labels by ``s`` steps: point ``t`` becomes ``t + s`` (mod 2k)."""
    n = m.n_points
    return from_partner(permute(m.partner(), dihedral_permutations(n)[s % n]))


def reflect(m: Matching) -> Matching:
    """Mirror the point set: point ``t`` becomes ``2k + 1 - t``."""
    n = m.n_points
    return from_partner(permute(m.partner(), dihedral_permutations(n)[n]))
