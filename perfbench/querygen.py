"""Seeded inputs for the query-mix workload.

Each query is a uniformly random non-crossing perfect matching, emitted in
the package's ``a-b,c-d,...`` string form, so the package under test sees
only strings and pays for parsing them.  Uniformity comes from the cycle
lemma: a random arrangement of k up-steps and k+1 down-steps has exactly
one rotation whose proper prefix sums are all non-negative, and every
Dyck word of semilength k is reached from exactly 2k+1 arrangements.
"""

from __future__ import annotations

import random

SIZES = (9, 10, 11, 12)


def dyck_word(k: int, rng: random.Random) -> list[int]:
    """A uniformly random Dyck word of semilength ``k`` as +1/-1 steps."""
    steps = [1] * k + [-1] * (k + 1)
    rng.shuffle(steps)
    # Rotate to start just after the first minimum of the prefix sums.
    total = low = cut = 0
    for i, step in enumerate(steps):
        total += step
        if total < low:
            low, cut = total, i + 1
    rotated = steps[cut:] + steps[:cut]
    return rotated[:-1]


def matching_string(word: list[int]) -> str:
    """The non-crossing matching of a Dyck word, points numbered from 1."""
    opened: list[int] = []
    edges = []
    for point, step in enumerate(word, 1):
        if step > 0:
            opened.append(point)
        else:
            edges.append((opened.pop(), point))
    edges.sort()
    return ",".join(f"{a}-{b}" for a, b in edges)


def query_size(text: str) -> int:
    return text.count(",") + 1


def queries(seed: int, batch: int, count: int, sizes=SIZES) -> list[str]:
    """``count`` query strings, fixed by ``seed`` and the batch number."""
    rng = random.Random(f"query-mix/{seed}/{batch}")
    return [matching_string(dyck_word(rng.choice(sizes), rng)) for _ in range(count)]
