"""Closed-form counts and generating series for the compatibility graph.

Everything here is exact: integers are arbitrary precision, series are
integer coefficient lists, and the one ratio on offer is a Fraction.
Formulas whose validity starts at some size raise DomainError below it
instead of extrapolating.

The count_* functions take the half-size parameter l: odd-size families
live on 2*l - 1 edges, even-size families on 2*l.  ``census_shape(k)``
combines them into the component census of size k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    assert r == 0, f"{what} is not an integer: {num}/{den}"
    return q


def catalan(k: int) -> int:
    """Number of non-crossing perfect matchings of 2k points."""
    if k < 0:
        raise DomainError(f"catalan needs k >= 0, got {k}")
    return _exact_div(comb(2 * k, k), k + 1, "catalan number")


# -- family counts (l is the half-size) -------------------------------------


def count_I(l: int) -> int:
    """Number of isolated matchings of size 2l-1."""
    if l < 1:
        raise DomainError(f"isolated matchings need l >= 1, got {l}")
    return _exact_div(comb(4 * l - 2, l - 1), l, "isolated count")


def count_L_odd(l: int) -> int:
    """Number of degree-one matchings of odd size 2l-1."""
    if l < 1:
        raise DomainError(f"degree-one counts need l >= 1, got {l}")
    val = Fraction(2 * (l - 1), 3 * l) * comb(4 * l - 2, l - 1)
    assert val.denominator == 1, f"odd leaf count not integral at l={l}"
    return int(val)


def count_L_even(l: int) -> int:
    """Number of degree-one matchings of even size 2l."""
    if l < 1:
        raise DomainError(f"degree-one counts need l >= 1, got {l}")
    val = Fraction(l + 1, 3 * l + 1) * comb(4 * l, l)
    assert val.denominator == 1, f"even leaf count not integral at l={l}"
    return int(val)


def count_DB(l: int) -> int:
    """Number of paired matchings of size 2l (two per pair component)."""
    if l < 1:
        raise DomainError(f"paired matchings need l >= 1, got {l}")
    return l * 2**l


def count_pairs(l: int) -> int:
    """Number of two-vertex components among matchings of size 2l."""
    if l < 1:
        raise DomainError(f"pair components need l >= 1, got {l}")
    return l * 2 ** (l - 1)


def count_DBD(l: int) -> int:
    """Number of star components among matchings of odd size 2l-1."""
    if l < 3:
        raise DomainError(f"star component count starts at l = 3, got {l}")
    return (2 * l - 1) * 2 ** (l - 3)


def count_EDB_components(l: int) -> int:
    """Number of path-with-leaves components among matchings of size 2l."""
    if l < 3:
        raise DomainError(f"path component count starts at l = 3, got {l}")
    return l * 2 ** (l - 2)


def medium_odd_order(l: int) -> int:
    """Order of each star component at odd size 2l-1."""
    if l < 2:
        raise DomainError(f"star components exist from l = 2 on, got {l}")
    return l


def medium_even_order(l: int) -> int:
    """Order of each path-with-leaves component at even size 2l."""
    if l < 2:
        raise DomainError(f"path components exist from l = 2 on, got {l}")
    return 6 * l - 6


# -- maximum degree ----------------------------------------------------------


def riordan(k: int) -> int:
    """Maximum vertex degree in the size-k graph, attained by the rings."""
    if k < 2:
        raise DomainError(f"the degree formula needs k >= 2, got {k}")
    total = sum(
        comb(k + 1, i) * comb(k - i - 1, i - 1) for i in range(1, k // 2 + 1)
    )
    return _exact_div(total, k + 1, "ring degree")


# -- edge counts via the defining series equation ----------------------------


def edge_series(n: int) -> tuple[int, ...]:
    """Edge counts d_0..d_n of the graphs of sizes 0..n.

    The doubled-and-shifted series Z = 2z - 1 satisfies
    Z = 1 + 2x^2 Z^4 / (1 - x Z^2), that is Z = 1 + x Z^3 - x Z^2 + 2x^2 Z^4
    with the denominator multiplied out.  The x^m coefficient on the right
    reads Z only below degree m, so the coefficients follow one at a time,
    each extending running coefficient lists of Z^2, Z^3 and Z^4.
    """
    if n < 0:
        raise DomainError(f"series length must be >= 0, got {n}")
    big, sq, cube, fourth = [1], [1], [1], [1]
    for m in range(1, n + 1):
        big.append(cube[m - 1] - sq[m - 1] + (2 * fourth[m - 2] if m > 1 else 0))
        for power, lower in ((sq, big), (cube, sq), (fourth, cube)):
            power.append(sum(big[i] * lower[m - i] for i in range(m + 1)))
    halved = []
    for i, c in enumerate(big):
        num = c + 1 if i == 0 else c
        assert num % 2 == 0, f"coefficient {i} of the doubled series is odd"
        halved.append(num // 2)
    return tuple(halved)


def growth_estimate(n: int) -> Fraction:
    """Ratio d_n / d_(n-1), an exact probe of the edge-count growth rate.

    Early ratios sit far from the limit; the probe only becomes
    meaningful past the first dozen terms.  n=2 is excluded outright
    because the size-1 graph has no edges.
    """
    if n < 3:
        raise DomainError(f"growth ratios need n >= 3, got {n}")
    d = edge_series(n)
    return Fraction(d[n], d[n - 1])


# -- the census --------------------------------------------------------------


def census_shape(k: int) -> tuple[int, int, int, int]:
    """``(small_count, small_order, medium_count, medium_order)`` at size k.

    Small components are the isolated vertices at odd k and the pairs at
    even k; medium ones are the stars (odd) and the chord-decorated paths
    (even), with 0 for both medium entries at k = 1, 2.  Every other
    vertex lies in the one big component.
    """
    if k < 1:
        raise DomainError(f"the census needs k >= 1, got {k}")
    l = (k + 1) // 2
    small = (count_I(l), 1) if k % 2 else (count_pairs(l), 2)
    if l == 1:
        return (*small, 0, 0)
    count, order = (
        (count_DBD, medium_odd_order) if k % 2
        else (count_EDB_components, medium_even_order)
    )
    # At l = 2 the one medium component comes before either count formula.
    return (*small, count(l) if l >= 3 else 1, order(l))


def big_component_order(k: int) -> int:
    """Order of the ring component, by subtracting every special family.

    Valid from k = 9 on, where all non-ring components are exactly the
    isolated vertices, pairs, stars, and paths-with-leaves.
    """
    if k < 9:
        raise DomainError(f"the subtraction formula needs k >= 9, got {k}")
    small_count, small_order, medium_count, medium_order = census_shape(k)
    return catalan(k) - small_count * small_order - medium_count * medium_order
