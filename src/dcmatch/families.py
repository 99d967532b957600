"""Structured matching families and their strip-form constructors.

Several families of matchings with extreme degrees have a normal form on
a two-row strip: points sit on an upper and a lower row, read clockwise
(upper row left to right, then lower row right to left), with the start
label free.  Each *element* is a vertical edge (one point per row)
followed by a horizontal edge (two points on one row, recorded as ``+``
for upper and ``-`` for lower).  The first element is ``+``, the last
``-``, and the free middle signs form the family parameter ``chi``.
The start label ``z`` only rotates the drawing, by ``z - 1`` steps.
A drawing lists integer edge ids on each row: element i has the vertical
id 2i and the horizontal id 2i + 1, and ids past the elements are the
extra edges of a family.  Labelling its points gives a partner table.

Families:

* isolated matchings (no neighbor): grown from the single 2-point
  matching by repeatedly inserting :data:`BLOCK` (two chords on four
  consecutive points, paired outer/inner);
* degree-one matchings: grown the same way from the size 2 and 3 rings;
* paired matchings (``make_db``): elements only; mutual unique neighbors,
  linked by :func:`db_partner`;
* odd star centers (``make_dbd``): elements plus one trailing vertical
  edge; their leaves (``make_dbdl``) arise by one flip;
* even path members (``make_edb``): elements plus an extra horizontal
  pair next to the j-th element and its twin on the opposite row; their
  leaves (``make_edbl1``, ``make_edbl2``) arise by one flip.

A leaf maker flips its center's partner table in place, one group of
ids at a time (``compat.flip_group``).

The two grown families are tables of Dyck words (``matching.words``)
with no parameters.  Each odd size's isolated table is grown once per
process, from the previous size's, and kept, as the classify tables
keep it anyway; the degree-one table, which runs to megabytes and no
classify table holds, is regrown from its seeds on each call.
Splicing the block before point 1 puts the word ``1100`` in front of
the host's word, and splicing it into the other gaps gives that word's
rotations, walked one step at a time (``matching.word_rotations``).
``generate_family`` makes their matchings afresh on each call;
``family_size`` counts the words.

Each strip family's table, built lazily per size, maps the Dyck word of
every member to its smallest parameters: one maker call per ``(j, chi)``
at ``z = 1``, then that word's rotations.  Classification encodes a
matching as a word once and looks it up in the size's tables in
precedence order, the isolated table first.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .matching import (
    Matching,
    check_size,
    from_partner,
    partner_word,
    validate,
    word_partners,
    word_rotations,
)
from .compat import flip_group

LABEL_ISOLATED = "Isolated-I"
LABEL_PAIR = "Pair-DB"
LABEL_STAR_CENTER = "Medium-DBD"
LABEL_STAR_LEAF = "Medium-DBDL"
LABEL_PATH_MEMBER = "Medium-EDB"
LABEL_PATH_LEAF = "Medium-EDBL"
LABEL_REGULAR = "Regular"

FAMILY_VARIANTS = ("I", "L", "Ring", "DB", "DBD", "DBDL", "EDB", "EDBL1", "EDBL2")

# Two edges on four consecutive points, outer pair first.  Splicing it
# into any gap of a host matching leaves the host's degree unchanged.
BLOCK = validate([(1, 4), (2, 3)])


# -- sign strings -----------------------------------------------------------


def _check_chi(chi: str, expected: int) -> None:
    if len(chi) != expected or any(c not in "+-" for c in chi):
        raise ValueError(
            f"chi must be a +/- string of length {expected}, got {chi!r}"
        )


def chi_conjugate(chi: str) -> str:
    """Reverse the sign string and flip every sign."""
    _check_chi(chi, len(chi))
    return "".join("+" if c == "-" else "-" for c in reversed(chi))


# -- strip drawings ---------------------------------------------------------


def _chi_len(elements: int) -> int:
    return max(elements - 2, 0)


def _check_z(z: int, n: int) -> None:
    if not 1 <= z <= n:
        raise ValueError(f"start label must be in 1..{n}, got {z}")


def _rows(count: int, chi: str) -> tuple[list[int], list[int]]:
    # The upper and lower rows of the elements, left to right: each
    # vertical id once per row, each horizontal id twice on its sign's row.
    # The first element is +, the last -, and chi fills the middle; a
    # single element is -.
    _check_chi(chi, _chi_len(count))
    upper: list[int] = []
    lower: list[int] = []
    for i, sign in enumerate(("+" + chi + "-")[-count:]):
        upper.append(2 * i)
        lower.append(2 * i)
        (upper if sign == "+" else lower).extend((2 * i + 1, 2 * i + 1))
    return upper, lower


def _draw(
    upper: list[int], lower: list[int], z: int
) -> tuple[list[int], list[list[int]]]:
    """Partner table of a strip drawing, and the two points of each id.

    Points are labelled clockwise from ``z``: the upper row left to
    right, then the lower row right to left.
    """
    order = upper + lower[::-1]
    n = len(order)
    _check_z(z, n)
    ends: list[list[int]] = [[] for _ in range(n // 2)]
    for t, e in enumerate(order, z - 1):
        ends[e].append(t % n + 1)
    p = [0] * (n + 1)
    for a, b in ends:
        p[a], p[b] = b, a
    return p, ends


def _leaf(p: list[int], ends: list[list[int]], groups: list[tuple]) -> Matching:
    # Flip each group of ids of the drawing in place.
    for group in groups:
        flip_group(p, sorted(t for e in group for t in ends[e]))
    return validate(from_partner(p).edges)


def make_db(k: int, chi: str, z: int) -> Matching:
    """Element-only strip matching on 2k points (k even)."""
    if k < 2 or k % 2:
        raise DomainError(f"paired strip matchings need even k >= 2, got {k}")
    return validate(_draw(*_rows(k // 2, chi), z)[1])


def db_partner(k: int, chi: str, z: int) -> tuple[str, int]:
    """Parameters of the unique neighbor of ``make_db(k, chi, z)``.

    The start label shifts by k plus the excess of upper over lower
    horizontal edges.  With at least two elements it is the excess of
    ``+`` over ``-`` signs in ``chi`` (the fixed first and last signs
    cancel); the single-element host is a lone ``-``.
    """
    if k < 2 or k % 2:
        raise DomainError(f"paired strip matchings need even k >= 2, got {k}")
    upper, lower = _rows(k // 2, chi)
    _check_z(z, 2 * k)
    delta = (len(upper) - len(lower)) // 2
    z2 = (z + k + delta - 1) % (2 * k) + 1
    return chi_conjugate(chi), z2


def _dbd(k: int, chi: str, z: int) -> tuple[list[int], list[list[int]]]:
    # The elements, then a trailing vertical edge.
    if k < 3 or k % 2 == 0:
        raise DomainError(f"odd star centers need odd k >= 3, got {k}")
    count = (k - 1) // 2
    upper, lower = _rows(count, chi)
    return _draw(upper + [2 * count], lower + [2 * count], z)


def make_dbd(k: int, chi: str, z: int) -> Matching:
    """Strip matching with a trailing vertical edge, on 2k points (k odd).

    For k >= 5 each such matching arises from exactly two parameter
    choices, linked the same way as paired matchings.
    """
    return validate(_dbd(k, chi, z)[1])


def _edb(k: int, j: int, chi: str, z: int) -> tuple[list[int], list[list[int]]]:
    # The elements, with the extra pair e (id 2 * count) and its twin e2
    # (the next id) after the j-th vertical edge, e on the j-th element's row.
    if k < 4 or k % 2:
        raise DomainError(f"even path members need even k >= 4, got {k}")
    count = k // 2 - 1
    if not 1 <= j <= count:
        raise DomainError(f"j must be in 1..{count}, got {j}")
    upper, lower = _rows(count, chi)
    twins = (upper, lower) if 2 * j - 1 in upper else (lower, upper)
    for row, extra in zip(twins, (2 * count, 2 * count + 1)):
        at = row.index(2 * j - 2) + 1
        row[at:at] = (extra, extra)
    return _draw(upper, lower, z)


def make_edb(k: int, j: int, chi: str, z: int) -> Matching:
    """Strip matching with an extra horizontal pair at element j (k even).

    The extra pair ``e`` sits immediately left of the j-th horizontal
    edge on its row; its twin ``e2`` sits on the other row immediately
    right of the j-th vertical edge.
    """
    return validate(_edb(k, j, chi, z)[1])


def make_dbdl(k: int, j: int, chi: str, z: int) -> Matching:
    """Leaf attached to the odd star center: one flip of ``make_dbd``."""
    p, ends = _dbd(k, chi, z)
    count = len(ends) // 2
    if not 1 <= j <= count:
        raise DomainError(f"j must be in 1..{count}, got {j}")
    # Elements before the j-th flip with their own vertical edge, the j-th
    # with both of its neighbours, later ones with the vertical on the right.
    groups = [(2 * i, 2 * i + 1) for i in range(j - 1)]
    groups.append((2 * j - 2, 2 * j - 1, 2 * j))
    groups += [(2 * i + 1, 2 * i + 2) for i in range(j, count)]
    return _leaf(p, ends, groups)


def _edb_leaf(k: int, j: int, chi: str, z: int, twin: int) -> Matching:
    # Elements other than the j-th flip with their own vertical edge; the
    # j-th element's two edges each flip with one of e and e2.
    p, ends = _edb(k, j, chi, z)
    e = len(ends) - 2
    groups = [(2 * i, 2 * i + 1) for i in range(e // 2) if i != j - 1]
    groups += [(2 * j - 2, e + twin), (2 * j - 1, e + 1 - twin)]
    return _leaf(p, ends, groups)


def make_edbl1(k: int, j: int, chi: str, z: int) -> Matching:
    """First leaf hanging off ``make_edb(k, j, chi, z)``."""
    return _edb_leaf(k, j, chi, z, 1)


def make_edbl2(k: int, j: int, chi: str, z: int) -> Matching:
    """Second leaf hanging off ``make_edb(k, j, chi, z)``."""
    return _edb_leaf(k, j, chi, z, 0)


# -- rings -------------------------------------------------------------------


def rings(k: int) -> tuple[Matching, Matching]:
    """The two matchings whose edges are all boundary edges (k >= 2)."""
    if k < 2:
        raise DomainError(f"rings need k >= 2, got {k}")
    r1 = validate([(i, i + 1) for i in range(1, 2 * k, 2)])
    r2 = validate(
        [(1, 2 * k)] + [(i, i + 1) for i in range(2, 2 * k - 1, 2)]
    )
    return r1, r2


# -- family generation ------------------------------------------------------


# Seed words: the single chord for I, the size 2 and 3 rings for L.
_SEEDS = {
    ("I", 1): (0b10,),
    ("L", 2): (0b1010, 0b1100),
    ("L", 3): (0b101010, 0b110100),
}


def _grown_family(base: str, k: int) -> dict[int, None]:
    # The Dyck words (matching.words) of the size-k members of I or L,
    # each mapped to no witness.  BLOCK spliced in before point 1 puts the
    # word 1100 in front of the host's word; every other gap is a rotation
    # of that.  A grown word already found came with all its rotations.
    if base == "I" and (k % 2 == 0 or k < 1):
        raise DomainError(f"isolated matchings need odd k >= 1, got {k}")
    if base == "L" and k < 2:
        raise DomainError(f"degree-one matchings need k >= 2, got {k}")
    if (base, k) in _SEEDS:
        return dict.fromkeys(_SEEDS[base, k])
    hosts = _isolated(k - 2) if base == "I" else _grown_family(base, k - 2)
    head = 0b1100 << (2 * k - 4)
    out: set[int] = set()
    for w in hosts:
        grown = head | w
        if grown not in out:
            out.update(word_rotations(grown, word_partners(grown, k)))
    return dict.fromkeys(out)


@lru_cache(maxsize=None)
def _isolated(k: int) -> dict[int, None]:
    # The size-k isolated table, kept for the next odd size to grow from.
    return _grown_family("I", k)


def family_size(variant: str, k: int) -> int:
    """Number of size-k members of one named family; all but the rings
    are counted as words, without making their matchings."""
    if variant == "Ring" or variant not in FAMILY_VARIANTS:
        return len(generate_family(variant, k))
    return len(_family_words(variant, k))


def _family_words(variant: str, k: int) -> dict[int, tuple | None]:
    # The Dyck words of the size-k members of I, L or a strip family,
    # each mapped to its smallest parameters, or to None for I and L.
    # Below size 1, the family's own bound is the error.
    if k >= 1:
        check_size(k)
    if variant == "I":
        return _isolated(k)
    if variant == "L":
        return _grown_family(variant, k)
    return _strip_family(variant, k)


@lru_cache(maxsize=None)
def _strip_family(variant: str, k: int) -> dict[int, tuple]:
    """The Dyck words of all members of a strip-built family, mapped to
    their smallest parameter tuples."""
    makers = {
        "DB": make_db, "DBD": make_dbd, "DBDL": make_dbdl,
        "EDB": make_edb, "EDBL1": make_edbl1, "EDBL2": make_edbl2,
    }
    make = makers[variant]
    # Path members have one element fewer than pairs and odd stars; at a
    # size without the family the maker raises before the count matters.
    count = k // 2 - 1 if variant.startswith("E") else k // 2
    # Witnesses are (chi, z), or (j, chi, z) where the maker takes j; z is
    # a rotation by z - 1.  Parameters ascend, so the first one kept for a
    # word is its smallest.  j = 1 is always tried, so at a size without
    # the family the maker raises its own DomainError.
    js = [()] if variant in ("DB", "DBD") else [
        (j,) for j in range(1, max(count, 1) + 1)
    ]
    out: dict[int, tuple] = {}
    for j in js:
        for chi in _all_chi(_chi_len(count)):
            p = make(k, *j, chi, 1).partner()
            for z, w in enumerate(word_rotations(partner_word(p), p), 1):
                out.setdefault(w, (*j, chi, z))
    return out


def _all_chi(width: int) -> list[str]:
    out = [""]
    for _ in range(width):
        out = [c + s for c in out for s in "+-"]
    return out


def generate_family(variant: str, k: int) -> set[Matching]:
    """All size-k members of one named family, made from their words on
    each call."""
    if variant == "Ring":
        return set(rings(k))
    if variant not in FAMILY_VARIANTS:
        raise ValueError(
            f"variant must be one of {FAMILY_VARIANTS}, got {variant!r}"
        )
    return {from_partner(word_partners(w, k)) for w in _family_words(variant, k)}


# Family tables in precedence order for even and odd k: (variant, label,
# smallest k).
_PRECEDENCE = (
    (("DB", LABEL_PAIR, 2), ("EDB", LABEL_PATH_MEMBER, 4),
     ("EDBL1", LABEL_PATH_LEAF, 4), ("EDBL2", LABEL_PATH_LEAF, 4)),
    (("I", LABEL_ISOLATED, 1), ("DBD", LABEL_STAR_CENTER, 3),
     ("DBDL", LABEL_STAR_LEAF, 3)),
)


@lru_cache(maxsize=None)
def _tables(k: int) -> tuple[tuple[str, dict[int, tuple | None]], ...]:
    # The size-k family tables in precedence order, each with its label.
    return tuple(
        (label, _family_words(variant, k))
        for variant, label, smallest in _PRECEDENCE[k % 2]
        if k >= smallest
    )


def _classify_word(w: int, k: int) -> tuple[str, tuple | None]:
    # The first size-k table, in precedence order, that holds word w.
    for label, table in _tables(k):
        if w in table:
            return label, table[w]
    return LABEL_REGULAR, None


def classify_with_witness(m: Matching) -> tuple[str, tuple | None]:
    """Family label of a matching, with strip parameters when known; the
    Dyck word is read off the edges, whose first points open the chords."""
    return _classify_word(sum([1 << 2 * m.k - a for a, _ in m.edges]), m.k)


def classify(m: Matching) -> str:
    """Family label: isolated, pair member, star center or leaf, path
    member or leaf, or regular."""
    return classify_with_witness(m)[0]
