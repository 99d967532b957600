"""Strip-form family constructors, grown families, and classification."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcmatch import families as families_module
from dcmatch import graph as graph_module
from dcmatch import verification as verification_module
from dcmatch.compat import neighbors, neighbors_bruteforce
from dcmatch.dual_tree import find_antiblocks, find_blocks
from dcmatch.errors import DomainError, ResourceLimitError
from dcmatch.families import (
    BLOCK,
    LABEL_ISOLATED,
    LABEL_PAIR,
    LABEL_PATH_LEAF,
    LABEL_PATH_MEMBER,
    LABEL_REGULAR,
    LABEL_STAR_CENTER,
    LABEL_STAR_LEAF,
    chi_conjugate,
    classify,
    classify_with_witness,
    db_partner,
    family_size,
    generate_family,
    make_db,
    make_dbd,
    make_dbdl,
    make_edb,
    make_edbl1,
    make_edbl2,
    rings,
)
from dcmatch.matching import (
    enumerate_matchings,
    insert,
    parse_matching,
    rank,
    validate,
    words,
)
from dcmatch.verification import ISOLATED_BY_K, run_checks
from symmetries import reflect, rotate

NESTED3 = parse_matching("1-6,2-5,3-4")

# Distinct members per size, computed once and pinned.  The generators at
# k=3 (star) and k=4 (path) degenerate to the two rings.
DB_SIZES = {2: 2, 4: 8, 6: 24, 8: 64}
DBD_SIZES = {3: 2, 5: 5, 7: 14, 9: 36, 11: 88}
DBDL_SIZES = {3: 2, 5: 10, 7: 42}
EDB_SIZES = {4: 2, 6: 24, 8: 96}
EDBL_UNION_SIZES = {4: 4, 6: 48, 8: 192}
I_SIZES = {1: 1, 3: 3, 5: 15, 7: 91, 9: 612}
L_SIZES = {2: 2, 3: 2, 4: 12, 5: 20, 6: 88, 7: 182, 8: 700}

# Label counts over all matchings of each size, pinned.
LABEL_COUNTS = {
    1: {LABEL_ISOLATED: 1},
    2: {LABEL_PAIR: 2},
    3: {LABEL_ISOLATED: 3, LABEL_STAR_CENTER: 2},
    4: {LABEL_PAIR: 8, LABEL_PATH_MEMBER: 2, LABEL_PATH_LEAF: 4},
    5: {LABEL_ISOLATED: 15, LABEL_STAR_CENTER: 5, LABEL_STAR_LEAF: 10,
        LABEL_REGULAR: 12},
    6: {LABEL_PAIR: 24, LABEL_PATH_MEMBER: 24, LABEL_PATH_LEAF: 48,
        LABEL_REGULAR: 36},
    7: {LABEL_ISOLATED: 91, LABEL_STAR_CENTER: 14, LABEL_STAR_LEAF: 42,
        LABEL_REGULAR: 282},
    8: {LABEL_PAIR: 64, LABEL_PATH_MEMBER: 96, LABEL_PATH_LEAF: 192,
        LABEL_REGULAR: 1078},
    9: {LABEL_ISOLATED: 612, LABEL_STAR_CENTER: 36, LABEL_STAR_LEAF: 144,
        LABEL_REGULAR: 4070},
}

chi_strategy = st.text(alphabet="+-", max_size=8)

# Strip families in classification precedence, for even and odd k.
STRIP_PRECEDENCE = (
    (("DB", LABEL_PAIR), ("EDB", LABEL_PATH_MEMBER),
     ("EDBL1", LABEL_PATH_LEAF), ("EDBL2", LABEL_PATH_LEAF)),
    (("DBD", LABEL_STAR_CENTER), ("DBDL", LABEL_STAR_LEAF)),
)
STRIP_VARIANTS = [v for row in STRIP_PRECEDENCE for v, _ in row]


def isolated(m):
    return classify(m) == LABEL_ISOLATED


def all_chi(width):
    out = [""]
    for _ in range(width):
        out = [c + s for c in out for s in "+-"]
    return out


def db_params(k):
    for chi in all_chi(k // 2 - 2 if k >= 4 else 0):
        for z in range(1, 2 * k + 1):
            yield chi, z


@lru_cache(maxsize=None)
def reference_strip_family(variant, k):
    """Every member of a strip family, from one maker call per start
    label and parameters, mapped to its smallest parameter tuple."""
    makers = {
        "DB": (k // 2, lambda chi, z: make_db(k, chi, z)),
        "DBD": ((k - 1) // 2, lambda chi, z: make_dbd(k, chi, z)),
        "DBDL": ((k - 1) // 2, lambda j, chi, z: make_dbdl(k, j, chi, z)),
        "EDB": (k // 2 - 1, lambda j, chi, z: make_edb(k, j, chi, z)),
        "EDBL1": (k // 2 - 1, lambda j, chi, z: make_edbl1(k, j, chi, z)),
        "EDBL2": (k // 2 - 1, lambda j, chi, z: make_edbl2(k, j, chi, z)),
    }
    count, make = makers[variant]
    js = [()] if variant in ("DB", "DBD") else [
        (j,) for j in range(1, count + 1)
    ]
    out = {}
    chis = all_chi(max(count - 2, 0))
    for j, chi, z in product(js, chis, range(1, 2 * k + 1)):
        params = (*j, chi, z)
        m = make(*params)
        out[m] = min(out.get(m, params), params)
    return out


class TestChiOps:
    def test_conjugate_example(self):
        assert chi_conjugate("++-++--+") == "-++--+--"

    def test_empty(self):
        assert chi_conjugate("") == ""

    @given(chi_strategy)
    def test_conjugate_involution(self, chi):
        assert chi_conjugate(chi_conjugate(chi)) == chi

    def test_rejects_stray_characters(self):
        with pytest.raises(ValueError):
            chi_conjugate("+x-")


class TestMakeDb:
    def test_pinned_k4(self):
        assert str(make_db(4, "", 1)) == "1-8,2-3,4-7,5-6"

    def test_pinned_k4_shifted(self):
        assert str(make_db(4, "", 5)) == "1-2,3-8,4-5,6-7"

    def test_smallest_host(self):
        # One element only; its horizontal edge sits on the lower row.
        assert str(make_db(2, "", 1)) == "1-4,2-3"
        assert str(make_db(2, "", 2)) == "1-2,3-4"

    def test_family_sizes(self):
        for k, size in DB_SIZES.items():
            assert len(generate_family("DB", k)) == size

    def test_members_have_one_neighbor(self):
        for k in (2, 4, 6):
            for m in generate_family("DB", k):
                assert len(neighbors(m)) == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_db(3, "", 1)
        with pytest.raises(DomainError):
            make_db(0, "", 1)
        with pytest.raises(ValueError):
            make_db(4, "+", 1)
        with pytest.raises(ValueError):
            make_db(4, "", 9)


class TestDbPartner:
    def test_pinned_small(self):
        assert db_partner(4, "", 1) == ("", 5)

    def test_pinned_wide(self):
        assert db_partner(14, "-++-+", 1) == ("-+--+", 16)

    def test_partner_is_the_unique_neighbor(self):
        for k in (2, 4, 6, 8):
            for chi, z in db_params(k):
                m = make_db(k, chi, z)
                mate = make_db(k, *db_partner(k, chi, z))
                assert neighbors(m) == {mate}

    def test_parameter_involution(self):
        # Injective parametrization from two elements up.
        for k in (4, 6, 8):
            for chi, z in db_params(k):
                assert db_partner(k, *db_partner(k, chi, z)) == (chi, z)

    def test_start_label_out_of_range(self):
        # Same range and message as the makers' start label.
        for z in (0, 99):
            message = f"start label must be in 1..8, got {z}"
            with pytest.raises(ValueError, match=message):
                db_partner(4, "", z)

    def test_two_point_host_round_trip(self):
        # At k=2 the z parameter is 2-periodic, so the involution holds
        # on matchings but not on raw parameters.
        for chi, z in db_params(2):
            back = make_db(2, *db_partner(2, *db_partner(2, chi, z)))
            assert back == make_db(2, chi, z)
        assert db_partner(2, "", 1) == ("", 2)


class TestMakeDbd:
    def test_degenerates_to_rings(self):
        got = {make_dbd(3, "", z) for z in range(1, 7)}
        assert got == set(rings(3))

    def test_family_sizes(self):
        for k, size in DBD_SIZES.items():
            assert len(generate_family("DBD", k)) == size

    def test_two_parameter_identification(self):
        # chi conjugation plus a start shift lands on the same matching;
        # the shift counts every horizontal edge's row, not just chi.
        for k in (5, 7):
            count = (k + 1) // 2 - 1
            for chi in all_chi(count - 2 if count >= 2 else 0):
                signs = ["+"] * count
                signs[-1] = "-"
                for i, c in enumerate(chi):
                    signs[1 + i] = c
                delta = signs.count("+") - signs.count("-")
                for z in range(1, 2 * k + 1):
                    z2 = (z + k + delta - 1) % (2 * k) + 1
                    assert (
                        make_dbd(k, chi, z)
                        == make_dbd(k, chi_conjugate(chi), z2)
                    )

    def test_center_degree(self):
        for k in (3, 5, 7, 9):
            width = max((k + 1) // 2 - 3, 0)
            for chi in all_chi(width):
                m = make_dbd(k, chi, 1)
                assert len(neighbors(m)) == (k + 1) // 2 - 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_dbd(4, "", 1)
        with pytest.raises(DomainError):
            make_dbd(1, "", 1)


class TestDbdl:
    def test_leaves_hang_off_their_center(self):
        for k in (5, 7):
            count = (k + 1) // 2 - 1
            for chi in all_chi(max(count - 2, 0)):
                center = make_dbd(k, chi, 1)
                for j in range(1, count + 1):
                    leaf = make_dbdl(k, j, chi, 1)
                    assert leaf in neighbors(center)
                    assert neighbors(leaf) == {center}

    def test_family_sizes(self):
        for k, size in DBDL_SIZES.items():
            assert len(generate_family("DBDL", k)) == size

    def test_degenerates_to_other_ring(self):
        for z in range(1, 7):
            center = make_dbd(3, "", z)
            leaf = make_dbdl(3, 1, "", z)
            assert {center, leaf} == set(rings(3))

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            make_dbdl(5, 3, "", 1)


class TestMakeEdb:
    def test_degenerates_to_rings(self):
        got = {make_edb(4, 1, "", z) for z in range(1, 9)}
        assert got == set(rings(4))

    def test_family_sizes(self):
        for k, size in EDB_SIZES.items():
            assert len(generate_family("EDB", k)) == size

    def test_degree_is_j_plus_two(self):
        for k in (6, 8):
            count = k // 2 - 1
            for chi in all_chi(max(count - 2, 0)):
                for j in range(1, count + 1):
                    m = make_edb(k, j, chi, 1)
                    assert len(neighbors(m)) == j + 2

    def test_degree_spot_check_wider(self):
        for j in (1, 4):
            m = make_edb(10, j, "++", 1)
            assert len(neighbors(m)) == j + 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_edb(5, 1, "", 1)
        with pytest.raises(DomainError):
            make_edb(6, 3, "", 1)
        with pytest.raises(DomainError):
            make_edb(2, 1, "", 1)


class TestEdbl:
    def test_leaves_hang_off_their_member(self):
        for k, j, chi in ((6, 1, ""), (6, 2, ""), (8, 2, "+"), (8, 3, "-")):
            host = make_edb(k, j, chi, 1)
            for leaf in (make_edbl1(k, j, chi, 1), make_edbl2(k, j, chi, 1)):
                assert leaf in neighbors(host)
                assert len(neighbors(leaf)) == 1

    def test_two_distinct_leaves(self):
        for k in (6, 8):
            one = generate_family("EDBL1", k)
            two = generate_family("EDBL2", k)
            assert len(one) == len(two) == EDBL_UNION_SIZES[k] // 2
            assert not one & two

    def test_union_sizes(self):
        for k, size in EDBL_UNION_SIZES.items():
            union = generate_family("EDBL1", k) | generate_family("EDBL2", k)
            assert len(union) == size

    def test_degenerate_leaves_coincide(self):
        # With a single element both flips give the same set of matchings.
        assert generate_family("EDBL1", 4) == generate_family("EDBL2", 4)


class TestLeafOracle:
    """Each center's leaves, made by flipping its drawing in place, are
    exactly its degree-one neighbors under the flip route."""

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_star_leaves_are_the_centers_neighbors(self, k):
        count = (k - 1) // 2
        for chi in all_chi(max(count - 2, 0)):
            for z in range(1, 2 * k + 1):
                leaves = {make_dbdl(k, j, chi, z) for j in range(1, count + 1)}
                assert leaves == neighbors(make_dbd(k, chi, z)), (chi, z)

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_path_leaves_are_the_degree_one_neighbors(self, k):
        count = k // 2 - 1
        for j, chi, z in product(
            range(1, count + 1), all_chi(max(count - 2, 0)), range(1, 2 * k + 1)
        ):
            around = neighbors(make_edb(k, j, chi, z))
            ones = {x for x in around if len(neighbors(x)) == 1}
            leaves = {make_edbl1(k, j, chi, z), make_edbl2(k, j, chi, z)}
            assert leaves == ones, (j, chi, z)


class TestStripTablesAgainstReference:
    """The rotation-built tables against one maker call per start label."""

    @pytest.mark.parametrize("variant", STRIP_VARIANTS)
    def test_members_and_witnesses(self, variant):
        for k in range(1, 11):
            try:
                reference = reference_strip_family(variant, k)
            except DomainError:
                reference = {}
            if not reference:
                # No member at this size means no such family.
                with pytest.raises(DomainError):
                    generate_family(variant, k)
                continue
            assert generate_family(variant, k) == set(reference)
            for m in reference:
                expected = next(
                    (label, reference_strip_family(v, k)[m])
                    for v, label in STRIP_PRECEDENCE[k % 2]
                    if m in reference_strip_family(v, k)
                )
                assert classify_with_witness(m) == expected


class TestStripTableKeys:
    """The strip tables hold Dyck words (``matching.words``), not
    matchings."""

    @pytest.mark.parametrize("variant", STRIP_VARIANTS)
    def test_keys_are_the_members_words(self, variant):
        for k in range(1, 11):
            try:
                reference = reference_strip_family(variant, k)
            except DomainError:
                reference = {}
            if not reference:
                continue
            by_rank = words(k)
            table = families_module._strip_family(variant, k)
            assert all(type(w) is int for w in table)
            assert table == {
                by_rank[rank(m.partner())]: params
                for m, params in reference.items()
            }


class TestMissingSizes:
    """Where a strip family does not exist, asking for it is an error."""

    @pytest.mark.parametrize(
        "variant, k, message",
        [
            *[(v, k, "even path members need even k >= 4")
              for v in ("EDB", "EDBL1", "EDBL2") for k in (1, 2, 3, 5)],
            *[("DBDL", k, "odd star centers need odd k >= 3")
              for k in (1, 2, 4)],
        ],
    )
    def test_raises_the_makers_error(self, variant, k, message):
        with pytest.raises(DomainError, match=message):
            generate_family(variant, k)
        with pytest.raises(DomainError, match=message):
            family_size(variant, k)


class TestRings:
    def test_pinned(self):
        assert tuple(map(str, rings(2))) == ("1-2,3-4", "1-4,2-3")
        assert tuple(map(str, rings(4))) == (
            "1-2,3-4,5-6,7-8",
            "1-8,2-3,4-5,6-7",
        )

    def test_all_boundary(self):
        for k in range(2, 9):
            for r in rings(k):
                for a, b in r.edges:
                    assert b - a == 1 or (a, b) == (1, 2 * k)

    def test_mutual_neighbors(self):
        for k in range(2, 9):
            r1, r2 = rings(k)
            assert r2 in neighbors_bruteforce(r1)

    def test_too_small(self):
        with pytest.raises(DomainError):
            rings(1)


class TestRecognizers:
    """The isolated label, read from the isolated word table."""

    def test_is_i_pinned(self):
        assert isolated(parse_matching("1-2"))
        assert isolated(NESTED3)
        assert not isolated(rings(3)[0])
        assert not isolated(rings(4)[0])
        assert not isolated(make_db(4, "", 1))

    def test_degree_oracle_agreement(self):
        for k in range(1, 8):
            for m in enumerate_matchings(k):
                degree = len(neighbors(m))
                assert isolated(m) == (degree == 0)

    def test_recognizer_counts(self):
        for k in (1, 3, 5, 7):
            found = sum(isolated(m) for m in enumerate_matchings(k))
            assert found == I_SIZES[k]


class TestRecognizerOracles:
    """Classification against the recursive definitions: the families
    grown by block insertion, and the dihedral symmetry."""

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_is_i_matches_grown_family(self, k):
        found = {m for m in enumerate_matchings(k) if isolated(m)}
        assert found == generate_family("I", k)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_is_l_matches_grown_family(self, k):
        # Being in L means having exactly one neighbor.
        found = {m for m in enumerate_matchings(k) if len(neighbors(m)) == 1}
        assert found == generate_family("L", k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_dihedral_invariance(self, k):
        # Each label's members, over all of its tables and before
        # precedence, are closed under the symmetries.  Reflection swaps
        # the two path-leaf tables, so only their union is closed.
        variants = [*STRIP_PRECEDENCE[k % 2]]
        if k % 2:
            variants.append(("I", LABEL_ISOLATED))
        members = {}
        for variant, label in variants:
            try:
                found = generate_family(variant, k)
            except DomainError:
                continue
            members.setdefault(label, set()).update(found)
        for found in members.values():
            assert {reflect(m) for m in found} == found
            assert {rotate(m, 1) for m in found} == found

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 11])
    def test_isolated_count_matches_pinned_table(self, k):
        found = sum(isolated(m) for m in enumerate_matchings(k))
        assert found == ISOLATED_BY_K[k]

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
    def test_isolated_table_shares_no_word(self, k):
        # So precedence cannot change a label.  At k = 1 there is no star
        # table to share with.
        words_of = families_module._family_words
        for variant in ("DBD", "DBDL"):
            assert words_of("I", k).keys().isdisjoint(words_of(variant, k))


@lru_cache(maxsize=None)
def reference_grown_family(base, k):
    """Oracle: the block insertion on matchings.  Every member of size
    k - 2 gets BLOCK spliced in before point 1, and the result is
    rotated every way; the seeds are the single chord for I and the
    size 2 and 3 rings for L."""
    if base == "I" and k == 1:
        return frozenset({validate([(1, 2)])})
    if base == "L" and k in (2, 3):
        return frozenset(rings(k))
    out = set()
    for m in reference_grown_family(base, k - 2):
        grown = insert(m, BLOCK, 0)
        out |= {rotate(grown, s) for s in range(grown.n_points)}
    return frozenset(out)


class TestWordGrowth:
    """The I and L families grown as Dyck words, against the block
    insertion on matchings."""

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 11])
    def test_isolated_matches_insertion(self, k):
        assert generate_family("I", k) == reference_grown_family("I", k)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_degree_one_matches_insertion(self, k):
        assert generate_family("L", k) == reference_grown_family("L", k)

    @pytest.mark.parametrize(
        "variant, k",
        [("I", 9), ("L", 8), ("DB", 6), ("DBD", 9), ("DBDL", 7), ("EDB", 8),
         ("EDBL1", 8), ("EDBL2", 8), ("Ring", 6)],
    )
    def test_size_counts_the_members(self, variant, k):
        assert family_size(variant, k) == len(generate_family(variant, k))

    def test_family_counts_reads_no_graph(self, monkeypatch):
        # The check grows the families from their seeds alone: neither a
        # graph nor its orbit tables may be asked for.
        def refuse(*args, **kwargs):
            raise AssertionError("family-counts read the graph")

        for module in (graph_module, verification_module):
            monkeypatch.setattr(module, "build_graph", refuse)
        monkeypatch.setattr(graph_module, "orbit_tables", refuse)
        [result] = run_checks(1, 12, names=("family-counts",))
        assert result.status == "pass", result.detail

    def test_each_isolated_size_grows_once(self, monkeypatch):
        # Each odd size grows from the table kept for the previous one.
        grown = []
        real = families_module._grown_family

        def counted(base, k):
            grown.append((base, k))
            return real(base, k)

        monkeypatch.setattr(families_module, "_grown_family", counted)
        families_module._tables.cache_clear()
        families_module._isolated.cache_clear()
        families_module._tables(9)
        grown.clear()
        families_module._tables(11)
        assert grown == [("I", 11)]

    def test_family_counts_retain_little(self):
        # The degree-one word sets die with each count; only the strip
        # and isolated tables stay cached.  tracemalloc counts Python
        # allocations only, in a fresh interpreter so that no earlier
        # test has filled a table.  The check retained 0.42 MB, most of
        # it the isolated table at k = 11, where keeping every grown size
        # (49588 degree-one words at k = 12) retained 6.38 MB.
        code = (
            "import tracemalloc; from dcmatch.verification import run_checks; "
            "tracemalloc.start(); "
            "[r] = run_checks(1, 12, names=('family-counts',)); "
            "assert r.status == 'pass', r.detail; "
            "print(tracemalloc.get_traced_memory()[0])"
        )
        root = str(Path(families_module.__file__).parents[1])
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1 << 20


class TestGenerateFamily:
    def test_i_sizes(self):
        for k, size in I_SIZES.items():
            assert len(generate_family("I", k)) == size

    def test_l_sizes(self):
        for k, size in L_SIZES.items():
            assert len(generate_family("L", k)) == size

    def test_members_have_matching_size(self):
        for variant, k in (("I", 5), ("L", 4), ("DB", 6), ("DBD", 7)):
            for m in generate_family(variant, k):
                assert m.k == k

    def test_isolated_members_have_no_antiblocks(self):
        for k in (1, 3, 5, 7, 9):
            for m in generate_family("I", k):
                assert find_antiblocks(m.partner()) == []

    def test_isolated_members_have_two_blocks(self):
        for k in (3, 5, 7):
            for m in generate_family("I", k):
                assert len(find_blocks(m.partner())) >= 2

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            generate_family("XY", 4)

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            generate_family("I", 4)
        with pytest.raises(DomainError):
            generate_family("DB", 5)


class TestClassify:
    def test_sizes_over_the_cap_are_refused(self, monkeypatch):
        # The tables of a size are grown only under the configured cap.
        m = make_dbd(13, "+-+-", 1)
        monkeypatch.delenv("DCM_MAX_K", raising=False)
        for call in (
            lambda: classify(m),
            lambda: classify_with_witness(m),
            lambda: generate_family("DBD", 13),
            lambda: family_size("I", 13),
        ):
            with pytest.raises(ResourceLimitError):
                call()
        monkeypatch.setenv("DCM_MAX_K", "13")
        assert classify(m) == LABEL_STAR_CENTER

    def test_pinned_labels(self):
        assert classify(parse_matching("1-2")) == LABEL_ISOLATED
        assert classify(NESTED3) == LABEL_ISOLATED
        assert classify(rings(2)[0]) == LABEL_PAIR
        assert classify(rings(2)[1]) == LABEL_PAIR
        assert classify(rings(3)[0]) == LABEL_STAR_CENTER
        assert classify(rings(4)[0]) == LABEL_PATH_MEMBER
        assert classify(rings(5)[0]) == LABEL_REGULAR
        assert classify(make_db(6, "+", 1)) == LABEL_PAIR
        assert classify(make_edb(8, 2, "+", 1)) == LABEL_PATH_MEMBER
        assert classify(make_dbdl(7, 2, "+", 3)) == LABEL_STAR_LEAF
        assert classify(make_edbl1(6, 1, "", 4)) == LABEL_PATH_LEAF
        assert classify(make_edbl2(8, 3, "-", 1)) == LABEL_PATH_LEAF

    def test_witness_rebuilds_the_matching(self):
        m = make_db(6, "-", 7)
        assert classify_with_witness(m) == (LABEL_PAIR, ("-", 7))
        m = make_edb(6, 1, "", 2)
        assert classify_with_witness(m) == (LABEL_PATH_MEMBER, (1, "", 2))
        m = make_dbd(5, "", 4)
        label, witness = classify_with_witness(m)
        assert label == LABEL_STAR_CENTER
        assert make_dbd(5, *witness) == m

    def test_no_witness_for_unparametrized_labels(self):
        assert classify_with_witness(NESTED3) == (LABEL_ISOLATED, None)
        assert classify_with_witness(rings(5)[0]) == (LABEL_REGULAR, None)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_census(self, k):
        counts = Counter(classify(m) for m in enumerate_matchings(k))
        assert counts == LABEL_COUNTS[k]

    def test_center_label_wins_at_k3(self):
        # The size-3 rings belong to the star and the leaf family at once.
        r = rings(3)[0]
        assert r in generate_family("DBD", 3)
        assert r in generate_family("DBDL", 3)
        assert classify(r) == LABEL_STAR_CENTER

    @pytest.mark.parametrize("k", range(1, 10))
    def test_label_is_dihedral_invariant(self, k):
        # The census classifies one matching per dihedral orbit; rotation
        # by one and one reflection generate the group.
        for m in enumerate_matchings(k):
            assert classify(m) == classify(rotate(m, 1)) == classify(reflect(m))
