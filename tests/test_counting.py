"""Exact count formulas, series coefficients, and their oracles."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcmatch.compat import neighbors
from dcmatch.counting import (
    big_component_order,
    catalan,
    census_shape,
    count_DB,
    count_DBD,
    count_EDB_components,
    count_I,
    count_L_even,
    count_L_odd,
    count_pairs,
    edge_series,
    growth_estimate,
    medium_even_order,
    medium_odd_order,
    riordan,
)
from dcmatch.errors import DomainError
from dcmatch.families import generate_family, rings
from dcmatch.matching import enumerate_matchings
from dcmatch.verification import (
    EVEN_MEDIUMS_BY_K,
    ISOLATED_BY_K,
    ODD_MEDIUMS_BY_K,
    PAIRS_BY_K,
)
from reference import reference_edge_series

CATALAN_ROW = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
RIORDAN_ROW = {2: 1, 3: 1, 4: 3, 5: 6, 6: 15, 7: 36, 8: 91, 12: 4213}
EDGE_ROW = (1, 0, 1, 1, 9, 21, 125, 421, 2161, 8677, 42245)
# d_11 and d_12, past the edge-counts check's k = 2..10.
EDGE_TAIL = (185285, 888937)


class TestCatalan:
    def test_row(self):
        assert [catalan(k) for k in range(13)] == CATALAN_ROW

    def test_matches_enumeration(self):
        assert catalan(0) == 1
        for k in range(1, 7):
            assert catalan(k) == len(enumerate_matchings(k))

    @given(st.integers(min_value=0, max_value=60))
    def test_ballot_identity(self, k):
        assert catalan(k) == comb(2 * k, k) - comb(2 * k, k + 1)

    def test_negative(self):
        with pytest.raises(DomainError):
            catalan(-1)


class TestRiordan:
    def test_frozen_values(self):
        for k, r in RIORDAN_ROW.items():
            assert riordan(k) == r

    def test_matches_ring_degree(self):
        for k in range(2, 7):
            assert riordan(k) == len(neighbors(rings(k)[0]))

    def test_ratio_recurrence(self):
        # r_k = (k-1)(2 r_{k-1} + 3 r_{k-2}) / (k+1), seeded r_1=0, r_2=1.
        prev2, prev = 0, 1
        for k in range(3, 30):
            val = Fraction((k - 1) * (2 * prev + 3 * prev2), k + 1)
            assert val.denominator == 1
            assert riordan(k) == val
            prev2, prev = prev, int(val)

    def test_domain(self):
        with pytest.raises(DomainError):
            riordan(1)


class TestFamilyCounts:
    def test_isolated_vs_generated(self):
        for l in range(1, 6):
            assert count_I(l) == len(generate_family("I", 2 * l - 1))

    def test_leaves_vs_generated(self):
        assert count_L_odd(1) == 0
        for l in (2, 3, 4):
            assert count_L_odd(l) == len(generate_family("L", 2 * l - 1))
        for l in (1, 2, 3, 4):
            assert count_L_even(l) == len(generate_family("L", 2 * l))

    def test_paired_vs_generated(self):
        for l in (1, 2, 3, 4):
            assert count_DB(l) == len(generate_family("DB", 2 * l))
            assert count_DB(l) == 2 * count_pairs(l)

    def test_star_components_vs_generated(self):
        for l in (3, 4, 5):
            k = 2 * l - 1
            assert count_DBD(l) == len(generate_family("DBD", k))
            star_total = len(generate_family("DBD", k)) + len(
                generate_family("DBDL", k)
            )
            assert count_DBD(l) * medium_odd_order(l) == star_total

    def test_path_components_vs_generated(self):
        for l in (3, 4):
            k = 2 * l
            leaves = generate_family("EDBL1", k) | generate_family("EDBL2", k)
            path_total = len(generate_family("EDB", k)) + len(leaves)
            assert count_EDB_components(l) * medium_even_order(l) == path_total

    def test_table_rows(self):
        assert [count_I(l) for l in range(1, 7)] == [1, 3, 15, 91, 612, 4389]
        assert [count_pairs(l) for l in range(1, 7)] == [1, 4, 12, 32, 80, 192]
        assert [count_DBD(l) for l in range(3, 7)] == [5, 14, 36, 88]
        assert [count_EDB_components(l) for l in range(3, 7)] == [6, 16, 40, 96]
        assert [medium_odd_order(l) for l in range(2, 7)] == [2, 3, 4, 5, 6]
        assert [medium_even_order(l) for l in range(2, 7)] == [6, 12, 18, 24, 30]

    def test_validity_thresholds(self):
        with pytest.raises(DomainError):
            count_DBD(2)
        with pytest.raises(DomainError):
            count_EDB_components(2)
        with pytest.raises(DomainError):
            medium_odd_order(1)
        with pytest.raises(DomainError):
            medium_even_order(1)
        with pytest.raises(DomainError):
            count_I(0)


class TestEdgeSeries:
    def test_frozen_row(self):
        assert edge_series(10) == EDGE_ROW

    def test_frozen_tail(self):
        assert edge_series(12)[11:] == EDGE_TAIL

    def test_matches_neighbor_sums(self):
        d = edge_series(6)
        for k in range(1, 7):
            degree_sum = sum(len(neighbors(m)) for m in enumerate_matchings(k))
            assert degree_sum == 2 * d[k]

    def test_prefix_stability(self):
        long = edge_series(16)
        assert long[:11] == EDGE_ROW
        assert edge_series(3) == (1, 0, 1, 1)

    def test_table_protocol(self):
        table = edge_series(4)
        assert isinstance(table, tuple)
        assert len(table) == 5
        assert table[4] == 9
        assert all(isinstance(c, int) for c in table)

    def test_negative(self):
        with pytest.raises(DomainError):
            edge_series(-1)

    def test_matches_the_fixed_point_iteration(self):
        for n in range(61):
            assert edge_series(n) == reference_edge_series(n), n


class TestGrowth:
    def test_early_ratios(self):
        assert growth_estimate(3) == 1
        assert growth_estimate(4) == 9
        assert isinstance(growth_estimate(5), Fraction)

    def test_probe_window(self):
        assert Fraction(497, 100) <= growth_estimate(30) <= Fraction(557, 100)

    def test_trend_settles(self):
        ratios = {n: growth_estimate(n) for n in range(10, 31)}
        early = [ratios[n] for n in range(10, 21)]
        late = [ratios[n] for n in range(20, 31)]
        assert max(late) - min(late) < max(early) - min(early)
        assert late == sorted(late)

    def test_domain(self):
        with pytest.raises(DomainError):
            growth_estimate(2)


class TestCensusShape:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_pinned_rows(self, k):
        if k % 2:
            row = ISOLATED_BY_K[k], 1, ODD_MEDIUMS_BY_K.get(k, 0)
            medium_order = 0 if k == 1 else (k + 1) // 2
        else:
            row = PAIRS_BY_K[k], 2, EVEN_MEDIUMS_BY_K.get(k, 0)
            medium_order = 0 if k == 2 else 3 * k - 6
        assert census_shape(k) == (*row, medium_order)

    def test_domain(self):
        with pytest.raises(DomainError):
            census_shape(0)


class TestBigComponent:
    def test_frozen_orders(self):
        assert big_component_order(9) == 4070
        assert big_component_order(10) == 15676

    def test_subtraction_shape(self):
        assert big_component_order(9) == 4862 - 612 - 180
        assert big_component_order(10) == 16796 - 160 - 960

    def test_wider_sizes_positive(self):
        for k in range(9, 40):
            order = big_component_order(k)
            assert 0 < order < catalan(k)

    def test_domains(self):
        with pytest.raises(DomainError):
            big_component_order(8)
