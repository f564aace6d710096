"""Distinguisher arithmetic, linearization counts, and the basis search."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gd_closure

from kdfc_snow.attacks import (
    GdPath,
    IndexTables,
    NoCoverError,
    build_kdfc_tables,
    build_snow2_tables,
    gd_search,
    keystream_needed,
    linearization_log2,
    linearization_size,
    pileup_bias,
    recurrence_row_tables,
)
from kdfc_snow.attacks import _log2_int
from kdfc_snow.gf2.poly import exponents
from kdfc_snow.kdfc import target_poly

SNOW_BASIS = (39, 8, 6, 22, 10, 2, 7, 9, 12)


class TestBiasArithmetic:
    def test_fixed_cipher_cells(self):
        eps = pileup_bias(-27.61, 250)
        assert eps == pytest.approx(-6653.5)
        assert keystream_needed(eps) == pytest.approx(13307.0)

    def test_derived_cipher_cells(self):
        eps = pileup_bias(-15.496, 250)
        assert eps == pytest.approx(-3625.0)
        assert keystream_needed(eps) == pytest.approx(7250.0)

    def test_single_tap_is_identity(self):
        assert pileup_bias(-3.0, 1) == -3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pileup_bias(-1.0, 0)
        with pytest.raises(ValueError):
            pileup_bias(0.5, 3)
        with pytest.raises(ValueError):
            keystream_needed(0.0)


class TestLinearization:
    def test_small_exact(self):
        assert linearization_size(544, 2) == 148241
        assert linearization_log2(544, 2) == pytest.approx(
            math.log2(148241)
        )
        assert abs(linearization_log2(544, 2) - 17.0) < 0.2

    def test_large_exponent(self):
        n, d = 16416, 497
        got = linearization_log2(n, d)
        assert abs(got - 3208.04) < 0.05
        assert abs(got - 3207) <= 2

    def test_binomial_recurrence(self):
        for n, d in [(10, 3), (20, 5), (544, 2)]:
            assert linearization_size(n, d) == linearization_size(
                n, d - 1
            ) + math.comb(n, d)

    def test_full_degree_is_power_set(self):
        assert linearization_size(12, 12) == 1 << 12

    def test_validation(self):
        with pytest.raises(ValueError):
            linearization_size(10, 11)
        with pytest.raises(ValueError):
            linearization_size(10, -1)

    def test_log2_int_consistency(self):
        assert _log2_int(1) == 0.0
        assert _log2_int(1 << 4000) == 4000.0
        assert _log2_int(12345) == pytest.approx(math.log2(12345))
        big = 3**3000
        assert _log2_int(big) == pytest.approx(3000 * math.log2(3), rel=1e-12)
        with pytest.raises(ValueError):
            _log2_int(0)


class TestIndexTables:
    def test_fixed_cipher_shape(self):
        t = build_snow2_tables()
        assert t.node_count == 56
        assert len(t.rows) == 57  # three families of 19
        assert t.rows[0] == [0, 2, 11, 16]
        assert t.rows[18] == [18, 20, 29, 34]
        assert t.rows[19] == [4, 35, 37]  # first register row
        assert t.rows[38] == [0, 15, 36, 37]

    def test_derived_cipher_shape(self):
        t = build_kdfc_tables()
        assert t.node_count == 1542
        assert len(t.rows) == 1542  # three families of 514
        support = exponents(target_poly())
        assert sorted(t.rows[0]) == support
        assert sorted(t.rows[513]) == [e + 513 for e in support]
        assert t.rows[514] == [4, 1026, 1028]

    def test_custom_polynomial(self):
        # the 514 stages of the derived tables over SNOW 2.0's own support
        t = recurrence_row_tables([16, 11, 2, 0], stages=514)
        assert t.node_count == 16 + 514 + 514 + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexTables(rows=[[0, 9]], node_count=5)
        with pytest.raises(ValueError):
            IndexTables(rows=[[]], node_count=5)
        with pytest.raises(ValueError):
            IndexTables(rows=[[0]], node_count=0)

    def test_recurrence_support_must_touch_zero(self):
        with pytest.raises(ValueError):
            recurrence_row_tables([1, 2], stages=3, fsm_stages=0)
        with pytest.raises(ValueError):
            recurrence_row_tables([0, 2], stages=0)


class TestGdPath:
    def test_distinct(self):
        with pytest.raises(ValueError):
            GdPath((1, 2, 1))

    def test_complexity(self):
        assert GdPath((1, 2, 3)).guess_complexity_log2() == 96
        assert GdPath(SNOW_BASIS).guess_complexity_log2() == 288
        assert GdPath(()).guess_complexity_log2() == 0


def small_tables(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    nrows = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(nrows):
        width = draw(st.integers(min_value=2, max_value=4))
        row = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        rows.append(row)
    return IndexTables(rows=rows, node_count=n)


@st.composite
def tables_and_sets(draw):
    t = small_tables(draw)
    known = draw(
        st.sets(st.integers(min_value=0, max_value=t.node_count - 1), max_size=6)
    )
    extra = draw(
        st.sets(st.integers(min_value=0, max_value=t.node_count - 1), max_size=3)
    )
    return t, known, extra


class TestClosureProperties:
    @settings(max_examples=150, deadline=None)
    @given(tables_and_sets())
    def test_extensive_monotone_idempotent(self, arg):
        t, known, extra = arg
        cl = gd_closure(t, known)
        assert known <= cl  # extensive
        assert gd_closure(t, cl) == cl  # idempotent
        assert cl <= gd_closure(t, known | extra)  # monotone

    @settings(max_examples=100, deadline=None)
    @given(tables_and_sets())
    def test_closure_is_sound(self, arg):
        # every member outside `known` is forced by a row with one unknown
        t, known, _ = arg
        cl = gd_closure(t, known)
        acc = set(known)
        changed = True
        while changed:
            changed = False
            for row in t.rows:
                unknown = [v for v in dict.fromkeys(row) if v not in acc]
                if len(unknown) == 1:
                    acc.add(unknown[0])
                    changed = True
        assert acc == cl

    def test_full_set_closes(self):
        t = build_snow2_tables()
        everything = set(range(t.node_count))
        assert gd_closure(t, everything) == everything


class TestSearch:
    def test_toy_matches_exhaustive_optimum(self):
        toy = recurrence_row_tables([0, 1, 3], stages=14, fsm_stages=2)
        n = toy.node_count
        assert n == 21
        optimum = None
        for size in range(1, 6):
            for combo in itertools.combinations(range(n), size):
                if len(gd_closure(toy, set(combo))) == n:
                    optimum = size
                    break
            if optimum:
                break
        assert optimum == 4
        path = gd_search(toy, 8)
        assert len(path) == optimum
        assert gd_closure(toy, set(path.nodes)) == set(range(n))

    def test_fixed_cipher_basis(self):
        t = build_snow2_tables()
        path = gd_search(t, 16)
        assert path.nodes == SNOW_BASIS
        assert len(path) <= 9
        assert gd_closure(t, set(path.nodes)) == set(range(t.node_count))
        assert path.guess_complexity_log2() == 288

    def test_derived_cipher_resists_single_stage(self):
        t = build_kdfc_tables()
        with pytest.raises(NoCoverError) as exc:
            gd_search(t, 1)
        assert exc.value.eliminated == 1
        assert len(exc.value.best) == 1

    def test_no_cover_reports_best(self):
        toy = recurrence_row_tables([0, 1, 3], stages=14, fsm_stages=2)
        with pytest.raises(NoCoverError) as exc:
            gd_search(toy, 1)
        assert 1 <= exc.value.eliminated < toy.node_count
        assert len(exc.value.best) == 1

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            gd_search(build_snow2_tables(), 0)

    def test_search_size_is_bounded(self):
        # n + (max_stages - 1) * n^2 scored paths: 56 + 334 * 56^2 is within
        # 2^20 (and the search stops at its 9-node cover), one more stage is not
        t = build_snow2_tables()
        assert gd_search(t, 335).nodes == SNOW_BASIS
        with pytest.raises(ValueError, match="1050616 paths exceed the 2\\^20 guard"):
            gd_search(t, 336)
        with pytest.raises(ValueError, match="guard"):
            gd_search(build_kdfc_tables(), 2)
