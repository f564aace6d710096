"""Configuration-generation pipeline: iteration, dual-route solver, counts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KAT_IV, KAT_KEY
from oracles import (
    companion_matrix,
    dense_assemble,
    field_embed,
    fill_from_words,
    identity,
    krylov_lambda,
    log_tables_per_entry,
    long_division_quotient,
    over_xw_rows,
    reverse_coords,
    row_stage,
    triangular_unembed,
)

from kdfc_snow import confgen, kdfc, sigma_lfsr
from kdfc_snow.confgen import (
    FillBits,
    RankLossError,
    assemble_config,
    brute_force_count,
    build_q,
    count_configurations,
    generate_config,
    pipeline_poly,
    _log_tables,
    _pack,
    _reversed_rows,
    _run,
    _stage_constants,
    _unpack,
    y_iterate,
    y_offline,
)
from kdfc_snow.gf2 import linalg
from kdfc_snow.gf2.linalg import (
    DimensionError,
    NoSolutionError,
    SingularMatrixError,
    companion_vec_mul,
    mat_vec_mul,
    rank,
    width,
)
from kdfc_snow.gf2.poly import (
    FactorTableMissError,
    _divmod_int,
    _over_xw,
    euler_phi_2n1,
    exponents,
    is_irreducible,
    is_primitive,
)
from kdfc_snow.gf2.primtable import default_table, primitive_poly
from kdfc_snow.sigma_lfsr import SigmaConfig, config_char_poly


def seeded_pipeline(m, b, seed, k=0):
    p = pipeline_poly(m * b)
    total = m * b - m
    offline = FillBits.from_seed(m, k, seed, "offline-fill")
    online = FillBits.from_seed(m, total - k, seed, "online-fill")
    return p, generate_config(m, b, p, y_offline(m, b, k, offline), online)


def final_y(m, b, seed, y=None, k=0):
    """The pipeline's last Y, rows rotated as generate_config does before build_q."""
    total = m * b - m
    online = FillBits.from_seed(m, total - k, seed, "online-fill")
    if y is None:
        y = y_offline(m, b, 0, FillBits(m, []))
    for i in range(k + 1, total + 1):
        y = y_iterate(y, i, pipeline_poly(m + i - 1), online.vectors[i - k - 1])
    last_active = total % m
    order = [(last_active + 1 + t) % m for t in range(m)]
    return [y[t] for t in order]


def not_a_polynomial(kind, p):
    """p as a float, a str, None, or its negative (of p's bit length)."""
    return {"float": float(p), "str": str(p), "None": None, "negative": -p}[kind]


#: (kind, refusal) for not_a_polynomial: a float, str or None p ended in
#: AttributeError on p.bit_length(), and a negative p ran every stage
NOT_A_POLYNOMIAL = [
    pytest.param(kind, message, id=kind)
    for kind, message in [
        ("float", "^p must be an int, got float$"),
        ("str", "^p must be an int, got str$"),
        ("None", "^p must be an int, got NoneType$"),
        ("negative", "^need p >= 0, got p=-"),
    ]
]


def flip_gain_bit(monkeypatch, gain, row, bit):
    """Make generate_config's assembly hand back one gain bit flipped."""
    real = confgen.assemble_config

    def flipped(y, p):
        cfg = real(y, p)
        rows = list(cfg.rows)
        rows[row] ^= 1 << (gain * cfg.m + bit)
        return SigmaConfig(cfg.m, cfg.b, rows)

    monkeypatch.setattr(confgen, "assemble_config", flipped)


class TestFillBits:
    def test_from_seed_deterministic(self):
        a = FillBits.from_seed(4, 10, "s", "lbl")
        b = FillBits.from_seed(4, 10, "s", "lbl")
        assert a.vectors == b.vectors and len(a) == 10

    def test_labels_and_seeds_separate_streams(self):
        base = FillBits.from_seed(4, 10, "s", "one").vectors
        assert FillBits.from_seed(4, 10, "s", "two").vectors != base
        assert FillBits.from_seed(4, 10, "t", "one").vectors != base

    def test_vector_width_validated(self):
        with pytest.raises(ValueError):
            FillBits(3, [4])  # needs at most 2 bits
        FillBits(3, [3])  # fine

    @pytest.mark.parametrize("v", [1.5, True, "1", None])
    def test_fill_vector_that_is_no_int_is_refused(self, v):
        # a float would fail only deep inside a stage, and True pass as 1
        with pytest.raises(ValueError, match="^fill vector 1 is not an int"):
            FillBits(4, [0, v])

    def test_from_words_placement(self):
        # iteration 5 with m=4: active row 1; word bits 0,2,3 fill rows 0,2,3
        fb = FillBits.from_words(4, [0b1011], first_iteration=5)
        assert fb.vectors == [0b101]

    def test_from_words_active_schedule_advances(self):
        fb = FillBits.from_words(2, [0b11, 0b11, 0b00], first_iteration=1)
        # actives are rows 1, 0, 1; the single fill bit tracks the other row
        assert fb.vectors == [1, 1, 0]

    def test_m1_needs_no_bits(self):
        assert FillBits.from_seed(1, 5, "s").vectors == [0] * 5

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 32])
    def test_from_words_equals_the_bit_loop(self, m):
        rng = random.Random(m)
        for first in range(1, 2 * m + 2):
            words = [rng.getrandbits(m) for _ in range(20)] + [0, (1 << m) - 1]
            got = FillBits.from_words(m, words, first_iteration=first).vectors
            assert got == fill_from_words(m, words, first)

    @pytest.mark.parametrize("word", [-1, 16, 1 << 40, True, 1.0, "1", None])
    def test_from_words_refuses_a_word_that_is_no_m_bit_int(self, word):
        # -1 gave [7] and 1 << 40 gave [0]: the bits past m were dropped
        with pytest.raises(ValueError, match="^fill word 1 is not a 4-bit int: "):
            FillBits.from_words(4, [0b1011, word], 1)

    @pytest.mark.parametrize("first,message", [
        (0, "^need first_iteration >= 1, got first_iteration=0$"),
        (-3, "^need first_iteration >= 1, got first_iteration=-3$"),
        (1.5, "^first_iteration must be an int, got float$"),
        (True, "^first_iteration must be an int, got bool$"),
    ])
    def test_from_words_refuses_a_first_iteration_that_is_no_int_from_1(self, first, message):
        # 0 and -3 were packed against a wrong active row, and 1.5 ended in a bare TypeError
        with pytest.raises(ValueError, match=message):
            FillBits.from_words(4, [0b1011], first)

    @pytest.mark.parametrize("m", [True, 2.0, "2", None])
    def test_non_int_m_is_refused_before_any_work(self, m):
        for make in (
            lambda: FillBits(m, []),
            lambda: FillBits.from_seed(m, 2, "s"),
            lambda: FillBits.from_words(m, [1], 1),
        ):
            with pytest.raises(ValueError, match=f"^m must be an int, got {type(m).__name__}$"):
                make()

    @pytest.mark.parametrize("count", [2.5, True, "3", None])
    def test_non_int_count_is_refused(self, count):
        # 2.5 gave 3 vectors and True gave 1
        with pytest.raises(ValueError, match=f"^count must be an int, got {type(count).__name__}$"):
            FillBits.from_seed(4, count, "s")

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="^need count >= 0, got count=-1$"):
            FillBits.from_seed(4, -1, "s")


class TestYMatrix:
    """Y is its list of row ints; its width is its widest row, e_1."""

    def test_roundtrips(self):
        y = y_offline(3, 2, 2, FillBits.from_seed(3, 2, "roundtrip"))
        assert type(y) is list and len(y) == 3 and width(y) == 5
        assert y[2 % 3] == 1 << 4  # the last active row, iteration 2's, is e_1
        assert linalg.matrix_from_json(linalg.matrix_to_json(y, 5), (3, 5), "Y") == y
        assert rank(y) == 3


class TestPipelinePoly:
    @pytest.mark.parametrize("d", [2, 5, 33, 512])
    def test_matches_table(self, d):
        assert pipeline_poly(d) == primitive_poly(d)


class TestIteration:
    @pytest.mark.parametrize("m,i", [(2, 1), (2, 2), (3, 1), (4, 3)])
    def test_iteration_invariants(self, m, i):
        rng = random.Random(m * 100 + i)
        w = m + i - 1
        # grow a random full-rank width-w start
        while True:
            y = [rng.getrandbits(w) for _ in range(m)]
            if rank(y) == m and all(y) and width(y) == w:
                break
        fill = rng.getrandbits(m - 1)
        out = y_iterate(y, i, pipeline_poly(w), fill)
        active = i % m
        assert width(out) == w + 1
        assert out[active] == 1 << w
        assert rank(out) == m
        # non-active rows carry their fill bit at the new coordinate
        pos = 0
        for t in range(m):
            if t != active:
                assert (out[t] >> w) & 1 == (fill >> pos) & 1
                pos += 1

    @pytest.mark.parametrize("m,i", [(2, 1), (3, 2), (4, 1)])
    def test_solver_dual_route(self, m, i):
        """The field-arithmetic iteration applies the Krylov-matrix Lambda."""
        rng = random.Random(m * 7 + i)
        w = m + i + 3
        p = pipeline_poly(w)
        active = i % m
        for _ in range(5):
            while True:
                y = [rng.getrandbits(w) for _ in range(m)]
                if rank(y) == m and width(y) == w:
                    break
            lam_krylov = krylov_lambda(y[active], companion_matrix(p), w)
            out = y_iterate(y, i, p, rng.getrandbits(m - 1))
            low = (1 << w) - 1
            for t in range(m):
                if t == active:
                    # the active row lands on e_1 before it is replaced
                    assert mat_vec_mul(y[t], lam_krylov) == 1 << (w - 1)
                    assert out[t] == 1 << w
                else:
                    assert out[t] & low == mat_vec_mul(y[t], lam_krylov)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 5), st.text(max_size=4), st.data())
    def test_runs_equal_stepwise_y_iterate(self, m, b, seed, data):
        """y_offline and generate_config, which run the stages on reversed
        rows, equal y_iterate step by step, and every step applies Lambda."""
        n, total = m * b, m * b - m
        k = data.draw(st.integers(0, total))
        fills = FillBits.from_seed(m, total, seed, "online-fill")
        offline = FillBits(m, fills.vectors[:k])
        y = identity(m)
        stepwise = [y]
        for i in range(1, total + 1):
            w, active = m + i - 1, i % m
            p = pipeline_poly(w)
            lam = krylov_lambda(y[active], companion_matrix(p), w)
            out = y_iterate(y, i, p, fills.vectors[i - 1])
            assert mat_vec_mul(y[active], lam) == 1 << (w - 1)
            assert out[active] == 1 << w
            for t in range(m):
                if t != active:
                    assert out[t] & ((1 << w) - 1) == mat_vec_mul(y[t], lam)
            y = out
            stepwise.append(y)
        assert y_offline(m, b, k, offline) == stepwise[k]
        p = pipeline_poly(n)
        order = [(total % m + 1 + t) % m for t in range(m)]
        want = assemble_config([y[t] for t in order], p)
        online = FillBits(m, fills.vectors[k:])
        assert generate_config(m, b, p, y_offline(m, b, k, offline), online) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 40), st.integers(0, 1 << 32))
    def test_any_irreducible_stage_polynomial(self, m, w, seed):
        """Dense or sparse, any irreducible p of degree w gives the Krylov
        Lambda: the un-embedding factor floor(x^2w / p) is not always p."""
        rng = random.Random(seed)
        while not is_irreducible(p := (1 << w) | rng.getrandbits(w) | 1):
            pass
        while rank(y := [rng.getrandbits(w) for _ in range(m)]) < min(m, w) or width(y) < w:
            pass
        i = rng.randrange(1, 100)
        active = i % m
        if not y[active]:
            return
        lam = krylov_lambda(y[active], companion_matrix(p), w)
        try:
            out = y_iterate(y, i, p, rng.getrandbits(m - 1))
        except RankLossError:
            assert m > w  # more rows than columns: Y cannot have full rank
            return
        assert mat_vec_mul(y[active], lam) == 1 << (w - 1)
        for t in range(m):
            if t != active:
                assert out[t] & ((1 << w) - 1) == mat_vec_mul(y[t], lam)

    @pytest.mark.parametrize("m,fill", [(1, 1), (1, 7), (1, -3), (2, 2), (3, -1), (3, 4)])
    def test_fill_wider_than_m_minus_1_bits_is_refused(self, m, fill):
        # at m = 1 the fill has no bit to carry, as FillBits(1, [1]) refuses
        y = identity(m)
        with pytest.raises(ValueError, match=f"fill needs exactly {m - 1} bits"):
            y_iterate(y, 1, pipeline_poly(m), fill)
        with pytest.raises(ValueError):
            FillBits(m, [fill])

    def test_single_row_stage_takes_the_empty_fill(self):
        assert y_iterate([1], 1, pipeline_poly(1), 0) == [0b10]

    def test_stage_degree_must_match_width(self):
        y = identity(3)
        with pytest.raises(DimensionError):
            y_iterate(y, 1, pipeline_poly(4), 0)

    def test_rank_loss_on_dependent_rows(self):
        # rows 0 and 2 are equal and neither is active (i = 1 -> row 1)
        y = [0b001, 0b010, 0b001]
        with pytest.raises(RankLossError):
            y_iterate(y, 1, pipeline_poly(3), 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 40), st.booleans(), st.integers(0, 1 << 32))
    def test_stage_keeps_full_rank(self, m, w, dense, seed):
        """No stage checks rank, because rank m in gives rank m out: for any
        irreducible p, sparse (the table's) or dense."""
        rng = random.Random(seed)
        w = max(w, m)
        p = pipeline_poly(w)
        while dense and not is_irreducible(p := (1 << w) | rng.getrandbits(w) | 1):
            pass
        while rank(rows := [rng.getrandbits(w) for _ in range(m)]) < m:
            pass
        out = _run(rows, rng.randrange(1, 100), [p], [rng.getrandbits(m - 1)])
        assert rank(out) == m

    def test_offline_k0_is_identity(self):
        y = y_offline(3, 2, 0, FillBits(3, []))
        assert y == identity(3)

    def test_offline_needs_enough_fill(self):
        with pytest.raises(ValueError, match="^offline fill must supply exactly 3 vectors$"):
            y_offline(2, 4, 3, FillBits.from_seed(2, 2, "s"))

    def test_offline_refuses_surplus_fill(self):
        # the four vectors past k were ignored without a word
        with pytest.raises(ValueError, match="^offline fill must supply exactly 1 vectors$"):
            y_offline(2, 4, 1, FillBits.from_seed(2, 5, "s"))

    def test_offline_refuses_fill_of_another_width(self):
        # two vectors for m = 2 were refused as if two were missing
        with pytest.raises(ValueError, match="^offline fill has vectors for m=2, need m=3$"):
            y_offline(3, 2, 2, FillBits.from_seed(2, 2, "s"))

    @pytest.mark.parametrize("m,b,k,name", [
        (4, 4, True, "k"), (4, 4, 2.0, "k"), (4, 4, "1", "k"),
        (4.0, 4, 1, "m"), (True, 4, 1, "m"), (4, 4.0, 1, "b"), (4, False, 1, "b"),
    ])
    def test_offline_refuses_non_int_dims_and_k(self, m, b, k, name):
        # k = True ran one stage, and 2.0 ended in range()'s TypeError
        fill = FillBits.from_seed(4, 4, "s")
        bad = {"m": m, "b": b, "k": k}[name]
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
            y_offline(m, b, k, fill)

    @pytest.mark.parametrize("i,fill,message", [
        (1.5, 0, "^i must be an int, got float$"),
        (True, 0, "^i must be an int, got bool$"),
        ("1", 0, "^i must be an int, got str$"),
        (0, 0, "^need i >= 1, got i=0$"),
        (1, True, "^fill must be an int, got bool$"),
        (1, 1.0, "^fill must be an int, got float$"),
        (1, None, "^fill must be an int, got NoneType$"),
    ])
    def test_iterate_refuses_a_bad_iteration_or_fill_before_any_work(
        self, monkeypatch, i, fill, message
    ):
        # i = 1.5 ended in enumerate's TypeError; i = True with fill = True ran a stage
        monkeypatch.setattr(confgen, "rank", lambda y: pytest.fail("rank was taken"))
        with pytest.raises(ValueError, match=message):
            y_iterate(identity(4), i, pipeline_poly(4), fill)


def assert_stage_applies_krylov_lambda(p, m, seed):
    """y_iterate on random full-rank Y sends the active row to e_1 and every
    other row through the Krylov-matrix Lambda of tests/oracles.py."""
    w = p.bit_length() - 1
    rng = random.Random(seed)
    for i in range(1, m + 1):
        while rank(y := [rng.getrandbits(w) for _ in range(m)]) < m or width(y) < w:
            pass
        active = i % m
        lam = krylov_lambda(y[active], companion_matrix(p), w)
        out = y_iterate(y, i, p, rng.getrandbits(m - 1))
        assert mat_vec_mul(y[active], lam) == 1 << (w - 1)
        assert out[active] == 1 << w
        for t in range(m):
            if t != active:
                assert out[t] & ((1 << w) - 1) == mat_vec_mul(y[t], lam)


def full_rank_rows(rng, m, w):
    while rank(rows := [rng.getrandbits(w) for _ in range(m)]) < m:
        pass
    return rows


def outcome(stage, *args):
    """A stage's rows, or the text of the NoSolutionError it raised."""
    try:
        return stage(*args)
    except NoSolutionError as exc:
        return str(exc)


# irreducible, but x has order (2^w - 1) / 3, / 7 and / 3 (found by search);
# 2^13 - 1 is prime, so every irreducible polynomial of degree 13 is primitive
NON_PRIMITIVE_IRREDUCIBLE = [0b100000000100001, 0b1000000010110001, 0b10000000000101011]


class TestLogTables:
    """Stages of width <= 16 whose x generates the field's units take the
    discrete-log tables; the others keep the field-arithmetic route."""

    @pytest.mark.parametrize("w", range(1, confgen.LOG_TABLE_MAX_WIDTH + 1))
    def test_every_table_degree_matches_krylov_lambda(self, w):
        p = pipeline_poly(w)
        to_log, from_log = _log_tables(p)
        order = (1 << w) - 1
        assert len(to_log) == order + 1 and len(from_log) == order
        # from_log runs through every nonzero row once; to_log undoes it
        assert sorted(from_log) == list(range(1, order + 1))
        assert all(to_log[u] == k for k, u in enumerate(from_log))
        assert_stage_applies_krylov_lambda(p, min(w, 4), w)

    def test_tables_are_keyed_on_the_polynomial(self):
        # x^4 + x^3 + 1 is primitive but not the table's x^4 + x + 1
        p = 0b11001
        assert p != pipeline_poly(4) and is_primitive(p)
        assert _log_tables(p) != _log_tables(pipeline_poly(4))
        assert_stage_applies_krylov_lambda(p, 3, "keyed")

    @pytest.mark.parametrize("p", [0b11111, 0b1001001, 0b100011011])
    def test_non_primitive_irreducible_takes_the_general_route(self, p):
        # x^4+x^3+x^2+x+1, x^6+x^3+1 and x^8+x^4+x^3+x+1: x has order 5, 9, 51
        assert is_irreducible(p) and not is_primitive(p)
        assert _log_tables(p) is None
        assert_stage_applies_krylov_lambda(p, 3, p)

    @pytest.mark.parametrize("p", [pipeline_poly(w) for w in range(1, 17)] + [0b11001])
    def test_whole_tables_equal_the_per_entry_reference(self, p):
        to_log, from_log = _log_tables(p)
        want_to_log, want_from_log = log_tables_per_entry(p)
        assert list(to_log) == want_to_log and list(from_log) == want_from_log

    @pytest.mark.parametrize("p", NON_PRIMITIVE_IRREDUCIBLE + [
        0b11111, 0b1001001, 0b100011011, 0b10110, 0b10101, 0b10,
        (1 << 13) | 1, (1 << 16) | 1, (1 << 13) | 0b10, (1 << 16) | 0b1010,
    ])
    def test_refusals_equal_the_per_entry_reference(self, p):
        assert log_tables_per_entry(p) is None and _log_tables(p) is None

    @pytest.mark.parametrize("w", range(13, 17))
    def test_wide_non_table_moduli_take_the_packed_route(self, w):
        # x^w + 1 = (x + 1)(x^(w-1) + ... + 1) is reducible; some active rows
        # share its factor and are refused on both routes alike
        polys = [(1 << w) | 1] + [p for p in NON_PRIMITIVE_IRREDUCIBLE if p >> w == 1]
        rng = random.Random(w)
        for p in polys:
            assert is_irreducible(p) == (p != (1 << w) | 1) and not is_primitive(p)
            assert _log_tables(p) is None
            for m in (1, 3, 4):
                rows = full_rank_rows(rng, m, w)
                for i in range(1, m + 1):
                    fill = rng.getrandbits(m - 1)
                    want = outcome(row_stage, rows, i, p, fill)
                    assert outcome(_run, rows, i, [p], [fill]) == want

    def test_wide_and_reducible_moduli_have_no_tables(self):
        assert _log_tables(pipeline_poly(confgen.LOG_TABLE_MAX_WIDTH + 1)) is None
        assert _log_tables(0b10110) is None  # x^4 + x^2 + x: x is no unit
        assert _log_tables(0b10101) is None  # (x^2 + x + 1)^2

    @pytest.mark.parametrize("w", [5, 40])
    def test_zero_active_row_is_refused_on_either_route(self, w):
        # the table route (w = 5) hands a zero active row to the general one
        p = pipeline_poly(w)
        assert (_log_tables(p) is not None) == (w <= confgen.LOG_TABLE_MAX_WIDTH)
        msg = f"active row is zero or not cyclic: not invertible: gcd has degree {w}"
        with pytest.raises(NoSolutionError, match=f"^{msg}$"):
            _run([0b11, 0, 0b101], 1, [p], [0b10])
        with pytest.raises(NoSolutionError, match=f"^{msg}$"):
            row_stage([0b11, 0, 0b101], 1, p, 0b10)

    def test_a_second_small_config_hits_the_tables(self):
        seeded_pipeline(4, 4, "tables-first")
        before = _log_tables.cache_info()
        seeded_pipeline(4, 4, "tables-second")
        after = _log_tables.cache_info()
        # one lookup per stage, widths 4..15, none of them a new entry
        assert after.misses == before.misses
        assert after.hits - before.hits == 12


class TestPackedStages:
    """Stages on packed rows (confgen._run, _stage) against the per-row
    field route of tests/oracles.py (row_stage).

    Table polynomials take the packed route from width 17 on, past the
    log tables; the first two tests turn the tables off, so that _stage
    also runs the table polynomials of widths 13..16.  The product
    switches to the window table at width 32, and the slot grows from 64
    to 128 bits at 33 and to 192 at 65.
    """

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 32])
    def test_single_stages_match_the_row_oracle(self, m, monkeypatch):
        monkeypatch.setattr(confgen, "_log_tables", lambda p: None)
        rng = random.Random(m)
        for w in range(max(13, m), 81):
            p = pipeline_poly(w)
            rows = full_rank_rows(rng, m, w)
            i = rng.randrange(1, 2 * m + 1)
            fill = rng.getrandbits(m - 1)
            assert _run(rows, i, [p], [fill]) == row_stage(rows, i, p, fill)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 32])
    def test_one_run_across_the_slot_and_window_changes(self, m, monkeypatch):
        monkeypatch.setattr(confgen, "_log_tables", lambda p: None)
        rng = random.Random(100 + m)
        first = max(13, m)
        rows = full_rank_rows(rng, m, first)
        polys = [pipeline_poly(w) for w in range(first, 81)]
        fills = [rng.getrandbits(m - 1) for _ in polys]
        want = rows
        for i, (p, fill) in enumerate(zip(polys, fills), 7):
            want = row_stage(want, i, p, fill)
        assert _run(rows, 7, polys, fills) == want

    def test_dense_modulus(self):
        # weight above 5 and a term at x^39, so mu = floor(x^80 / p) is not p
        rng = random.Random(40)
        while True:
            p = (1 << 40) | (1 << 39) | (rng.getrandbits(38) << 1) | 1
            if p.bit_count() > 5 and is_irreducible(p):
                break
        shifts, mu_shifts, _ = _stage_constants(p)
        assert mu_shifts != shifts
        for m in (1, 2, 3, 5, 32):
            rows = full_rank_rows(rng, m, 40)
            for i in range(1, m + 1):
                fill = rng.getrandbits(m - 1)
                assert _run(rows, i, [p], [fill]) == row_stage(rows, i, p, fill)

    def test_table_widths_after_a_packed_stage(self):
        # x^6 + x^3 + 1 is irreducible, but x has order 9: no tables, so the
        # rows are packed for it and stay packed for the table widths after it
        p6 = 0b1001001
        rng = random.Random(6)
        rows = full_rank_rows(rng, 3, 6)
        polys, fills = [p6, pipeline_poly(7), pipeline_poly(8)], [0b01, 0b10, 0b11]
        want = rows
        for i, (p, fill) in enumerate(zip(polys, fills), 1):
            want = row_stage(want, i, p, fill)
        assert _run(rows, 1, polys, fills) == want


class TestQAndAssembly:
    def test_build_q_stacks_companion_powers(self):
        m, b = 2, 3
        poly = pipeline_poly(m * b)
        y = final_y(m, b, "q-structure")
        q = build_q(y, poly)
        cur = list(y)
        for j in range(b):
            assert q[j * m : (j + 1) * m] == cur
            cur = [companion_vec_mul(r, poly) for r in cur]

    @pytest.mark.parametrize("kind,message", NOT_A_POLYNOMIAL)
    def test_build_q_refuses_a_p_that_is_no_polynomial(self, kind, message):
        y = final_y(2, 3, "q-structure")
        with pytest.raises(ValueError, match=message):
            build_q(y, not_a_polynomial(kind, pipeline_poly(6)))

    @pytest.mark.parametrize("kind,message", NOT_A_POLYNOMIAL)
    def test_assemble_config_refuses_a_p_that_is_no_polynomial_before_q(
        self, monkeypatch, kind, message
    ):
        y = final_y(2, 3, "q-structure")
        monkeypatch.setattr(confgen, "build_q", lambda *a: pytest.fail("Q was built"))
        with pytest.raises(ValueError, match=message):
            assemble_config(y, not_a_polynomial(kind, pipeline_poly(6)))

    def test_build_q_validates_degree(self):
        y = identity(2)
        with pytest.raises(DimensionError):
            build_q(y, pipeline_poly(4))

    def test_assemble_config_is_similar_to_companion(self):
        poly = pipeline_poly(6)
        _, cfg = seeded_pipeline(2, 3, "assembly")
        assert config_char_poly(cfg) == poly


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.text(max_size=6))
    def test_matches_dense_assembly(self, m, b, seed):
        p = pipeline_poly(m * b)
        y = final_y(m, b, seed)
        assert assemble_config(y, p) == dense_assemble(build_q(y, p), p, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_random_y_matches_dense_assembly(self, m, b, rng):
        # with random rows Q is often singular; both routes must then refuse
        # it, as they refuse a Y whose widest row is narrower than deg p
        n = m * b
        p = pipeline_poly(n)
        y = [rng.getrandbits(n) for _ in range(m)]
        if width(y) != n:
            with pytest.raises(DimensionError, match=f"^polynomial degree {n} != Y width"):
                assemble_config(y, p)
            return
        try:
            want = dense_assemble(build_q(y, p), p, m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                assemble_config(y, p)
        else:
            assert assemble_config(y, p) == want

    def test_full_scale_matches_dense_assembly(self):
        p = kdfc.target_poly()
        y = final_y(32, 16, "full-scale", y=kdfc.load_y_init().y, k=kdfc.DEFAULT_K)
        assert assemble_config(y, p) == dense_assemble(build_q(y, p), p, 32)

    @pytest.mark.parametrize("scale", ["2x3", "full"])
    def test_q_enters_the_elimination_chain_by_chain(self, monkeypatch, scale):
        # working row t is y_r P^j for t = r * b + j, with tracker bit
        # n + j * m + r; Y's last row is e_1, so the last chain, the b rows
        # before the targets, has no bit below column n - b
        if scale == "2x3":
            m, b, p = 2, 3, pipeline_poly(6)
            y = final_y(m, b, "chains")
        else:
            m, b, p = 32, 16, kdfc.target_poly()
            y = final_y(m, b, "full-scale", y=kdfc.load_y_init().y, k=kdfc.DEFAULT_K)
        n = m * b
        assert y[-1] == 1 << (n - 1)
        real, seen = linalg._echelon, []

        def echelon(rows, ncols):
            seen.append(list(rows))
            return real(rows, ncols)

        monkeypatch.setattr(linalg, "_echelon", echelon)
        assemble_config(y, p)
        (work,) = seen
        trackers = [(r >> n) & ((1 << n) - 1) for r in work[:n]]
        assert trackers == [1 << (j * m + r) for r in range(m) for j in range(b)]
        assert not any(r & ((1 << (n - b)) - 1) for r in work[n - b : n])

    def test_singular_q_whose_appended_row_pivots(self, monkeypatch):
        # Y = [y0, y0 P]: Q has rank 3, but with v_r = (last block of Q)[r] * P
        # appended the span is all of F_2^4, so n columns pivot, one on a v_r;
        # y0 has the top bit, so Y's widest row has n bits
        m, n = 2, 4
        p = pipeline_poly(n)
        y = [0b1011, companion_vec_mul(0b1011, p)]
        assert rank(build_q(y, p)) == n - 1
        real, pivots = linalg._echelon, []

        def echelon(*args, **kwargs):
            pivots.extend(real(*args, **kwargs))
            return pivots

        # patched after rank(Q), whose pivots would join the count
        monkeypatch.setattr(linalg, "_echelon", echelon)
        with pytest.raises(SingularMatrixError):
            assemble_config(y, p)
        assert len(pivots) == n


class TestEmbedding:
    """The reversed-coordinate field maps against the standard-coordinate oracles."""

    def test_every_table_degree_and_the_dense_moduli(self):
        table = default_table()
        moduli = [table[d] for d in range(2, 513)] + [kdfc.target_poly(), 0x11B]
        rng = random.Random(11)
        dense = []
        for pc in moduli:
            w = pc.bit_length() - 1
            shifts, mu_shifts, low = _stage_constants(pc)
            # Barrett's mu = floor(x^2w / p) is p itself exactly when
            # p - x^w has degree below w/2
            mu = long_division_quotient(1 << (2 * w), pc)
            assert mu == _divmod_int(1 << (2 * w), pc)[0]
            assert (mu == pc) == (2 * ((pc ^ (1 << w)).bit_length() - 1) < w)
            assert low == exponents(pc ^ (1 << w))
            assert shifts == [w - e for e in range(1, w + 1) if pc >> e & 1]
            assert mu_shifts == [w - e for e in range(1, w + 1) if mu >> e & 1]
            if len(shifts) > 4 or len(mu_shifts) > 4:
                dense.append(pc)
            # the maps, one shift and xor per term whatever the weight, on
            # each row (the oracle) and on all rows packed in one int
            vs = [0, 1, 1 << (w - 1), (1 << w) - 1] + [rng.getrandbits(w) for _ in range(4)]
            us = _reversed_rows(vs, w)
            assert us == [reverse_coords(v, w) for v in vs]
            gs = over_xw_rows(shifts, us)
            assert gs == [field_embed(v, pc) for v in vs]
            assert over_xw_rows(mu_shifts, gs) == us
            slot = -(-w // 32) * 64
            ones = _pack([1] * len(us), slot)
            mask = (ones << w) - ones
            assert _unpack(_over_xw(shifts, _pack(us, slot)) & mask, len(us), slot) == gs
            assert _unpack(_over_xw(mu_shifts, _pack(gs, slot)) & mask, len(gs), slot) == us
            # e_1 (the last coordinate) is the field's 1 in reversed coordinates
            assert gs[2] == 1
            g = rng.getrandbits(w)
            assert _reversed_rows([_over_xw(mu_shifts, g)], w) == [triangular_unembed(g, pc)]
        # p and mu have at most five terms at every table degree, 2, 8 and 12
        # included; the dense target is the one modulus past that
        assert dense == [kdfc.target_poly()]


class TestGenerateConfig:
    @pytest.mark.parametrize("m,b,message", [
        (4.0, 4, "^m must be an int, got float$"),
        (True, 4, "^m must be an int, got bool$"),
        ("4", 4, "^m must be an int, got str$"),
        (4, 4.0, "^b must be an int, got float$"),
        (4, True, "^b must be an int, got bool$"),
        (0, 4, "^need m >= 1, got m=0$"),
        (4, 0, "^need b >= 1, got b=0$"),
    ])
    def test_refuses_non_int_or_small_dims_before_any_work(self, monkeypatch, m, b, message):
        # m = 4.0 ended in range()'s TypeError
        monkeypatch.setattr(confgen, "rank", lambda y: pytest.fail("rank was taken"))
        fill = FillBits.from_seed(4, 12, "s")
        with pytest.raises(ValueError, match=message):
            generate_config(m, b, pipeline_poly(16), identity(4), fill)

    @pytest.mark.parametrize("kind,message", NOT_A_POLYNOMIAL)
    def test_refuses_a_p_that_is_no_polynomial_before_any_work(
        self, monkeypatch, kind, message
    ):
        # generate_config(4, 4, -p, ...) used to return a configuration
        monkeypatch.setattr(confgen, "rank", lambda y: pytest.fail("rank was taken"))
        monkeypatch.setattr(confgen, "_run", lambda *a: pytest.fail("a stage ran"))
        fill = FillBits.from_seed(4, 12, "s")
        p = not_a_polynomial(kind, pipeline_poly(16))
        with pytest.raises(ValueError, match=message):
            generate_config(4, 4, p, identity(4), fill, verify=False)

    @pytest.mark.parametrize("m,b", [(2, 4), (4, 4)])
    @pytest.mark.parametrize("seed", ["a", "b", "c"])
    def test_prescribed_char_poly(self, m, b, seed):
        p, cfg = seeded_pipeline(m, b, seed)
        assert cfg.m == m and cfg.b == b
        assert config_char_poly(cfg) == p

    def test_deterministic(self):
        _, c1 = seeded_pipeline(2, 4, "same")
        _, c2 = seeded_pipeline(2, 4, "same")
        assert c1 == c2

    def test_seed_changes_config(self):
        _, c1 = seeded_pipeline(2, 4, "left")
        _, c2 = seeded_pipeline(2, 4, "right")
        assert c1 != c2

    def test_offline_online_split_agrees(self):
        # a run with k offline iterations must equal the all-online run
        # when fed the same per-iteration fill vectors
        m, b, k = 2, 4, 3
        p = pipeline_poly(m * b)
        total = m * b - m
        fills = FillBits.from_seed(m, total, "split", "online-fill")
        all_online = generate_config(
            m, b, p, y_offline(m, b, 0, FillBits(m, [])), fills
        )
        offline_part = FillBits(m, fills.vectors[:k])
        online_part = FillBits(m, fills.vectors[k:])
        split = generate_config(
            m, b, p, y_offline(m, b, k, offline_part), online_part
        )
        assert split == all_online

    def test_verify_flag_cross_route(self):
        p, _ = seeded_pipeline(2, 4, "x")
        total = 2 * 4 - 2
        online = FillBits.from_seed(2, total, "x", "online-fill")
        cfg = generate_config(
            2, 4, p, y_offline(2, 4, 0, FillBits(2, [])), online, verify=False
        )
        assert config_char_poly(cfg) == p

    @pytest.mark.parametrize("dependent", ["equal", "times_p"])
    def test_dependent_y_rows_raise_singular(self, dependent):
        # a full-width y_init leaves no online iterations, so only Q can object
        m, b = 4, 4
        n = m * b
        p = pipeline_poly(n)
        rng = random.Random(dependent)
        r0 = rng.getrandbits(n)
        r1 = r0 if dependent == "equal" else companion_vec_mul(r0, p)
        y = [r0, r1, rng.getrandbits(n), rng.getrandbits(n)]
        with pytest.raises(SingularMatrixError):
            generate_config(m, b, p, y, FillBits(m, []))

    @pytest.mark.parametrize("rows", [[0b11, 0b11], [0b011, 0b101, 0b110]])
    def test_dependent_y_init_raises_rank_loss_before_any_stage(self, monkeypatch, rows):
        # the dependency involves the active row: its stage would map it to e_1
        # and widen the others, so the stage output can have full rank again
        m, b = len(rows), 2
        monkeypatch.setattr(confgen, "_run", lambda *a: pytest.fail("a stage ran"))
        with pytest.raises(RankLossError, match=f"rank dropped below {m} at iteration 1"):
            generate_config(
                m, b, pipeline_poly(m * b), rows,
                FillBits.from_seed(m, m * b - m, "s"),
            )

    @pytest.mark.parametrize("gain,row,bit", [(0, 0, 0), (1, 2, 3), (3, 3, 3)])
    def test_flipped_gain_bit_fails_the_verify(self, monkeypatch, gain, row, bit):
        flip_gain_bit(monkeypatch, gain, row, bit)
        with pytest.raises(RankLossError):
            seeded_pipeline(4, 4, "flip")

    def test_flipped_gain_bit_fails_the_keyed_verify(self, monkeypatch):
        flip_gain_bit(monkeypatch, 7, 0, 0)
        with pytest.raises(RankLossError):
            kdfc.kdfc_init(kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV))

    def test_online_fill_shortage(self):
        p = pipeline_poly(8)
        with pytest.raises(ValueError, match="^online fill must supply exactly 6 vectors$"):
            generate_config(
                2, 4, p, y_offline(2, 4, 0, FillBits(2, [])),
                FillBits.from_seed(2, 2, "s"),
            )

    def test_online_fill_surplus(self, monkeypatch):
        # one vector more than the 6 online stages take is refused, not dropped
        y = y_offline(2, 4, 0, FillBits(2, []))
        monkeypatch.setattr(confgen, "_run", lambda *a: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match="^online fill must supply exactly 6 vectors$"):
            generate_config(2, 4, pipeline_poly(8), y, FillBits.from_seed(2, 7, "s"))

    def test_online_fill_of_another_width(self, monkeypatch):
        # six vectors for m = 3 were refused as "must supply exactly 6 vectors"
        y = y_offline(2, 4, 0, FillBits(2, []))
        monkeypatch.setattr(confgen, "_run", lambda *a: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match="^online fill has vectors for m=3, need m=2$"):
            generate_config(2, 4, pipeline_poly(8), y, FillBits.from_seed(3, 6, "s"))

    def test_fill_meant_for_a_narrower_y_never_runs(self, monkeypatch):
        # Y after k = 3 offline stages, its widest row 5 bits, with the 4
        # online vectors of a k = 2 run: the Y's own k asks for 3
        m, b = 2, 4
        y = y_offline(m, b, 3, FillBits.from_seed(m, 3, "s"))
        assert width(y) == 5 and y[3 % m] == 1 << 4
        monkeypatch.setattr(confgen, "_run", lambda *a: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match="^online fill must supply exactly 3 vectors$"):
            generate_config(m, b, pipeline_poly(m * b), y, FillBits.from_seed(m, 4, "t"))

    def test_degree_mismatch(self):
        with pytest.raises(DimensionError):
            generate_config(
                2, 4, pipeline_poly(6),
                y_offline(2, 4, 0, FillBits(2, [])),
                FillBits.from_seed(2, 6, "s"),
            )


class TestCounting:
    @pytest.mark.parametrize("m,b,expected", [(2, 1, 2), (2, 2, 16)])
    def test_formula_matches_enumeration(self, m, b, expected):
        assert count_configurations(m, b) == expected
        assert brute_force_count(m, b) == expected

    @pytest.mark.parametrize("m,b", [(2, 2), (1, 4), (3, 1)])
    def test_enumeration_takes_no_dense_char_poly(self, m, b, monkeypatch):
        # a certificate below degree mb means a reducible char poly, so the
        # count needs no dense fallback
        def dense(a):
            raise AssertionError("dense char_poly called")

        monkeypatch.setattr(sigma_lfsr, "char_poly", dense)
        assert brute_force_count(m, b) == count_configurations(m, b)

    def test_formula_spot_values(self):
        # |GL(m)|/(2^m-1) * phi(2^mb-1)/(mb) * 2^(m(m-1)(b-1))
        assert count_configurations(1, 4) == 2  # phi(15)/4 = 2
        assert count_configurations(3, 1) == 48  # |GL(3)|/7 * phi(7)/3

    def test_formula_exact_at_32x16(self):
        # the KDFC-SNOW configuration space: log2 of the count is about 16,372.2
        assert euler_phi_2n1(512) % 512 == 0
        assert count_configurations(32, 16).bit_length() == 16373

    def test_formula_needs_the_factor_table(self):
        with pytest.raises(FactorTableMissError):
            count_configurations(5, 13)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            brute_force_count(3, 3)

    @pytest.mark.parametrize("m,b,bad", [(0, 0, "m=0"), (-1, 2, "m=-1"), (2, 0, "b=0")])
    def test_non_positive_dims_refused(self, m, b, bad):
        for count in (count_configurations, brute_force_count):
            with pytest.raises(ValueError, match=bad):
                count(m, b)

    @pytest.mark.parametrize("m,b,name", [
        (True, 2, "m"), (2.0, 2, "m"), ("2", 2, "m"), (2, 1.5, "b"), (2, True, "b"),
    ])
    def test_non_int_dims_refused(self, m, b, name):
        # count_configurations(True, 2) returned 1; 2.0 and 1.5 ended in a TypeError
        bad = {"m": m, "b": b}[name]
        for count in (count_configurations, brute_force_count):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
                count(m, b)

    def test_rank_counts_against_orbits(self):
        # primitive configurations at (2,2) all reach the full period
        from kdfc_snow.gf2.poly import is_primitive
        from kdfc_snow.sigma_lfsr import SigmaConfig, period

        mask = 3
        hits = 0
        for enc in range(1 << 8):
            gains = [
                [(enc >> (j * 4 + i * 2)) & mask for i in range(2)]
                for j in range(2)
            ]
            cfg = SigmaConfig.from_gains(2, 2, gains)
            if is_primitive(config_char_poly(cfg)):
                hits += 1
                assert period(cfg, [1, 0]) == 15
        assert hits == 16
