"""Word-oriented LFSR: structure, stepping equivalence, periods."""

import random
import signal
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KAT_IV, KAT_KEY
from oracles import (
    build_transition_matrix,
    char_poly_sympy,
    dense_char_poly,
    extract_config,
    NotMCompanionError,
    from_bits,
    gain_tables,
    identity,
    lfsr_step,
    orbit_of,
    row_certificate_bits,
    stacked,
    state_from_stacked,
    zeros,
)

from kdfc_snow import sigma_lfsr
from kdfc_snow.gf2 import linalg
from kdfc_snow.gf2.linalg import (
    DimensionError,
    berlekamp_massey,
    char_poly,
    mat_vec_mul,
    matrix_to_json,
)
from kdfc_snow.gf2.poly import clmul, from_exponents, is_irreducible, is_primitive
from kdfc_snow.gf2.primtable import primitive_poly
from kdfc_snow.kdfc import KdfcParams, kdfc_init, target_poly
from kdfc_snow.sigma_lfsr import (
    PeriodGuardError,
    SigmaConfig,
    _certificate,
    annihilates,
    build_config_matrix,
    config_char_poly,
    galois_state,
    period,
    step_stacked,
)
from kdfc_snow.snow2 import CipherState, snow2_gains


def random_config(rng, m, b):
    return SigmaConfig.from_gains(
        m, b, [[rng.getrandbits(m) for _ in range(m)] for _ in range(b)]
    )


def zero_gains(cfg, zeroed):
    """cfg with the gains B_i, i in zeroed, replaced by zero matrices."""
    m = cfg.m
    gains = [zeros(m) if i in zeroed else g for i, g in enumerate(cfg.gains())]
    return SigmaConfig.from_gains(m, cfg.b, gains)


def primitive_config(m, b, seed="period-check"):
    """A configuration with primitive characteristic polynomial, via the pipeline."""
    from kdfc_snow.confgen import FillBits, generate_config, pipeline_poly, y_offline

    p = pipeline_poly(m * b)
    total = m * b - m
    fill = FillBits.from_seed(m, total, seed, "online-fill")
    return generate_config(m, b, p, y_offline(m, b, 0, FillBits(m, [])), fill)


@st.composite
def small_states(draw):
    m = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    blocks = [draw(st.integers(0, (1 << m) - 1)) for _ in range(b)]
    return m, b, blocks, draw(st.randoms(use_true_random=False))


class TestSigmaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SigmaConfig.from_gains(2, 2, [identity(2)])  # wrong gain count
        with pytest.raises(ValueError):
            SigmaConfig.from_gains(2, 1, [identity(3)])  # wrong gain size

    @pytest.mark.parametrize("m,b,rows", [
        (0, 1, []),
        (2, 0, [0, 0]),
        (2, 2, [0]),  # too few rows
        (2, 2, [0, 0, 0]),  # too many
        (2, 2, [0, 16]),  # wider than mb = 4 bits
        (2, 2, [-1, 0]),
        (1, 1, [True]),
        (1, 1, [1.0]),
        (1, 1, ["1"]),
    ])
    def test_rows_validation(self, m, b, rows):
        with pytest.raises(ValueError):
            SigmaConfig(m, b, rows)

    def test_rows_hold_the_gain_blocks(self):
        # row r holds row r of B_i at bits [i*m, (i+1)*m)
        b0, b1 = [0b01, 0b11], [0b10, 0b00]
        cfg = SigmaConfig.from_gains(2, 2, [b0, b1])
        assert cfg.rows == [0b1001, 0b0011]
        assert cfg.gains() == [b0, b1]
        assert SigmaConfig(2, 2, [0b1001, 0b0011]) == cfg

    @pytest.mark.parametrize("m,b", [(1, 1), (3, 2), (5, 3), (32, 16)])
    def test_gains_split_and_join(self, m, b):
        cfg = random_config(random.Random(m + b), m, b)
        assert SigmaConfig.from_gains(m, b, cfg.gains()) == cfg

    @pytest.mark.parametrize("m,b", [(2.9, 2), (2, "2"), (True, 1), (1, True), (2.0, 2)])
    def test_shape_must_be_ints(self, m, b):
        # the first of m, b that is not an int is named, with its type
        name, bad = ("m", m) if type(m) is not int else ("b", b)
        message = f"^{name} must be an int, got {type(bad).__name__}$"
        with pytest.raises(ValueError, match=message):
            SigmaConfig(m, b, [0] * 2)
        with pytest.raises(ValueError, match=message):
            SigmaConfig.from_gains(m, b, [identity(2)] * 2)

    @pytest.mark.parametrize("m,b,n", [(2.9, "2", 2), (True, 1, 1), (2, 2.0, 2)])
    def test_from_json_refuses_a_non_int_shape(self, m, b, n):
        # n identity gains of n x n: the shape that int(m), int(b) would give
        doc = {"m": m, "b": b, "gains": [matrix_to_json(identity(n), n)] * n}
        name, bad = ("m", m) if type(m) is not int else ("b", b)
        got = {float: "a number", bool: "a boolean"}[type(bad)]
        message = f"^malformed configuration: field '{name}' is not an integer \\(got {got}\\)$"
        with pytest.raises(ValueError, match=message):
            SigmaConfig.from_json(doc)

    @pytest.mark.parametrize("change,message", [
        (lambda doc: doc["gains"][0].update(cols="2"),
         "field 'gains\\[0\\].cols' is not an integer \\(got a string\\)$"),
        (lambda doc: doc["gains"][1].pop("data"), "field 'data' missing from 'gains\\[1\\]'$"),
        (lambda doc: doc.pop("gains"), "field 'gains' missing$"),
        (lambda doc: doc["gains"][0].update(data=[1, 2]),
         "field 'gains\\[0\\].data\\[0\\]' is not a string \\(got an integer\\)$"),
    ], ids=["cols-string", "no-data", "no-gains", "int-data"])
    def test_from_json_refuses_a_malformed_document(self, change, message):
        # these ended in a bare TypeError or KeyError
        doc = SigmaConfig.from_gains(2, 2, [identity(2)] * 2).to_json()
        change(doc)
        with pytest.raises(ValueError, match="^malformed configuration: " + message):
            SigmaConfig.from_json(doc)

    @pytest.mark.parametrize("gain,message", [
        ([0b01, 0b100], "^gain B_1 is 2x3, expected 2x2$"),
        ([0b01], "^gain B_1 is 1x1, expected 2x2$"),
        ([0b01, -1], "^row has bits beyond the column count$"),
    ], ids=["over-wide", "short", "negative"])
    def test_gain_must_be_m_by_m(self, gain, message):
        with pytest.raises(DimensionError, match=message):
            SigmaConfig.from_gains(2, 2, [identity(2), gain])

    def test_json_gain_shape_is_checked_as_declared(self):
        # a declared 2 x 3 gain is refused even though its rows fit 2 bits
        doc = {"m": 2, "b": 1, "gains": [matrix_to_json(identity(2), 3)]}
        with pytest.raises(DimensionError, match="^gain B_0 is 2x3, expected 2x2$"):
            SigmaConfig.from_json(doc)

    def test_json_roundtrip(self):
        rng = random.Random(0)
        cfg = random_config(rng, 3, 2)
        assert SigmaConfig.from_json(cfg.to_json()) == cfg


class TestMatrices:
    @pytest.mark.parametrize("m,b", [(1, 3), (2, 2), (2, 4), (4, 3)])
    def test_config_matrix_structure(self, m, b):
        rng = random.Random(m * 31 + b)
        cfg = random_config(rng, m, b)
        c = build_config_matrix(cfg)
        assert len(c) == m * b and linalg.width(c) <= m * b
        # identity blocks on the block super-diagonal
        for j in range(b - 1):
            for r in range(m):
                assert c[j * m + r] == 1 << ((j + 1) * m + r)
        # gains across the last block row
        gains = cfg.gains()
        for i in range(b):
            for r in range(m):
                got = (c[(b - 1) * m + r] >> (i * m)) & ((1 << m) - 1)
                assert got == gains[i][r]

    @pytest.mark.parametrize("m,b", [(2, 2), (3, 3), (2, 4)])
    def test_extract_roundtrip(self, m, b):
        rng = random.Random(17 * m + b)
        cfg = random_config(rng, m, b)
        assert extract_config(build_config_matrix(cfg), m) == cfg

    def test_extract_rejects_non_companion(self):
        with pytest.raises(NotMCompanionError):
            extract_config(zeros(4), 2)
        with pytest.raises(NotMCompanionError):
            extract_config(identity(4), 2)
        with pytest.raises(NotMCompanionError):
            extract_config(identity(4), 3)  # 4 not divisible by 3

    @pytest.mark.parametrize("m,b", [(2, 2), (2, 4), (4, 2)])
    def test_transition_is_config_action_on_stacked_states(self, m, b):
        rng = random.Random(5 * m + b)
        cfg = random_config(rng, m, b)
        t = build_transition_matrix(cfg)
        tables = gain_tables(cfg.gains())
        for _ in range(10):
            s = [rng.getrandbits(m) for _ in range(b)]
            stepped, _ = lfsr_step(tables, s)
            assert mat_vec_mul(stacked(s, m), t) == stacked(stepped, m)

    @pytest.mark.parametrize("m,b", [(2, 2), (3, 2), (2, 3)])
    def test_config_and_transition_share_char_poly(self, m, b):
        rng = random.Random(m + 7 * b)
        cfg = random_config(rng, m, b)
        assert char_poly(build_config_matrix(cfg)) == char_poly(
            build_transition_matrix(cfg)
        )


class TestStepping:
    @given(small_states())
    @settings(max_examples=60)
    def test_step_stacked_matches_lfsr_step(self, data):
        m, b, blocks, rng = data
        cfg = random_config(rng, m, b)
        stepped, out = lfsr_step(gain_tables(cfg.gains()), blocks)
        assert out == blocks[0]
        assert step_stacked(cfg, stacked(blocks, m)) == stacked(stepped, m)

    @given(small_states(), st.data())
    @settings(max_examples=80)
    def test_step_stacked_with_zero_gains(self, data, draw):
        # a random subset of gains zeroed (possibly all): their blocks of
        # the lane tables are zero, the oracle multiplies by every gain
        m, b, blocks, rng = data
        cfg = random_config(rng, m, b)
        zeroed = draw.draw(st.lists(st.booleans(), min_size=b, max_size=b))
        cfg = zero_gains(cfg, {i for i, z in enumerate(zeroed) if z})
        mask = (1 << m) - 1
        for k, g in enumerate(reversed(cfg.gains())):
            if not any(g):
                assert all((row >> (k * m)) & mask == 0 for row in lane_rows(cfg))
        want = stacked(lfsr_step(gain_tables(cfg.gains()), blocks)[0], m)
        assert step_stacked(cfg, stacked(blocks, m)) == want

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 13),
        b=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        zeroed=st.sets(st.integers(0, 3)),
    )
    def test_lane_tables_match_the_oracles(self, m, b, seed, zeroed):
        # widths with a narrow last lane (m not a multiple of 8) and b = 1
        # included: the Galois state, step_stacked and the certificate
        # against per-gain products, lfsr_step and the dense char poly
        rng = random.Random(seed)
        cfg = zero_gains(random_config(rng, m, b), zeroed)
        s = [rng.getrandbits(m) for _ in range(b)]
        z = galois_state(cfg, s)
        gains = cfg.gains()
        for k in range(b):
            want = 0
            for i in range(b - k):
                want ^= mat_vec_mul(s[k + i], gains[i])
            assert (z >> (k * m)) & ((1 << m) - 1) == want
        assert z >> (m * b) == 0
        # lfsr_step's gain tables against the per-gain products: block 0
        # of z, checked against them above
        stepped, out = lfsr_step(gain_tables(gains), s)
        assert (stepped, out) == (s[1:] + [z & ((1 << m) - 1)], s[0])
        assert step_stacked(cfg, stacked(s, m)) == stacked(stepped, m)
        assert config_char_poly(cfg) == dense_char_poly(cfg)

    @pytest.mark.parametrize("m", [1, 3, 8, 9, 32])
    def test_single_block(self, m):
        # b = 1: the new block is x * B_0, or 0 when B_0 is zero
        rng = random.Random(m)
        for gain in (random_config(rng, m, 1).gains()[0], zeros(m)):
            cfg = SigmaConfig.from_gains(m, 1, [gain])
            for _ in range(10):
                x = rng.getrandbits(m)
                assert step_stacked(cfg, x) == lfsr_step(gain_tables([gain]), [x])[0][0]

    def test_all_zero_gains_shift_in_zeros(self):
        cfg = SigmaConfig(32, 16, [0] * 32)
        assert not any(any(table) for table in cfg.byte_tables())
        v = random.Random(0).getrandbits(512)
        assert step_stacked(cfg, v) == v >> 32

    @given(small_states())
    @settings(max_examples=30)
    def test_state_vector_equiv(self, data):
        m, b, blocks, rng = data
        cfg = random_config(rng, m, b)
        via_matrix = mat_vec_mul(stacked(blocks, m), build_transition_matrix(cfg))
        assert via_matrix == stacked(lfsr_step(gain_tables(cfg.gains()), blocks)[0], m)

    def test_stacked_roundtrip(self):
        assert stacked([5, 0, 7], 3) == 5 | 7 << 6
        assert state_from_stacked(3, 3, 5 | 7 << 6) == [5, 0, 7]

    def test_dimension_mismatch(self):
        # step_stacked takes a bare integer; the word-count guard is
        # CipherState's
        for count in (0, 15, 17):
            with pytest.raises(ValueError, match="does not match configuration dimensions"):
                CipherState([1] * count, [0, 0], snow2_gains())

    @pytest.mark.parametrize("word", [1.0, "1", None, True, [1]])
    def test_non_integer_word_rejected(self, word):
        with pytest.raises(ValueError, match="block 3 is not an integer"):
            CipherState([0, 0, 0, word] + [0] * 12, [0, 0], snow2_gains())


def lane_rows(cfg):
    """L(e_r) for each bit r of a word, read from the lane tables."""
    return [cfg.byte_tables()[r // 8][1 << (r % 8)] for r in range(cfg.m)]


def galois_clocks(cfg, v, n):
    """The Fibonacci window v after n Galois clocks through the lane tables."""
    m, b = cfg.m, cfg.b
    mask = (1 << m) - 1
    words = state_from_stacked(m, b, v)
    z = galois_state(cfg, words)
    for _ in range(n):
        x = z & mask
        words.append(x)
        z = (z >> m) ^ galois_state(cfg, [x])
    return stacked(words[n:], m)


class TestJumpTables:
    """The Galois lane tables: b clocks through them jump the window by T^b."""

    @given(small_states(), st.data())
    @settings(max_examples=80)
    def test_tables_are_t_to_the_b(self, data, draw):
        # random gains, a random subset zeroed; b Galois clocks against b
        # products with the oracle's transition matrix
        m, b, blocks, rng = data
        zeroed = draw.draw(st.lists(st.booleans(), min_size=b, max_size=b))
        cfg = zero_gains(random_config(rng, m, b), {i for i, z in enumerate(zeroed) if z})
        t = build_transition_matrix(cfg)
        for v in (stacked(blocks, m), 1, (1 << (m * b)) - 1):
            want = v
            for _ in range(b):
                want = mat_vec_mul(want, t)
            assert galois_clocks(cfg, v, b) == want

    @pytest.mark.parametrize("m,b", [(32, 16), (16, 32), (9, 7)])
    def test_lane_shapes_and_cache(self, m, b):
        # ceil(m/8) lanes, the last one narrower when 8 does not divide m;
        # L(e_r) holds row r of B_{b-1-k} in block k
        cfg = random_config(random.Random(m), m, b)
        lanes = cfg.byte_tables()
        assert cfg.byte_tables() is lanes
        widths = [min(8, m - 8 * k) for k in range((m + 7) // 8)]
        assert [len(table) for table in lanes] == [1 << w for w in widths]
        assert lane_rows(cfg) == [
            sum(g[r] << (k * m) for k, g in enumerate(reversed(cfg.gains())))
            for r in range(m)
        ]
        v = random.Random(b).getrandbits(m * b)
        want, tables = state_from_stacked(m, b, v), gain_tables(cfg.gains())
        for _ in range(b):
            want, _ = lfsr_step(tables, want)
        assert galois_clocks(cfg, v, b) == stacked(want, m)


class TestCharPoly:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sympy(self, seed):
        rng = random.Random(seed)
        m, b = rng.choice([(2, 2), (2, 3), (3, 2)])
        cfg = random_config(rng, m, b)
        c = build_config_matrix(cfg)
        assert config_char_poly(cfg) == char_poly_sympy(c, m * b)

    def test_known_single_block(self):
        # b = 1: the configuration matrix is the gain itself
        g = from_bits([[0, 1], [1, 1]])
        cfg = SigmaConfig.from_gains(2, 1, [g])
        assert config_char_poly(cfg) == from_exponents([2, 1, 0])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_route(self, data):
        m = data.draw(st.integers(1, 5))
        b = data.draw(st.integers(1, 5))
        rows = st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)
        gains = [data.draw(rows) for _ in range(b)]
        for i in data.draw(st.sets(st.integers(0, b - 1))):
            gains[i] = zeros(m)
        cfg = SigmaConfig.from_gains(m, b, gains)
        assert config_char_poly(cfg) == dense_char_poly(cfg)

    def test_cyclic_configs_skip_the_dense_route(self, monkeypatch):
        cfgs = [primitive_config(4, 4), primitive_config(32, 2)]
        from kdfc_snow.snow2 import snow2_gains

        cfgs.append(snow2_gains())
        want = [dense_char_poly(cfg) for cfg in cfgs]

        def refuse(a):
            raise AssertionError("dense char_poly called")

        monkeypatch.setattr(sigma_lfsr, "char_poly", refuse)
        assert [config_char_poly(cfg) for cfg in cfgs] == want

    def test_zero_and_non_cyclic_configs_take_the_dense_route(self, monkeypatch):
        zero = SigmaConfig.from_gains(3, 2, [zeros(3)] * 2)
        eye = SigmaConfig.from_gains(2, 1, [identity(2)])  # (x + 1)^2, non-cyclic
        # a companion matrix of x (x^2 + x + 1), but the bits from e_0 repeat
        # 1, 1, 0 and have minimal polynomial x^2 + x + 1
        blocks = SigmaConfig.from_gains(
            1, 3, [[0], [1], [1]]
        )
        cases = [
            (zero, from_exponents([6])),
            (eye, from_exponents([2, 0])),
            (blocks, from_exponents([3, 2, 1])),
        ]
        calls = []
        real = linalg.char_poly
        monkeypatch.setattr(sigma_lfsr, "char_poly", lambda a: calls.append(a) or real(a))
        for cfg, want in cases:
            assert config_char_poly(cfg) == want
        assert len(calls) == len(cases)


def certificate_bits(cfg):
    """The sequence config_char_poly hands to Berlekamp-Massey."""
    seen = []
    real = linalg.berlekamp_massey
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigma_lfsr, "berlekamp_massey", lambda bits: seen.append(bits) or real(bits))
        config_char_poly(cfg)
    assert len(seen) == 1
    return seen[0]


class TestTransposedCertificate:
    """config_char_poly steps the Galois (transposed, observer-form) map;
    the oracle steps e_top C^t on rows of the configuration matrix C."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([1, 3, 4, 5, 12, 32]),
        b=st.sampled_from([1, 2, 4, 16]),
        seed=st.integers(0, 2**32),
        zeroed=st.sets(st.integers(0, 15)),
    )
    def test_sequence_matches_row_stepping(self, m, b, seed, zeroed):
        cfg = zero_gains(random_config(random.Random(seed), m, b), zeroed)
        bits = certificate_bits(cfg)
        assert cfg._byte_tables is not None  # the keystream's own tables
        assert bits == row_certificate_bits(cfg)

    @pytest.mark.parametrize("m,b", [(1, 1), (5, 2), (32, 16)])
    def test_all_gains_zero(self, m, b):
        cfg = SigmaConfig.from_gains(m, b, [zeros(m)] * b)
        bits = certificate_bits(cfg)
        assert bits == row_certificate_bits(cfg) == [1] + [0] * (2 * m * b - 1)

    @pytest.mark.parametrize("which", ["snow2", "dense"])
    def test_full_scale(self, which):
        from kdfc_snow.snow2 import snow2_gains

        cfg = snow2_gains() if which == "snow2" else random_config(random.Random(5), 32, 16)
        assert certificate_bits(cfg) == row_certificate_bits(cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 4),
        cs=st.lists(st.booleans(), min_size=1, max_size=4),
    )
    def test_non_cyclic_configs_match_the_dense_oracle(self, m, cs):
        # scalar gains c_i * I: every block coordinate is the scalar LFSR of
        # f = x^b + sum c_i x^i, so the char poly is f^m and, for m >= 2, the
        # minimal polynomial f is too short: the dense route decides
        b = len(cs)
        gains = [identity(m) if c else zeros(m) for c in cs]
        cfg = SigmaConfig.from_gains(m, b, gains)
        f = from_exponents([b] + [i for i, c in enumerate(cs) if c])
        want = 1
        for _ in range(m):
            want = clmul(want, f)
        assert config_char_poly(cfg) == dense_char_poly(cfg) == want
        assert berlekamp_massey(certificate_bits(cfg)).bit_length() - 1 < m * b


class TestAnnihilates:
    """The verify check: e_0 p(G) = 0, against config_char_poly."""

    def test_exhaustive_over_irreducible_targets(self):
        # every row tuple at 2x2, 2x3 and 1x5, every irreducible p of
        # degree mb: 37,824 checks
        checks = 0
        for m, b in [(2, 2), (2, 3), (1, 5)]:
            n = m * b
            targets = [p for p in range(1 << n, 2 << n) if is_irreducible(p)]
            for rows in product(range(1 << n), repeat=m):
                cfg = SigmaConfig(m, b, list(rows))
                chi = config_char_poly(cfg)
                for p in targets:
                    assert annihilates(cfg, p) == (chi == p), (m, b, rows, p)
                    checks += 1
        assert checks == 37_824

    def test_keyed_configuration_and_its_flips(self):
        params = KdfcParams(key=KAT_KEY, iv=KAT_IV, discard=0, verify_config=False)
        cfg, p = kdfc_init(params).cfg, target_poly()
        assert annihilates(cfg, p)
        rng = random.Random(35)
        for _ in range(33):
            rows = list(cfg.rows)
            rows[rng.randrange(32)] ^= 1 << rng.randrange(512)
            flipped = SigmaConfig(32, 16, rows)
            assert not annihilates(flipped, p)
            # for the irreducible p, chi = p exactly when the certificate,
            # which divides chi, is p: no dense char_poly is needed
            assert _certificate(flipped) != p

    def test_reducible_p_shows_only_a_divisor(self):
        # chi = x (x^2 + x + 1), but e_0's minimal polynomial x^2 + x + 1
        # also divides the reducible x^3 + 1 = (x + 1)(x^2 + x + 1)
        cfg = SigmaConfig.from_gains(1, 3, [[0], [1], [1]])
        assert config_char_poly(cfg) == from_exponents([3, 2, 1])
        assert annihilates(cfg, from_exponents([3, 0]))

    @pytest.mark.parametrize("p", [1 << 15 | 1, 1 << 17 | 1, 1, 0])
    def test_degree_mismatch_refused(self, p):
        with pytest.raises(DimensionError, match="degree"):
            annihilates(primitive_config(4, 4), p)

    @pytest.mark.parametrize("p", [-(1 << 16) - 1, True, 1.0 * (1 << 16)])
    def test_non_polynomial_refused(self, p):
        with pytest.raises(ValueError, match="p must be an int|need p >= 0"):
            annihilates(primitive_config(4, 4), p)


class TestPeriod:
    @pytest.mark.parametrize("m,b", [(2, 2), (1, 4), (4, 1)])
    def test_primitive_reaches_full_period(self, m, b):
        cfg = primitive_config(m, b)
        assert is_primitive(config_char_poly(cfg))
        n = m * b
        want = (1 << n) - 1
        s0 = [1] + [0] * (b - 1)
        assert period(cfg, s0) == want
        orbit = orbit_of(cfg, s0)
        assert len(orbit) == want
        assert sorted(orbit) == list(range(1, 1 << n))

    def test_every_nonzero_seed_same_period(self):
        cfg = primitive_config(2, 2)
        for v in range(1, 16):
            s = state_from_stacked(2, 2, v)
            assert period(cfg, s) == 15

    def test_non_primitive_short_period(self):
        # x^4 + 1 = (x+1)^4: nilpotent-plus-identity dynamics, period 4 orbits
        cfg = SigmaConfig.from_gains(1, 4, [[1]] + [[0]] * 3)
        assert config_char_poly(cfg) == from_exponents([4, 0])
        assert period(cfg, [1, 0, 0, 0]) < 15

    @pytest.mark.parametrize("m,b", [(2, 2), (1, 4), (3, 2)])
    def test_every_seed_matches_the_orbit_oracle(self, m, b):
        # non-primitive configurations with B_0 invertible, whose seeds lie
        # on orbits of several lengths
        rng = random.Random(f"period {m}x{b}")
        checked = 0
        while checked < 3:
            cfg = SigmaConfig(m, b, [rng.getrandbits(m * b) for _ in range(m)])
            b0 = [row & (1 << m) - 1 for row in cfg.rows]
            if linalg.rank(b0) < m or is_primitive(config_char_poly(cfg)):
                continue
            for v in range(1, 1 << (m * b)):
                seed = state_from_stacked(m, b, v)
                assert period(cfg, seed) == len(orbit_of(cfg, seed)), (cfg.rows, v)
            checked += 1

    def test_guards(self):
        cfg = primitive_config(2, 2)
        with pytest.raises(PeriodGuardError, match="zero seed"):
            period(cfg, [0, 0])
        big = SigmaConfig.from_gains(32, 16, [zeros(32)] * 16)
        with pytest.raises(PeriodGuardError):
            period(big, [1] + [0] * 15)

    @pytest.mark.parametrize("words,match", [
        ([1], "does not match configuration dimensions"),
        ([1, 0, 0], "does not match configuration dimensions"),
        ([4, 0], "block 0 not an 2-bit word"),
        ([1, -1], "block 1 not an 2-bit word"),
        ([1, True], "block 1 is not an integer"),
        ([1.0, 0], "block 0 is not an integer"),
    ])
    def test_seed_words_are_checked(self, words, match):
        # m = 2, b = 2: two words of two bits each, refused before stepping
        with pytest.raises(ValueError, match=match):
            period(primitive_config(2, 2), words)

    @pytest.mark.parametrize("m,b,gains", [
        # B_0 = 0 at m = 1: the seed [1, 0] steps to [0, 0] and stays there
        (1, 2, [[0], [1]]),
        # B_0 of rank 1 at m = 2, with dense B_1
        (2, 2, [[0b11, 0b11], [0b10, 0b01]]),
        (3, 1, [[0b001, 0b010, 0b011]]),
    ])
    def test_singular_step_refused_before_stepping(self, m, b, gains):
        # a singular B_0 makes the step non-injective, so the seed need not
        # recur; stepping would never return
        cfg = SigmaConfig.from_gains(m, b, gains)

        def expire(signum, frame):
            raise TimeoutError("period did not return within 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(PeriodGuardError, match="singular"):
                period(cfg, [1] + [0] * (b - 1))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestFullScalePeriodEvidence:
    """mb = 16: one orbit of length 65535 covers every nonzero state."""

    @pytest.mark.parametrize("m,b", [(2, 8), (4, 4)])
    def test_orbit_covers_state_space(self, m, b):
        cfg = primitive_config(m, b)
        orbit = orbit_of(cfg, [1] + [0] * (b - 1))
        assert len(orbit) == 65535
        assert len(set(orbit)) == 65535
