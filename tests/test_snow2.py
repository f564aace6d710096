"""SNOW 2.0: field arithmetic, S-box, schedule, and keystream dual routes.

Every core operation is checked against an independent reference that works
with word lists and explicit tower-field polynomial arithmetic instead of
the package's bit-matrix stepping and byte-shift tables.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KAT_IV, KAT_KEY
from oracles import (
    AES_SBOX,
    ALPHA_INV,
    BETA_POLY,
    GS,
    Snow2Ref,
    build_alpha_matrices,
    clock_oracle,
    f32_mul,
    gain_tables,
    gf8_mul,
    identity,
    keystream_oracle,
    lfsr_step,
    ref_alpha_inv_mul,
    ref_alpha_mul,
    ref_sbox,
    ref_sbox_lane,
    stacked,
    vec_to_word,
    word_to_vec,
    zeros,
)

from kdfc_snow.gf2.linalg import mat_mul, mat_vec_mul
from kdfc_snow import snow2
from kdfc_snow.sigma_lfsr import SigmaConfig, step_stacked
from kdfc_snow.snow2 import (
    _SR,
    CipherState,
    KeyError32,
    alpha_inv_mul,
    alpha_mul,
    boxplus,
    fsm_step,
    init_with_captures,
    load_state_words,
    sbox_s,
    snow2_gains,
    snow2_init,
    snow2_keystream,
)

# independently recomputed with the list-based reference implementation
ZERO_KAT = [
    0xB56F2D8E, 0x430E20BC, 0x444A4A78, 0x77A9788F,
    0x4F060087, 0xFCEDD8C2, 0x10DAED5D, 0x42AA2C88,
]
KEYED_KAT = [
    0xBC2AD498, 0x6F479F78, 0x7AD7544E, 0xD4D018A2,
    0x45A22CA6, 0xBA179956, 0x5D6B8D1D, 0x4389B412,
]
KEYED_KAT_128 = [
    0x7439F824, 0x889F2885, 0xA685E203, 0xCE2AA53F,
    0x43170AE0, 0xE976528B, 0x77201A6A, 0x0A985E6D,
]


def sample_words(seed, count=300):
    rng = random.Random(seed)
    edge = [0, 1, 0xFF, 0x100, 0x80000000, 0xFFFFFFFF, 0x01010101]
    return edge + [rng.getrandbits(32) for _ in range(count - len(edge))]


class TestFieldArithmetic:
    @pytest.mark.parametrize("w", sample_words("alpha", 60))
    def test_alpha_mul_dual_route(self, w):
        assert alpha_mul(w) == ref_alpha_mul(w)
        assert alpha_inv_mul(w) == ref_alpha_inv_mul(w)

    def test_alpha_inverse_cancels(self):
        for w in sample_words("cancel", 100):
            assert alpha_inv_mul(alpha_mul(w)) == w
            assert alpha_mul(alpha_inv_mul(w)) == w

    def test_alpha_inv_is_field_inverse(self):
        assert f32_mul((0, 0, 1, 0), ALPHA_INV) == (0, 0, 0, 1)

    def test_word_packing_msb_is_cubic_coeff(self):
        # tuple order (c3, c2, c1, c0): the high byte carries alpha^3
        assert word_to_vec(0xAB000000) == (0xAB, 0, 0, 0)
        assert vec_to_word((0x12, 0x34, 0x56, 0x78)) == 0x12345678
        assert f32_mul((0, 0, 0, 1), (0x12, 0x34, 0x56, 0x78)) == (
            0x12, 0x34, 0x56, 0x78
        )

    def test_matrices_realize_multiplication(self):
        a, a_inv = build_alpha_matrices()
        for w in sample_words("matrix", 40):
            assert mat_vec_mul(w, a) == alpha_mul(w)
            assert mat_vec_mul(w, a_inv) == alpha_inv_mul(w)
        assert mat_mul(a, a_inv) == identity(32)


class TestByteFields:
    @pytest.mark.parametrize(
        "table,coeffs",
        [("_MUL_A", GS), ("_MUL_AINV", ALPHA_INV)],
        ids=["alpha", "alpha_inv"],
    )
    def test_alpha_tables_multiply_like_the_oracle(self, table, coeffs):
        # entry c is c times alpha^4 = GS (alpha^3 first) or alpha^{-1},
        # one oracle byte product per coefficient
        got = getattr(snow2, table)
        assert len(got) == 256
        for c in range(256):
            want = vec_to_word(tuple(gf8_mul(c, k, BETA_POLY) for k in coeffs))
            assert got[c] == want, (table, c)


class TestSbox:
    def test_subbytes_table_is_canonical(self):
        assert bytes(_SR) == AES_SBOX

    @pytest.mark.parametrize("w", sample_words("sbox", 60))
    def test_sbox_dual_route(self, w):
        assert sbox_s(w) == ref_sbox(w)

    def test_sbox_known_word(self):
        # all-zero bytes: SubBytes gives 0x63 everywhere; MixColumn of a
        # constant column is that constant (row sums are 2^3^1^1 = 1)
        assert sbox_s(0) == 0x63636363

    def test_sbox_matches_the_reference_on_seeded_words(self):
        rng = random.Random("sbox-2048")
        for _ in range(2048):
            w = rng.getrandbits(32)
            assert sbox_s(w) == ref_sbox(w)


class TestSboxHalves:
    """S(w) = _S_LO[w & 0xFFFF] ^ _S_HI[w >> 16], two 16-bit tables."""

    def test_every_entry_is_the_xor_of_two_byte_lanes(self):
        t0, t1, t2, t3 = (ref_sbox_lane(k) for k in range(4))
        lo, hi = snow2._S_LO, snow2._S_HI
        for h in range(256):
            row = slice(h << 8, h + 1 << 8)
            assert lo[row].tolist() == [t ^ t1[h] for t in t0]
            assert hi[row].tolist() == [t ^ t3[h] for t in t2]

    def test_tables_are_native_32_bit_entries(self):
        for table in (snow2._S_LO, snow2._S_HI):
            assert table.nbytes == 262_144
            assert (table.format, table.itemsize, len(table)) == ("I", 4, 65_536)


class TestFsm:
    def test_boxplus_is_mod_2_32(self):
        assert boxplus(0xFFFFFFFF, 1) == 0
        assert boxplus(0x80000000, 0x80000000) == 0
        assert boxplus(3, 4) == 7

    def test_single_step_known(self):
        fsm, f = fsm_step([0, 0], d5=7, d15=9)
        assert f == 9
        assert fsm == [7, sbox_s(0)]

    def test_register_validation(self):
        # the registers are checked where the cipher state is built
        words = [0] * 16
        with pytest.raises(ValueError, match="FSM registers"):
            CipherState(words, [1 << 32, 0], snow2_gains())
        for bad in (1.0, "1", None, True):
            with pytest.raises(ValueError, match="FSM registers"):
                CipherState(words, [bad, 0], snow2_gains())
            with pytest.raises(ValueError, match="FSM registers"):
                CipherState(words, [0, bad], snow2_gains())

    @pytest.mark.parametrize("fsm", [
        None, [0], [0, 0, 0], [True, 0], [1.0, 0], [1 << 32, 0], [0, -1],
    ])
    def test_cipher_state_refuses_a_bad_register_pair(self, fsm):
        with pytest.raises(ValueError, match="FSM registers must be two 32-bit words"):
            CipherState([0] * 16, fsm, snow2_gains())

    def test_cipher_state_keeps_its_own_pair(self):
        regs = [3, 0xFFFFFFFF]
        state = CipherState([0] * 16, regs, snow2_gains())
        assert state.fsm == regs and state.fsm is not regs


class TestSchedule:
    def test_load_matches_reference_256(self):
        got = load_state_words(KAT_KEY, KAT_IV)
        assert got[:8] == [w ^ 0xFFFFFFFF for w in KAT_KEY]
        k, iv = KAT_KEY, KAT_IV
        assert got[8:] == [
            k[0], k[1] ^ iv[3], k[2] ^ iv[2], k[3],
            k[4] ^ iv[1], k[5], k[6], k[7] ^ iv[0],
        ]

    def test_load_matches_reference_128(self):
        k = KAT_KEY[:4]
        got = load_state_words(k, KAT_IV)
        inv = [w ^ 0xFFFFFFFF for w in k]
        assert got[:4] == inv and got[4:8] == k
        assert got[8] == inv[0] and got[9] == inv[1] ^ KAT_IV[3]
        assert got[15] == k[3] ^ KAT_IV[0]

    @pytest.mark.parametrize("nkey", [0, 3, 5, 7, 9])
    def test_bad_key_length(self, nkey):
        with pytest.raises(KeyError32):
            load_state_words([0] * nkey, [0] * 4)

    def test_bad_iv_and_range(self):
        with pytest.raises(KeyError32):
            load_state_words([0] * 8, [0] * 3)
        with pytest.raises(KeyError32):
            load_state_words([1 << 32] + [0] * 7, [0] * 4)

    @pytest.mark.parametrize("key,iv,message", [
        ([1.5] * 8, [0] * 4, "key word 0 is not an integer: 1.5"),
        ([0] * 7 + [True], [0] * 4, "key word 7 is not an integer: True"),
        ([0] * 8, [0, 0, 2.0, 0], "IV word 2 is not an integer: 2.0"),
    ])
    def test_non_int_words_refused_before_the_schedule(self, key, iv, message):
        with pytest.raises(KeyError32, match=message):
            snow2_init(key, iv)


class TestInit:
    @pytest.mark.parametrize("key,iv", [
        ([0] * 8, [0] * 4),
        (KAT_KEY, KAT_IV),
        (KAT_KEY[:4], KAT_IV),
    ])
    def test_init_round_outputs_match_reference(self, key, iv):
        _, captures = init_with_captures(key, iv)
        assert len(captures) == 32
        assert captures == Snow2Ref(key, iv).init_f

    def test_wrong_size_config_rejected(self):
        from kdfc_snow.sigma_lfsr import SigmaConfig

        small = SigmaConfig.from_gains(2, 2, [identity(2)] * 2)
        with pytest.raises(ValueError):
            snow2_init([0] * 8, [0] * 4, cfg=small)

    def test_state_dimension_check(self):
        with pytest.raises(ValueError, match="does not match configuration dimensions"):
            CipherState([0, 0], [0, 0], snow2_gains())

    def test_state_holds_its_16_words(self):
        words = load_state_words(KAT_KEY, KAT_IV)
        state = CipherState(words, [0, 0], snow2_gains())
        assert state.lfsr == words and state.lfsr is not words
        snow2_keystream(state, 17)
        assert type(state.lfsr) is list and len(state.lfsr) == 16
        assert type(state.fsm) is list and len(state.fsm) == 2


class TestKeystream:
    def test_zero_key_kat(self):
        st = snow2_init([0] * 8, [0] * 4)
        assert snow2_keystream(st, 8) == ZERO_KAT

    def test_keyed_kat_256(self):
        st = snow2_init(KAT_KEY, KAT_IV)
        assert snow2_keystream(st, 8) == KEYED_KAT

    def test_keyed_kat_128(self):
        st = snow2_init(KAT_KEY[:4], KAT_IV)
        assert snow2_keystream(st, 8) == KEYED_KAT_128

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_keys_dual_route(self, seed):
        rng = random.Random(seed)
        key = [rng.getrandbits(32) for _ in range(8 if seed % 2 else 4)]
        iv = [rng.getrandbits(32) for _ in range(4)]
        st = snow2_init(key, iv)
        assert snow2_keystream(st, 64) == Snow2Ref(key, iv).keystream(64)

    def test_continuation_is_seamless(self):
        a = snow2_init(KAT_KEY, KAT_IV)
        b = snow2_init(KAT_KEY, KAT_IV)
        assert snow2_keystream(a, 8) + snow2_keystream(a, 8) == snow2_keystream(b, 16)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_dense_random_config_matches_object_clocks(self, seed):
        # all 16 gains dense and random: the shared loop on the stacked
        # state against per-object clocks through the oracle lfsr_step
        from kdfc_snow.sigma_lfsr import SigmaConfig

        rng = random.Random(seed)
        cfg = SigmaConfig.from_gains(32, 16, [
            [rng.getrandbits(32) for _ in range(32)]
            for _ in range(16)
        ])
        key = [rng.getrandbits(32) for _ in range(8)]
        iv = [rng.getrandbits(32) for _ in range(4)]
        st, captures = init_with_captures(key, iv, cfg=cfg)
        want_f, want_words = clock_oracle(key, iv, cfg, 24)
        assert captures == want_f
        assert snow2_keystream(st, 24) == want_words

    def test_zero_and_negative_n(self):
        st = snow2_init(KAT_KEY, KAT_IV)
        assert snow2_keystream(st, 0) == []
        with pytest.raises(ValueError):
            snow2_keystream(st, -1)

    @pytest.mark.parametrize("n", [True, 2.0, "3", None])
    def test_non_int_n_is_refused_before_any_clock(self, n):
        # True would stream one word and 2.0 fail inside the clock loop
        st = snow2_init(KAT_KEY, KAT_IV)
        before = (list(st.lfsr), list(st.fsm))
        with pytest.raises(ValueError, match="^n must be an int"):
            snow2_keystream(st, n)
        assert (list(st.lfsr), list(st.fsm)) == before


class TestGains:
    def test_placement(self):
        cfg = snow2_gains()
        a, a_inv = build_alpha_matrices()
        assert cfg.m == 32 and cfg.b == 16
        gains = cfg.gains()
        assert gains[0] == a
        assert gains[2] == identity(32)
        assert gains[11] == a_inv
        for j in set(range(16)) - {0, 2, 11}:
            assert gains[j] == zeros(32)
        # four lanes of L: block k of L(e_r) is row r of B_{15-k}, so only
        # blocks 15, 13 and 4 (B_0, B_2, B_11) are ever nonzero
        lanes = cfg.byte_tables()
        assert [len(table) for table in lanes] == [256] * 4
        for r in range(32):
            row = lanes[r // 8][1 << (r % 8)]
            want = (a[r] << 15 * 32) | (1 << (13 * 32 + r)) | (a_inv[r] << 4 * 32)
            assert row == want


# ---------------------------------------------------------------------------
# the Galois-form clock against per-object clocks


def fresh_copy(state):
    """The same running state on a configuration object of its own, no tables."""
    cfg = SigmaConfig(state.cfg.m, state.cfg.b, state.cfg.rows)
    return CipherState(state.lfsr.copy(), state.fsm.copy(), cfg)


def object_words(state, n):
    """n words by per-object clocks from state: (words, lfsr, fsm)."""
    return keystream_oracle(state.cfg, state.lfsr.copy(), state.fsm.copy(), n)


def dense_config(rng, zeroed=()):
    gains = [
        zeros(32) if i in zeroed
        else [rng.getrandbits(32) for _ in range(32)]
        for i in range(16)
    ]
    return SigmaConfig.from_gains(32, 16, gains)


# KDFC-SNOW's first words under KAT_KEY/KAT_IV (KEYED_KAT in test_kdfc.py)
KDFC_KEYED_KAT = [
    0x4668F2B6, 0x8C1F8CC4, 0xB770CB47, 0x4CB1AF7A,
    0x99F903A7, 0x7DC2E350, 0xEB1F0C19, 0xEFE0DA38,
]


@pytest.fixture(scope="module")
def kdfc_state():
    from kdfc_snow.kdfc import KdfcParams, kdfc_init

    return kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))


class TestJumpRoute:
    """Keystream calls of every length, split or whole, and every shape."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sets(st.integers(0, 15)),
        st.integers(16, 70),
    )
    def test_matches_object_clocks_on_dense_configs(self, rng, zeroed, n):
        # random dense gains with a random subset zeroed
        cfg = dense_config(rng, zeroed)
        key = [rng.getrandbits(32) for _ in range(8)]
        iv = [rng.getrandbits(32) for _ in range(4)]
        state = snow2_init(key, iv, cfg=cfg)
        assert snow2_keystream(state, n) == clock_oracle(key, iv, cfg, n)[1]

    @settings(max_examples=5, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(16, 70))
    def test_matches_object_clocks_on_snow2(self, rng, n):
        cfg = snow2_gains()
        key = [rng.getrandbits(32) for _ in range(rng.choice((4, 8)))]
        iv = [rng.getrandbits(32) for _ in range(4)]
        state = snow2_init(key, iv, cfg=cfg)
        assert snow2_keystream(state, n) == clock_oracle(key, iv, cfg, n)[1]

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 32, 1023, 1024, 1041, 4096])
    @pytest.mark.parametrize("cipher", ["snow2", "kdfc"])
    def test_route_choice_keeps_the_words(self, cipher, n, kdfc_state):
        # one call of n words, from a running state, against per-object
        # clocks: the LFSR runs all n words ahead of the FSM
        start = snow2_init(KAT_KEY, KAT_IV) if cipher == "snow2" else kdfc_state
        state = fresh_copy(start)
        words, lfsr, fsm = object_words(start, n)
        assert snow2_keystream(state, n) == words
        assert (state.lfsr, state.fsm) == (lfsr, fsm)

    @pytest.mark.parametrize("cipher", ["snow2", "kdfc"])
    def test_uneven_calls_across_the_route_boundary(self, cipher, kdfc_state):
        # each call rebuilds the Galois state from the last 16 words
        start = snow2_init(KAT_KEY, KAT_IV) if cipher == "snow2" else kdfc_state
        whole, split = fresh_copy(start), fresh_copy(start)
        sizes = [5, 16, 1021, 1, 1033, 0, 17, 31, 3]
        words = snow2_keystream(whole, sum(sizes))
        pieces = []
        for n in sizes:
            pieces += snow2_keystream(split, n)
        assert pieces == words
        assert (split.lfsr, split.fsm) == (whole.lfsr, whole.fsm)
        assert words[:100] == object_words(start, 100)[0]

    def test_kats_through_the_tables(self, kdfc_state):
        for key, iv, kat in [
            ([0] * 8, [0] * 4, ZERO_KAT),
            (KAT_KEY, KAT_IV, KEYED_KAT),
            (KAT_KEY[:4], KAT_IV, KEYED_KAT_128),
        ]:
            cfg = snow2_gains()
            assert snow2_keystream(snow2_init(key, iv, cfg=cfg), 16)[:8] == kat
            assert cfg._byte_tables is not None
        state = fresh_copy(kdfc_state)
        assert snow2_keystream(state, 16)[:8] == KDFC_KEYED_KAT

    @pytest.mark.parametrize("m,b", [(3, 1), (5, 2), (7, 5), (4, 6), (9, 7)])
    def test_shapes_with_few_blocks_or_odd_widths(self, m, b):
        # the FSM needs 32x16, so a cipher state refuses these shapes; the
        # generic one-step function still steps them through the lane tables
        rng = random.Random(f"{m}x{b}")
        cfg = SigmaConfig.from_gains(m, b, [
            [rng.getrandbits(m) for _ in range(m)] for _ in range(b)
        ])
        s = [rng.getrandbits(m) for _ in range(b)]
        with pytest.raises(ValueError, match=f"{m}x{b}"):
            CipherState(s, [0, 0], cfg)
        v, tables = stacked(s, m), gain_tables(cfg.gains())
        for _ in range(7 * b + 2):
            s, _ = lfsr_step(tables, s)
            v = step_stacked(cfg, v)
            assert v == stacked(s, m)

    @pytest.mark.parametrize("m,b", [(16, 32), (4, 4)])
    def test_cipher_state_refuses_other_shapes(self, m, b):
        cfg = SigmaConfig.from_gains(m, b, [identity(m)] * b)
        with pytest.raises(ValueError, match=f"{m}x{b}"):
            CipherState([1] * b, [0, 0], cfg)

    def test_16x32_state_is_refused(self, tmp_path, capsys, monkeypatch):
        # mb = 512 with m = 16, b = 32 has the target char poly, but the FSM
        # and the 8-digit output are defined on 32x16 only, so
        # `kdfc stream --state` refuses it before the char-poly check
        from kdfc_snow import cli
        from kdfc_snow.kdfc import target_poly

        cfg = cli._seeded_config(16, 32, 400, "16x32", target_poly())
        rng = random.Random("16x32")
        doc = {
            "m": 16,
            "b": 32,
            "char_poly": [e for e in range(512, -1, -1) if target_poly() >> e & 1],
            "config": cfg.to_json(),
            "lfsr": [rng.getrandbits(16) for _ in range(32)],
            "fsm": {"r1": rng.getrandbits(32), "r2": rng.getrandbits(32)},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))

        def no_char_poly(_):
            raise AssertionError("char poly computed for a refused shape")

        monkeypatch.setattr(cli, "config_char_poly", no_char_poly)
        assert cli.main(["kdfc", "stream", "--state", str(path), "-n", "8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "16x32" in err


class TestRefusals:
    """Non-words and mutated states are refused, never clocked."""

    @pytest.mark.parametrize("mutate,error,message", [
        (lambda st: st.lfsr.append(0), ValueError,
         "does not match configuration dimensions"),
        (lambda st: setattr(st, "lfsr", st.lfsr[:3]), ValueError,
         "does not match configuration dimensions"),
        (lambda st: st.lfsr.__setitem__(4, 1 << 32), ValueError,
         "block 4 not an 32-bit word: 0x100000000"),
        (lambda st: st.lfsr.__setitem__(9, -1), ValueError, "block 9 not an 32-bit word"),
        (lambda st: st.lfsr.__setitem__(2, True), ValueError,
         "block 2 is not an integer: True"),
        (lambda st: st.fsm.__setitem__(0, 1 << 40), ValueError, "FSM registers"),
        (lambda st: st.fsm.append(0), ValueError, "FSM registers"),
        (lambda st: setattr(st, "fsm", (0, 0)), ValueError, "FSM registers"),
        (lambda st: setattr(st, "cfg", "x"), TypeError, "must be a SigmaConfig, got str"),
        (lambda st: setattr(st, "cfg", SigmaConfig.from_gains(4, 4, [identity(4)] * 4)),
         ValueError, "4x4"),
    ])
    def test_mutated_state_is_refused_before_any_clock(self, mutate, error, message):
        # at 17 words the loop streamed wrong words, at 3 it raised IndexError
        state = snow2_init(KAT_KEY, KAT_IV)
        mutate(state)
        before = (state.lfsr, list(state.lfsr), state.fsm, state.cfg)
        with pytest.raises(error, match=message):
            snow2_keystream(state, 40)
        assert (state.lfsr, list(state.lfsr), state.fsm, state.cfg) == before

    @pytest.mark.parametrize("cfg", ["x", 0, [[0] * 32] * 16])
    def test_config_that_is_not_a_sigma_config(self, cfg):
        with pytest.raises(TypeError, match="must be a SigmaConfig"):
            snow2_init(KAT_KEY, KAT_IV, cfg=cfg)
        with pytest.raises(TypeError, match="must be a SigmaConfig"):
            CipherState([0] * 16, [0, 0], cfg)

    @pytest.mark.parametrize("w", [-1, -5, 1 << 32, 1 << 40, True, False, 1.0, "1", None])
    @pytest.mark.parametrize("fn", [sbox_s, alpha_mul, alpha_inv_mul])
    def test_word_functions_refuse_a_non_word(self, fn, w):
        with pytest.raises(ValueError, match="must be a 32-bit int word"):
            fn(w)

    @pytest.mark.parametrize("x,y,name", [
        (-1, 0, "x"), (True, 1, "x"), (1 << 40, 0, "x"), (1.5, 2, "x"),
        (0, -1, "y"), (0, 1 << 32, "y"), (0, False, "y"), (0, "1", "y"),
    ])
    def test_boxplus_refuses_a_non_word(self, x, y, name):
        # boxplus(-1, 0) was 0xFFFFFFFF and boxplus(1 << 40, 0) was 0
        with pytest.raises(ValueError, match=f"^{name} must be a 32-bit int word"):
            boxplus(x, y)

    @pytest.mark.parametrize("fsm,d5,d15,message", [
        ([-1, 5], 3, 4, "FSM registers"),
        ([0, 1 << 32], 3, 4, "FSM registers"),
        ([0, True], 3, 4, "FSM registers"),
        ((0, 0), 3, 4, "FSM registers"),
        ([0, 0], -1, 4, "d5 must be a 32-bit int word"),
        ([0, 0], 3, 1 << 32, "d15 must be a 32-bit int word"),
        ([0, 0], 3.0, 4, "d5 must be a 32-bit int word"),
        ([0, 0], 3, False, "d15 must be a 32-bit int word"),
    ])
    def test_fsm_step_refuses_a_non_word(self, fsm, d5, d15, message):
        with pytest.raises(ValueError, match=message):
            fsm_step(fsm, d5, d15)
