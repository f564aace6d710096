"""Statistical battery: published worked-example values, duals, edge cases."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdfc_snow import randtests as rt
from kdfc_snow import snow2
from oracles import (
    apen_stats,
    block_linear_complexities,
    cusum_p_full,
    longest_runs,
    matrix_ranks,
    psi_sq,
    runs_v,
    serial_stats,
    walk_partial_sums,
    window_counts,
    words_to_bits,
)

# 100-bit worked-example input shared by several published test write-ups
EX100 = (
    "1100100100001111110110101010001000100001011010001100001000110100"
    "110001001100011001100010100010111000"
)
# 128-bit worked-example input for the longest-run-of-ones test
EX128 = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def bits_of(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


class TestHelpers:
    def test_bits_from_hex_msb_first(self):
        assert rt.bits_from_hex("a1").tolist() == [1, 0, 1, 0, 0, 0, 0, 1]

    def test_bits_from_hex_odd_and_spaced(self):
        assert rt.bits_from_hex("a b c").tolist() == rt.bits_from_hex("abc").tolist()
        assert rt.bits_from_hex("abc").size == 12
        assert rt.bits_from_hex("").size == 0

    def test_bits_from_words(self):
        got = rt.bits_from_words([0x80000001]).tolist()
        assert got == [1] + [0] * 30 + [1]
        assert rt.bits_from_words([0xA1]).tolist() == [0] * 24 + [
            1, 0, 1, 0, 0, 0, 0, 1,
        ]

    def test_as_bits_validation(self):
        with pytest.raises(ValueError):
            rt.monobit(np.zeros((10, 10), dtype=np.uint8))
        with pytest.raises(ValueError):
            rt.monobit(np.array([0, 1, 2], dtype=np.uint8))

    @pytest.mark.parametrize("bits", [
        np.full(200, 0.5),
        [0.0, 1.0] * 100,
        [-1] * 200,
        [256] * 200,
        np.full(200, -1, dtype=np.int8),
        np.full(200, 257, dtype=np.uint16),
        [1 << 70] * 200,
    ], ids=["halves", "float-list", "minus-one", "256", "int8", "uint16", "object"])
    def test_as_bits_refuses_before_the_cast(self, bits):
        # a cast to uint8 would wrap these (or overflow) into other bits
        with pytest.raises(ValueError, match="bits must be 0/1"):
            rt.monobit(bits)

    def test_as_bits_takes_integers_and_bools(self):
        x = np.random.default_rng(5).integers(0, 2, size=300, dtype=np.uint8)
        want = repr(rt.monobit(x))
        for bits in (x.astype(bool), x.astype(np.int64), x.tolist(), x.view(np.int8)):
            assert repr(rt.monobit(bits)) == want


class TestIgamc:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 16.0, 128.0, 1000.0])
    @pytest.mark.parametrize("ratio", [0.1, 0.9, 1.0, 1.1, 2.0])
    def test_against_mpmath(self, a, ratio):
        x = a * ratio
        want = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert rt.igamc(a, x) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_edges(self):
        assert rt.igamc(3.0, 0.0) == 1.0
        assert rt.igamc(1.0, 2.0) == pytest.approx(math.exp(-2.0))
        # monotone decreasing in x
        vals = [rt.igamc(2.0, x) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("a,x", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_refuses_nan(self, a, x):
        # every range check compares false on a NaN
        with pytest.raises(ValueError, match="NaN"):
            rt.igamc(a, x)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1000.0])
    def test_infinite_x_has_no_upper_tail(self, a):
        assert rt.igamc(a, math.inf) == 0.0

    @pytest.mark.parametrize("a,x", [
        (math.inf, 1.0),  # returned nan
        (1e308, 1.0),  # raised OverflowError
        (1e300, 1e300),  # raised ZeroDivisionError
        (2.0**20 + 1, 2.0**20),
        (0.0, 1.0),
    ])
    def test_refuses_an_a_past_its_range(self, a, x):
        with pytest.raises(ValueError, match=rf"^need 0 < a <= 2\^20, got a={re.escape(str(a))}$"):
            rt.igamc(a, x)

    @pytest.mark.parametrize("x", [2.0**20 - 1000, 2.0**20 + 1, 2.0**20 + 1000])
    def test_largest_a_against_mpmath(self, x):
        # both routes converge at the bound, on either side of x = a + 1
        want = float(mpmath.gammainc(2**20, x, mpmath.inf, regularized=True))
        assert rt.igamc(rt.IGAMC_MAX_A, x) == pytest.approx(want, rel=1e-8)

    @settings(max_examples=300, deadline=None)
    @example(a=1e308, x=1.0)
    @example(a=1e300, x=1e300)
    @example(a=3.950050437265875e-295, x=3.989550941638534e-295)  # returned -5e-14
    @given(a=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           x=st.floats(min_value=0.0, allow_nan=False))
    def test_a_finite_a_gives_a_probability_or_a_value_error_naming_a(self, a, x):
        try:
            q = rt.igamc(a, x)
        except ValueError as exc:
            assert f"got a={a}" in str(exc)
        else:
            assert 0.0 <= q <= 1.0


class TestResultInvariants:
    def test_p_range(self):
        for p in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                rt.TestResult("monobit", p)

    def test_pass_flag_consistency(self):
        # passed is computed from p, so only the boundary is left to pin
        assert rt.ALPHA == 0.01
        assert rt.TestResult("monobit", 0.01).passed
        assert not rt.TestResult("monobit", math.nextafter(0.01, 0.0)).passed
        assert rt.TestResult("monobit", 1.0).passed
        assert not rt.TestResult("monobit", 0.0).passed


class TestWorkedExamples:
    """Values published alongside the test-suite definitions (4+ decimals)."""

    def test_monobit(self):
        r = rt.monobit(bits_of(EX100))
        assert r.p_value == pytest.approx(0.109599, abs=1e-6)

    def test_block_frequency(self):
        r = rt.block_frequency(bits_of(EX100), block_size=10)
        assert r.stats["chi2"] == pytest.approx(7.2, abs=1e-9)
        assert r.p_value == pytest.approx(0.706438, abs=1e-6)

    def test_runs(self):
        r = rt.runs_test(bits_of(EX100))
        assert r.stats["V_n"] == 52
        assert r.p_value == pytest.approx(0.500798, abs=1e-6)

    def test_cumulative_sums(self):
        fwd = rt.cumulative_sums(bits_of(EX100))
        rev = rt.cumulative_sums(bits_of(EX100), reverse=True)
        assert fwd.stats["z"] == 16 and rev.stats["z"] == 19
        assert fwd.p_value == pytest.approx(0.219194, abs=1e-6)
        assert rev.p_value == pytest.approx(0.114866, abs=1e-6)

    def test_approximate_entropy(self):
        r = rt.approximate_entropy(bits_of(EX100), m=2)
        assert r.stats["ApEn"] == pytest.approx(0.665393, abs=1e-6)
        assert r.stats["chi2"] == pytest.approx(5.550792, abs=1e-6)
        assert r.p_value == pytest.approx(0.235301, abs=1e-6)

    def test_longest_run(self):
        r = rt.longest_run(bits_of(EX128))
        assert r.stats["block_size"] == 8 and r.stats["blocks"] == 16
        assert r.stats["counts"] == [4, 9, 3, 0]
        # the published chi2 (4.882457) carries a worked-arithmetic rounding
        # slip; the same class table evaluated exactly gives 4.882605 and a
        # p-value that agrees with the published 0.180609 to 1.1e-5
        assert r.stats["chi2"] == pytest.approx(4.882605, abs=1e-5)
        assert r.p_value == pytest.approx(0.180609, abs=2e-5)


class TestSerial:
    def test_dual_route_on_example(self):
        x = bits_of(EX100)
        r = rt.serial_test(x, m=2)
        # independent overlapping-window counts with explicit wraparound
        s = EX100 + EX100[:1]
        counts2 = {}
        counts1 = {}
        for i in range(100):
            counts2[s[i : i + 2]] = counts2.get(s[i : i + 2], 0) + 1
            counts1[s[i]] = counts1.get(s[i], 0) + 1
        psi2 = 4 / 100 * sum(v * v for v in counts2.values()) - 100
        psi1 = 2 / 100 * sum(v * v for v in counts1.values()) - 100
        d1 = psi2 - psi1
        d2 = psi2 - 2 * psi1  # psi_0 = 0
        assert r.stats["del1"] == pytest.approx(d1, abs=1e-9)
        assert r.stats["del2"] == pytest.approx(d2, abs=1e-9)
        assert r.p_value == pytest.approx(rt.igamc(1.0, d1 / 2), abs=1e-12)
        assert r.stats["p_value2"] == pytest.approx(
            rt.igamc(0.5, d2 / 2), abs=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_psi_sq_dual_route(self, m):
        rng = np.random.default_rng(99)
        x = rng.integers(0, 2, size=1000, dtype=np.uint8)
        s = "".join(map(str, x.tolist()))
        ext = s + s[: m - 1]
        counts = {}
        for i in range(1000):
            w = ext[i : i + m]
            counts[w] = counts.get(w, 0) + 1
        want = (1 << m) / 1000 * sum(v * v for v in counts.values()) - 1000
        assert psi_sq(x, m) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_folded_counts_match_per_m_route(self, m):
        # one count at the largest m, folded down, gives the same floats
        x = np.random.default_rng(m).integers(0, 2, size=70_001, dtype=np.uint8)
        if m >= 2:
            stats = rt.serial_test(x, m).stats
            assert {k: stats[k] for k in ("del1", "del2", "p_value2")} == serial_stats(x, m)
        stats = rt.approximate_entropy(x, m).stats
        assert {k: stats[k] for k in ("ApEn", "chi2")} == apen_stats(x, m)


class TestMatrixRank:
    def test_probabilities(self):
        assert rt._rank_probability(32, 32, 32) == pytest.approx(
            0.288788, abs=1e-6
        )
        assert rt._rank_probability(32, 32, 31) == pytest.approx(
            0.577576, abs=1e-6
        )
        assert rt._rank_probability(32, 32, 30) == pytest.approx(
            0.128350, abs=1e-6
        )
        total = sum(rt._rank_probability(32, 32, r) for r in range(33))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_crafted_full_rank_stream(self):
        # every 1024-bit block is the identity matrix: all ranks are 32
        block = np.eye(32, dtype=np.uint8).reshape(-1)
        x = np.tile(block, 40)
        r = rt.binary_matrix_rank(x)
        n_blocks = r.stats["matrices"]
        assert r.stats["counts"] == [n_blocks, 0, 0]
        p_full = rt._rank_probability(32, 32, 32)
        p_31 = rt._rank_probability(32, 32, 31)
        p_rest = 1.0 - p_full - p_31
        chi2 = (
            (n_blocks - n_blocks * p_full) ** 2 / (n_blocks * p_full)
            + (0 - n_blocks * p_31) ** 2 / (n_blocks * p_31)
            + (0 - n_blocks * p_rest) ** 2 / (n_blocks * p_rest)
        )
        assert r.stats["chi2"] == pytest.approx(chi2, rel=1e-9)
        assert r.p_value == pytest.approx(math.exp(-chi2 / 2), rel=1e-9)

    def test_zero_stream_fails(self):
        x = np.zeros(50_000, dtype=np.uint8)
        r = rt.binary_matrix_rank(x)
        assert r.stats["counts"][0] == 0 and r.stats["counts"][1] == 0
        assert not r.passed


class TestLongestRunRegimes:
    @pytest.mark.parametrize(
        "n,block", [(128, 8), (6271, 8), (6272, 128), (7000, 128),
                    (749_999, 128), (750_000, 10_000), (800_000, 10_000)]
    )
    def test_regime_selection(self, n, block):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert rt.longest_run(x).stats["block_size"] == block

    def test_insufficient(self):
        with pytest.raises(rt.InsufficientDataError) as exc:
            rt.longest_run(np.zeros(127, dtype=np.uint8))
        assert exc.value.required == 128 and exc.value.got == 127


class TestLinearComplexity:
    def test_period_doubler_has_known_complexity(self):
        # a pure square-wave 01 repeated: BM degree is 2 per block, so all
        # blocks land in the lowest class and the statistic explodes
        x = np.tile(np.array([0, 1], dtype=np.uint8), 50_000)
        r = rt.linear_complexity(x)
        assert r.stats["counts"][0] == r.stats["blocks"]
        assert not r.passed

    def test_insufficient(self):
        with pytest.raises(rt.InsufficientDataError) as exc:
            rt.linear_complexity(np.zeros(99_999, dtype=np.uint8))
        assert exc.value.required == 100_000

    def test_class_probabilities_sum(self):
        assert sum(rt._LC_PI) == pytest.approx(1.0, abs=1e-15)


class TestBattery:
    def test_order_and_control_stream(self):
        rng = np.random.default_rng(20260825)
        x = rng.integers(0, 2, size=1_000_000, dtype=np.uint8)
        results = rt.run_battery(x)
        assert [r.name for r in results] == rt.TEST_NAMES
        assert all(r.passed for r in results)
        assert all(0.01 <= r.p_value <= 1.0 for r in results)

    def test_all_zeros_fails_everywhere(self):
        x = np.zeros(1_000_000, dtype=np.uint8)
        results = rt.run_battery(x)
        assert not any(r.passed for r in results)

    def test_run_test_dispatch(self):
        x = bits_of(EX100)
        assert rt.run_test("monobit", x) == rt.monobit(x)
        assert rt.run_test("cumulative-sums-reverse", x) == rt.cumulative_sums(x, True)
        with pytest.raises(KeyError):
            rt.run_test("nosuch", x)
        assert rt.TEST_NAMES == list(rt._DISPATCH)

    def test_insufficient_surface(self):
        small = np.ones(64, dtype=np.uint8)
        for name in ["monobit", "runs", "serial", "cumulative-sums-forward"]:
            with pytest.raises(rt.InsufficientDataError):
                rt.run_test(name, small)


#: repr of every run_battery result on two fixed streams, recorded before
#: the runs, matrix-rank and cumulative-sums kernels were rewritten on packed
#: bits: any moved float or stats entry fails the pin
BATTERY_PINS = {
    "seeded": [
        "TestResult(name='monobit', p_value=0.7733467386671147, stats={'S_n': -288, 's_obs': 0.288, 'n': 1000000})",
        "TestResult(name='block-frequency', p_value=0.5504359301043799, stats={'chi2': 7795.5, 'blocks': 7812, 'block_size': 128})",
        "TestResult(name='runs', p_value=0.4031082038408038, stats={'V_n': 500418, 'pi': 0.499856})",
        "TestResult(name='longest-run-of-ones', p_value=0.577524923178327, stats={'chi2': 4.7403128759821165, 'block_size': 10000, 'blocks': 100, 'counts': [9, 16, 32, 16, 13, 5, 9]})",
        "TestResult(name='binary-matrix-rank', p_value=0.9049585978067903, stats={'chi2': 0.19973216921697023, 'matrices': 976, 'counts': [282, 559, 135], 'probabilities': [0.288788095153841, 0.5775761901732047, 0.1336357146729542]})",
        "TestResult(name='cumulative-sums-forward', p_value=0.9009914204135501, stats={'z': 695})",
        "TestResult(name='cumulative-sums-reverse', p_value=0.644840573428797, stats={'z': 983})",
        "TestResult(name='serial', p_value=0.6764342685929878, stats={'m': 2, 'del1': 0.7818400000687689, 'del2': 0.698896000161767, 'p_value2': 0.4031549030017664})",
        "TestResult(name='approximate-entropy', p_value=0.937175265716232, stats={'m': 2, 'ApEn': 0.693146775829675, 'chi2': 0.809460540596163})",
        "TestResult(name='linear-complexity', p_value=0.14244443985096716, stats={'chi2': 9.602000000000002, 'blocks': 2000, 'block_size': 500, 'counts': [22, 63, 278, 1016, 481, 99, 41]})",
    ],
    "snow2": [
        "TestResult(name='monobit', p_value=0.989907739039596, stats={'S_n': 4, 's_obs': 0.012649110640673516, 'n': 100000})",
        "TestResult(name='block-frequency', p_value=0.7286674053889364, stats={'chi2': 756.53125, 'blocks': 781, 'block_size': 128})",
        "TestResult(name='runs', p_value=0.18412620496934837, stats={'V_n': 50210, 'pi': 0.50002})",
        "TestResult(name='longest-run-of-ones', p_value=0.25239029036507243, stats={'chi2': 6.596849256029712, 'block_size': 128, 'blocks': 781, 'counts': [86, 200, 215, 117, 73, 90]})",
        "TestResult(name='binary-matrix-rank', p_value=0.2774287865068219, stats={'chi2': 2.564382007860342, 'matrices': 97, 'counts': [34, 54, 9], 'probabilities': [0.288788095153841, 0.5775761901732047, 0.1336357146729542]})",
        "TestResult(name='cumulative-sums-forward', p_value=0.8090429483621401, stats={'z': 255})",
        "TestResult(name='cumulative-sums-reverse', p_value=0.8203346518941096, stats={'z': 251})",
        "TestResult(name='serial', p_value=0.41392105986365435, stats={'m': 2, 'del1': 1.7641599999915343, 'del2': 1.7639999999810243, 'p_value2': 0.18412637278733923})",
        "TestResult(name='approximate-entropy', p_value=0.4290022895577942, stats={'m': 2, 'ApEn': 0.6931280128620338, 'chi2': 3.833539582287493})",
        "TestResult(name='linear-complexity', p_value=0.39043644091731977, stats={'chi2': 6.3, 'blocks': 200, 'block_size': 500, 'counts': [4, 3, 24, 94, 55, 17, 3]})",
    ],
}


class TestBatteryPins:
    def test_seeded_million_bits(self):
        x = np.random.default_rng(20260825).integers(0, 2, size=1_000_000, dtype=np.uint8)
        assert [repr(r) for r in rt.run_battery(x)] == BATTERY_PINS["seeded"]

    def test_snow2_zero_key_stream(self):
        # the first 10^5 bits of the SNOW 2.0 zero-key, zero-IV keystream
        stream = snow2.snow2_keystream(snow2.snow2_init([0] * 8, [0] * 4), 3125)
        bits = rt.bits_from_words(stream)
        assert [repr(r) for r in rt.run_battery(bits)] == BATTERY_PINS["snow2"]


class TestInputGate:
    @pytest.mark.parametrize("name,test,required", [
        ("monobit", rt.monobit, 100),
        ("block-frequency", rt.block_frequency, 100),
        ("runs", rt.runs_test, 100),
        ("binary-matrix-rank", rt.binary_matrix_rank, 38 * 32 * 32),
        ("cumulative-sums", rt.cumulative_sums, 100),
        ("serial", rt.serial_test, 100),
        ("approximate-entropy", rt.approximate_entropy, 100),
        ("linear-complexity", rt.linear_complexity, 200 * 500),
    ])
    def test_short_input_is_refused(self, name, test, required):
        short = np.zeros(required - 1, dtype=np.uint8)
        message = f"^{name}: need at least {required} bits, got {required - 1}$"
        with pytest.raises(rt.InsufficientDataError, match=message) as exc:
            test(short)
        assert (exc.value.name, exc.value.required, exc.value.got) == (
            name, required, required - 1)

    def test_block_frequency_refuses_too_few_blocks(self):
        with pytest.raises(rt.InsufficientDataError) as exc:
            rt.block_frequency(np.zeros(200, dtype=np.uint8), block_size=300)
        assert (exc.value.required, exc.value.got) == (300, 200)


def random_blocks(seed, count, length, density=0.5):
    """A (count, length) 0/1 array; density 0 or 1 gives all-zero/all-one."""
    rng = np.random.default_rng(seed)
    return (rng.random((count, length)) < density).astype(np.uint8)


#: block densities: all zeros, sparse, uniform, dense, all ones
DENSITIES = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])


class TestBitsFromWords:
    @given(st.lists(st.integers(0, (1 << 32) - 1), max_size=20))
    def test_matches_oracle(self, words):
        got = rt.bits_from_words(words)
        assert got.dtype == np.uint8
        assert got.tolist() == words_to_bits(words)

    def test_numpy_words_and_full_width(self):
        words = np.array([0, 1, 0xFFFFFFFF, 0x80000000], dtype=np.uint32)
        assert rt.bits_from_words(words).tolist() == words_to_bits(words.tolist())
        assert rt.bits_from_words([(1 << 32) - 1]).tolist() == [1] * 32
        assert rt.bits_from_words([]).size == 0
        mixed = (np.uint32(0xFFFFFFFF), 1, np.int64(0x80000000))
        assert rt.bits_from_words(mixed).tolist() == words_to_bits([int(w) for w in mixed])

    def test_object_array_words(self):
        # an object array of in-range ints is read like the list it holds
        words = [5, 0xFFFFFFFF, np.int64(7), 0]
        got = rt.bits_from_words(np.array(words, dtype=object))
        assert got.tolist() == words_to_bits([int(w) for w in words])
        assert rt.bits_from_words(np.array([], dtype=object)).size == 0

    @pytest.mark.parametrize("words", [
        [2**33 + 5],
        [-1],
        [2**32],
        np.array([2**32], dtype=np.uint64),
        [1 << 64],
        [1 << 70],
        [-1, 2**63],
        np.array([-3], dtype=np.int64),
        [np.int64(-1)],
        (0, np.uint64(1 << 32)),
        np.array([2**32], dtype=object),
        np.array([0, -1], dtype=object),
    ])
    def test_refuses_word_out_of_range(self, words):
        with pytest.raises(ValueError, match="word"):
            rt.bits_from_words(words)

    @pytest.mark.parametrize("words", [
        [1.5], [0, 2.0], [True], ["1"], [1 << 70, 0.5], [1, True], (0, np.True_),
        np.array([1, True], dtype=object), np.array([0.5], dtype=object),
    ])
    def test_refuses_non_integer_word(self, words):
        with pytest.raises(TypeError, match="integers"):
            rt.bits_from_words(words)

    def test_refuses_two_dimensional_words(self):
        for words in ([[0, 1], [2, 3]], [1, (2, 3)], [np.array([1, 2])],
                      np.zeros((2, 2), np.uint32), 7,
                      np.array([[0, 1], [2, 3]], dtype=object)):
            with pytest.raises(ValueError, match="one-dimensional"):
                rt.bits_from_words(words)


class TestLinearComplexityKernel:
    @given(st.integers(0, 2**32), st.integers(1, 130), st.integers(1, 80), DENSITIES)
    @settings(max_examples=60)
    def test_matches_per_block_berlekamp_massey(self, seed, count, length, density):
        blocks = random_blocks(seed, count, length, density)
        got = rt._linear_complexities(blocks)
        assert got.tolist() == block_linear_complexities(blocks)

    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 500])
    def test_block_sizes(self, length):
        blocks = random_blocks(length, 200, length)
        blocks[0] = 0
        blocks[1] = 1
        got = rt._linear_complexities(blocks).tolist()
        assert got == block_linear_complexities(blocks)
        assert got[0] == 0 and got[1] == 1

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200, 2001])
    def test_block_counts(self, count):
        blocks = random_blocks(count, count, 65)
        got = rt._linear_complexities(blocks)
        assert got.tolist() == block_linear_complexities(blocks)

    def test_battery_shape(self):
        blocks = random_blocks(7, 2001, 500)
        got = rt._linear_complexities(blocks)
        assert got.tolist() == block_linear_complexities(blocks)

    @pytest.mark.parametrize("count", [1, 64, 500, 2001])
    def test_single_one_at_every_position(self, count):
        # block j is 0...01 with its 1 at j % 500: L = j % 500 + 1, one
        # length group per position
        blocks = np.zeros((count, 500), dtype=np.uint8)
        blocks[np.arange(count), np.arange(count) % 500] = 1
        got = rt._linear_complexities(blocks).tolist()
        assert got == block_linear_complexities(blocks)
        assert got == [j % 500 + 1 for j in range(count)]

    @pytest.mark.parametrize("count", [1, 64, 2001])
    def test_constant_lanes_among_random(self, count):
        blocks = random_blocks(count, count, 500)
        pick = np.random.default_rng(count).permutation(count)
        blocks[pick[: count // 3]] = 0
        blocks[pick[count // 3 : 2 * count // 3]] = 1
        got = rt._linear_complexities(blocks).tolist()
        assert got == block_linear_complexities(blocks)
        assert all(got[j] == 0 for j in pick[: count // 3])
        assert all(got[j] == 1 for j in pick[count // 3 : 2 * count // 3])

    @pytest.mark.parametrize("length", [65, 500])
    def test_zero_prefixes_of_every_length(self, length):
        # block p starts with p zeros, then random bits
        blocks = random_blocks(length, length + 1, length)
        for p in range(length + 1):
            blocks[p, :p] = 0
        got = rt._linear_complexities(blocks).tolist()
        assert got == block_linear_complexities(blocks)
        assert got[length] == 0


class TestMatrixRankKernel:
    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 64), DENSITIES)
    @settings(max_examples=60)
    def test_matches_per_matrix_rank(self, seed, count, size, density):
        mats = random_blocks(seed, count, size * size, density).reshape(count, size, size)
        assert rt._matrix_ranks(mats).tolist() == matrix_ranks(mats)

    @pytest.mark.parametrize("size", [1, 8, 32, 63, 64])
    def test_sizes(self, size):
        mats = random_blocks(size, 100, size * size).reshape(100, size, size)
        mats[0] = 0
        mats[1] = 1
        mats[2] = np.eye(size, dtype=np.uint8)
        got = rt._matrix_ranks(mats).tolist()
        assert got == matrix_ranks(mats)
        assert got[:3] == [0, 1, size]

    def test_all_ones_matrices(self):
        # every row is a pivot candidate in every column; only the first pivots
        for size in range(1, 65):
            mats = np.ones((3, size, size), dtype=np.uint8)
            assert rt._matrix_ranks(mats).tolist() == [1, 1, 1]

    @pytest.mark.parametrize("nrows,ncols", [(3, 64), (64, 3), (1, 63), (63, 1)])
    def test_rectangular(self, nrows, ncols):
        mats = random_blocks(nrows * ncols, 50, nrows * ncols).reshape(50, nrows, ncols)
        assert rt._matrix_ranks(mats).tolist() == matrix_ranks(mats)

    def test_refuses_wide_rows(self):
        with pytest.raises(ValueError, match="width"):
            rt._matrix_ranks(np.zeros((1, 65, 65), dtype=np.uint8))

    @pytest.mark.parametrize("size", [65, 70])
    def test_binary_matrix_rank_refuses_size_past_64(self, size):
        # 64-bit packed row weights wrapped here and gave false FAILs
        rng = np.random.default_rng(size)
        x = rng.integers(0, 2, size=38 * size * size, dtype=np.uint8)
        with pytest.raises(ValueError, match="size"):
            rt.binary_matrix_rank(x, size=size)

    def test_size_64_counts_match_oracle(self):
        rng = np.random.default_rng(64)
        x = rng.integers(0, 2, size=38 * 64 * 64, dtype=np.uint8)
        r = rt.binary_matrix_rank(x, size=64)
        deficits = [min(64 - k, 2) for k in matrix_ranks(x.reshape(38, 64, 64))]
        assert r.stats["counts"] == [deficits.count(i) for i in range(3)]
        assert r.passed


class TestWalkKernel:
    @pytest.mark.parametrize("residue", range(16))
    @given(st.integers(0, 11), st.integers(0, 2**32), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=12, deadline=None)
    def test_excursion_matches_cumsum(self, residue, chunks, seed, density):
        # n = 100..291 covers every n % 16, so every length of the last partial chunk
        x = random_blocks(seed, 1, 100 + 16 * chunks + residue, density)[0]
        s = walk_partial_sums(x)
        assert rt._excursion(x) == (int(s.min()), int(s.max()), int(s[-1]))
        for reverse in (False, True):
            want = int(np.abs(walk_partial_sums(x[::-1] if reverse else x)).max())
            assert rt.cumulative_sums(x, reverse).stats["z"] == want

    def test_walk_tables(self):
        net, lo, hi = rt._walk_steps(16)
        assert net.nbytes + lo.nbytes + hi.nbytes == 3 << 16
        chunks = np.arange(1 << 16, dtype=">u2")
        bits = np.unpackbits(chunks.view(np.uint8)).reshape(-1, 16)
        s = np.cumsum(2 * bits.astype(np.int64) - 1, axis=1)
        assert np.array_equal(net, s[:, -1])
        assert np.array_equal(lo, s.min(axis=1))
        assert np.array_equal(hi, s.max(axis=1))

    def test_truncated_phi_sum_every_z_at_100(self):
        for z in range(1, 101):
            assert rt._cusum_p(100, z).hex() == cusum_p_full(100, z).hex(), z

    def test_truncated_phi_sum_sampled_z_at_a_million(self):
        rng = np.random.default_rng(1_000_000)
        sampled = np.unique(np.geomspace(10, 10**6, 40).astype(int)).tolist()
        sampled += rng.integers(300, 3000, 40).tolist() + [10**6 - 1, 10**6]
        for z in sampled:
            assert rt._cusum_p(10**6, z).hex() == cusum_p_full(10**6, z).hex(), z


class TestRunsKernel:
    @pytest.mark.parametrize("residue", range(8))
    @given(st.integers(0, 25), st.integers(0, 2**32))
    @settings(max_examples=10)
    def test_v_and_pi(self, residue, bytes_, seed):
        # exactly half ones, so the monobit precondition holds and V_n is computed
        n = 100 + 8 * bytes_ + residue
        x = np.random.default_rng(seed).permutation(np.arange(n) % 2).astype(np.uint8)
        stats = rt.runs_test(x).stats
        assert stats == {"V_n": runs_v(x), "pi": float(x.mean())}

    @pytest.mark.parametrize("n", [100, 101, 107, 1000, 100_003])
    def test_alternating_and_paired(self, n):
        alternating = (np.arange(n) % 2).astype(np.uint8)
        assert rt.runs_test(alternating).stats["V_n"] == n == runs_v(alternating)
        paired = (np.arange(n) // 2 % 2).astype(np.uint8)
        assert rt.runs_test(paired).stats["V_n"] == runs_v(paired) == (n + 1) // 2

    @pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
    def test_pi_when_skipped(self, density):
        x = random_blocks(17, 1, 1001, density)[0]
        assert rt.runs_test(x).stats == {
            "pi": float(x.mean()), "skipped": "monobit precondition"}


class TestLongestRunKernel:
    @given(st.integers(0, 2**32), st.integers(1, 60), st.integers(1, 200), DENSITIES)
    @settings(max_examples=60)
    def test_exact_runs_match_scan(self, seed, count, length, density):
        blocks = random_blocks(seed, count, length, density)
        got = rt._longest_run_classes(blocks, 0, length)
        assert got.tolist() == longest_runs(blocks)

    @pytest.mark.parametrize("length,lo,hi", [(8, 1, 4), (128, 4, 9), (10_000, 10, 16)])
    @pytest.mark.parametrize("density", [0.0, 0.5, 0.8, 0.99, 1.0])
    def test_published_classes(self, length, lo, hi, density):
        blocks = random_blocks(length, 30, length, density)
        want = [min(max(best, lo), hi) - lo for best in longest_runs(blocks)]
        assert rt._longest_run_classes(blocks, lo, hi).tolist() == want


class TestParameterChecks:
    @pytest.mark.parametrize("test,params,message", [
        pytest.param(test, params, message, id=f"{test}-{params}")
        for test, params, message in [
            ("block_frequency", {"block_size": 0}, "need block_size >= 1, got block_size=0"),
            ("block_frequency", {"block_size": -3}, "need block_size >= 1, got block_size=-3"),
            ("linear_complexity", {"block_size": 0}, "need block_size >= 1, got block_size=0"),
            ("linear_complexity", {"block_size": -5}, "need block_size >= 1, got block_size=-5"),
            ("binary_matrix_rank", {"size": 0}, "need size >= 2, got size=0"),
            ("binary_matrix_rank", {"size": 1}, "need size >= 2, got size=1"),
            ("binary_matrix_rank", {"size": 65}, "need size <= 64, got size=65"),
            ("serial_test", {"m": 0}, "need m >= 2, got m=0"),
            ("serial_test", {"m": 1}, "need m >= 2, got m=1"),
            ("approximate_entropy", {"m": -1}, "need m >= 0, got m=-1"),
            ("serial_test", {"m": 30}, "m must be at most 17 for 200000 bits, got 30"),
            ("approximate_entropy", {"m": 30}, "m must be at most 17 for 200000 bits, got 30"),
            ("approximate_entropy", {"m": True}, "m must be an int, got bool"),
            ("serial_test", {"m": 2.0}, "m must be an int, got float"),
            ("block_frequency", {"block_size": 2.5}, "block_size must be an int, got float"),
            ("block_frequency", {"block_size": np.int64(128)},
             "block_size must be an int, got int64"),
            ("linear_complexity", {"block_size": 500.0}, "block_size must be an int, got float"),
            ("binary_matrix_rank", {"size": 32.0}, "size must be an int, got float"),
            ("binary_matrix_rank", {"size": False}, "size must be an int, got bool"),
        ]
    ])
    def test_bad_parameter_is_a_value_error(self, test, params, message):
        x = np.random.default_rng(3).integers(0, 2, size=200_000, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(rt, test)(x, **params)

    def test_bad_parameter_on_a_short_input(self):
        # the parameter is refused before the input's length is
        x = np.ones(0, dtype=np.uint8)
        for test, params, message in [
            (rt.block_frequency, {"block_size": 0}, "need block_size >= 1, got block_size=0"),
            (rt.binary_matrix_rank, {"size": 1}, "need size >= 2, got size=1"),
            (rt.serial_test, {"m": 1}, "need m >= 2, got m=1"),
            (rt.approximate_entropy, {"m": -1}, "need m >= 0, got m=-1"),
            (rt.linear_complexity, {"block_size": 0}, "need block_size >= 1, got block_size=0"),
            (rt.block_frequency, {"block_size": 2.5}, "block_size must be an int, got float"),
            (rt.binary_matrix_rank, {"size": 32.0}, "size must be an int, got float"),
            (rt.serial_test, {"m": True}, "m must be an int, got bool"),
            (rt.approximate_entropy, {"m": 2.0}, "m must be an int, got float"),
            (rt.linear_complexity, {"block_size": 500.0}, "block_size must be an int, got float"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$") as exc:
                test(x, **params)
            assert not isinstance(exc.value, rt.InsufficientDataError)

    @pytest.mark.parametrize("test", [rt.serial_test, rt.approximate_entropy])
    def test_window_bits_bounded_before_counting(self, test):
        # 2^30 bins per chunk would be 8 GiB; the refusal comes first
        x = np.random.default_rng(30).integers(0, 2, size=1_000_000, dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\bm must be at most 19 for 1000000 bits"):
                test(x, m=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert test(x[:128], m=7).stats["m"] == 7
        with pytest.raises(ValueError, match=r"\bm must be at most 7 for 128 bits"):
            test(x[:128], m=8)


class TestNarrowTransients:
    """No test widens a bit to an integer or copies the bit array twice."""

    @pytest.mark.parametrize("name", rt.TEST_NAMES)
    def test_peak_on_a_million_bits(self, name):
        # at most 1.6 bytes per bit: larger transients, once freed, let the
        # allocator trim its heap, and the next test's arrays fault in afresh;
        # 0.7 where no transient is as large as the bit array (linear
        # complexity packs its lanes from an eighth-size array, the window
        # counts widen 2^14 words per bincount)
        narrow = {"linear-complexity", "serial", "approximate-entropy"}
        bound = 700_000 if name in narrow else 1_600_000
        x = np.random.default_rng(7).integers(0, 2, size=1_000_000, dtype=np.uint8)
        rt.run_test(name, x)
        tracemalloc.start()
        try:
            rt.run_test(name, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{name} peaked at {peak} bytes"

    @pytest.mark.parametrize("density", [0.5, 0.9, 1.0])
    def test_cumulative_sums_excursion(self, density):
        # the largest |partial sum| of the +-1 steps, against int64 and abs
        x = random_blocks(11, 1, 70_001, density)[0]
        steps = 2 * x.astype(np.int64) - 1
        for reverse, s in [(False, steps), (True, steps[::-1])]:
            want = int(np.abs(np.cumsum(s)).max())
            assert rt.cumulative_sums(x, reverse).stats["z"] == want

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 17])
    def test_window_counts(self, m):
        # across the phase groups and the uint16/uint32/uint64 words
        x = random_blocks(m, 1, 70_001)[0]
        ext = np.concatenate([x, x[: m - 1]]).astype(np.int64)
        idx = sum(ext[j : j + x.size] << (m - 1 - j) for j in range(m))
        want = np.bincount(idx, minlength=1 << m)
        assert np.array_equal(rt._window_counts(x, m), want)

    @given(
        st.integers(1, 17),
        st.one_of(
            st.integers(16, 300),
            st.integers((1 << 16) - 40, (1 << 16) + 40),
            # past 2^16 byte offsets: four 2^14-word bincount chunks and a tail
            st.integers((1 << 19) - 40, (1 << 19) + 40),
        ),
        st.integers(0, 2**32),
        DENSITIES,
    )
    @settings(max_examples=60, deadline=None)
    def test_window_counts_match_per_bit_count(self, m, n, seed, density):
        # every phase group, histogram width and n mod 8, with the tail
        x = random_blocks(seed, 1, max(n, m), density)[0]
        assert np.array_equal(rt._window_counts(x, m), window_counts(x, m))

    @given(
        st.integers(1, 17),
        st.one_of(st.integers(17, 300), st.integers((1 << 16) - 40, (1 << 16) + 40)),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40)
    def test_fold_is_the_next_smaller_count(self, m, n, seed):
        x = random_blocks(seed, 1, n)[0]
        folded = rt._fold(rt._window_counts(x, m))
        assert np.array_equal(folded, rt._window_counts(x, m - 1))
