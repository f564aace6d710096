"""Polynomial arithmetic over GF(2) against sympy and algebraic identities."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    inv_mod_reference,
    long_division_mod,
    long_division_quotient,
    mulmod_rows,
    sympy_mul,
    sympy_rem,
)

from kdfc_snow.confgen import _mulmod_packed, _pack, _unpack
from kdfc_snow.gf2.linalg import berlekamp_massey, char_poly
from kdfc_snow.gf2.poly import (
    DegreeError,
    FactorTableMissError,
    _barrett,
    _barrett_constants,
    _divmod_int,
    _mulmod_int,
    clmul,
    clsquare,
    exponent_list,
    exponents,
    from_exponents,
    parse_exponents,
    euler_phi_2n1,
    gcd,
    inv_mod,
    is_irreducible,
    is_primitive,
    powmod,
)
from kdfc_snow.gf2.primtable import default_table, primitive_poly
from kdfc_snow.kdfc import target_poly
from kdfc_snow.sigma_lfsr import SigmaConfig, config_char_poly
from kdfc_snow.snow2 import snow2_gains

ints = st.integers(min_value=0, max_value=(1 << 40) - 1)
nonzero_ints = st.integers(min_value=1, max_value=(1 << 40) - 1)


def sympy_poly(p: int):
    x = sympy.Symbol("x")
    return sympy.Poly.from_list(
        [(p >> i) & 1 for i in range(p.bit_length() - 1, -1, -1)] or [0],
        x,
        modulus=2,
    )


def from_sympy(sp) -> int:
    coeffs = 0
    for c in sp.all_coeffs():
        coeffs = (coeffs << 1) | (int(c) % 2)
    return coeffs


class TestBasics:
    def test_zero_one_x(self):
        # 0, 1 and x are 0, 1 and 2, of degrees -1, 0 and 1
        assert [c.bit_length() - 1 for c in (0, 1, 2)] == [-1, 0, 1]
        assert from_exponents([]) == 0 and from_exponents([0]) == 1
        assert clmul(2, 2) == from_exponents([2])
        with pytest.raises(ValueError, match="negative exponent"):
            from_exponents([3, -1])

    def test_polynomials_are_ints(self):
        # every polynomial the package hands out is a plain int
        table_8 = primitive_poly(8)
        got = [
            target_poly(), table_8, parse_exponents("8,4,3,2,0", 8),
            inv_mod(3, table_8), char_poly([2, 1]),
            berlekamp_massey([1, 0, 1, 1]), config_char_poly(snow2_gains()),
            config_char_poly(SigmaConfig(1, 2, [0])),  # the dense fallback
        ]
        assert [type(p) for p in got] == [int] * len(got)

    @pytest.mark.parametrize(
        "exps", [[0], [3, 1, 0], [8, 4, 3, 2, 0], [512, 2, 0]]
    )
    def test_exponent_roundtrip(self, exps):
        p = from_exponents(exps)
        assert exponents(p) == sorted(exps)
        assert p.bit_length() - 1 == max(exps)
        assert p.bit_count() == len(exps)
        assert from_exponents(exponent_list(p)) == p

    def test_json_is_descending(self):
        assert exponent_list(from_exponents([0, 3, 8, 4, 2])) == [8, 4, 3, 2, 0]
        assert exponent_list(0) == []

    @pytest.mark.parametrize("text", ["8,4,3,2,0", "8 4 3 2 0", " 0, 2,3 ,4,8 "])
    def test_parse_exponents(self, text):
        assert parse_exponents(text, 8) == from_exponents([8, 4, 3, 2, 0]) == 0x11D
        # the degree bounds the top exponent; a lower top is the caller's to refuse
        assert parse_exponents(text, 9).bit_length() - 1 == 8

    @pytest.mark.parametrize("text,message", [
        ("", "empty exponent list"),
        (" , ", "empty exponent list"),
        ("8,4,3,2,0,0", "exponent 0 is repeated"),
        ("3,1,1,0", "exponent 1 is repeated"),
        ("8,-1", "'-1' is not a non-negative integer"),
        ("8,x", "'x' is not a non-negative integer"),
        ("8,2.0", "'2.0' is not a non-negative integer"),
        ("8,1_0", "'1_0' is not a non-negative integer"),
        ("8,+1", "'\\+1' is not a non-negative integer"),
        ("8,\u00b2", "is not a non-negative integer"),
    ])
    def test_parse_exponents_refusals(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_exponents(text, 8)

    @pytest.mark.parametrize("text,got", [("9,0", 9), ("0,100000000", 100000000)])
    def test_parse_exponents_refuses_a_top_above_the_degree(self, text, got):
        with pytest.raises(DegreeError) as exc:
            parse_exponents(text, 8)
        assert exc.value.got == got

    @given(st.integers(1, 1 << 600))
    def test_parse_exponents_reads_to_json(self, p):
        assert parse_exponents(",".join(map(str, exponent_list(p))), p.bit_length() - 1) == p

    def test_coeff_and_evaluate(self):
        p = from_exponents([4, 1, 0])
        assert [p >> i & 1 for i in range(6)] == [1, 1, 0, 0, 1, 0]
        # p(a) = p mod (x + a): the constant term at 0, the parity of the weight at 1
        assert _divmod_int(p, 0b10)[1] == p & 1
        assert _divmod_int(p, 0b11)[1] == p.bit_count() % 2


class TestArithmeticVsSympy:
    @pytest.mark.parametrize("seed", range(6))
    def test_divmod_matches_sympy(self, seed):
        rng = random.Random(100 + seed)
        a = rng.getrandbits(64)
        b = rng.getrandbits(24) | 1
        q, r = _divmod_int(a, b)
        sq, sr = sympy.div(sympy_poly(a), sympy_poly(b), domain=sympy.GF(2))
        assert q == from_sympy(sq) and r == from_sympy(sr)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_irreducibility_matches_sympy_exhaustive(self, degree):
        x = sympy.Symbol("x")
        for low in range(1 << degree):
            p = (1 << degree) | low
            sp = sympy_poly(p)
            factors = sp.factor_list()[1]
            sympy_irr = len(factors) == 1 and factors[0][1] == 1
            assert is_irreducible(p) == sympy_irr, bin(p)


class TestKernelVsSympy:
    """The packed-int kernel (multiply, square, reduce) against sympy."""

    @given(st.integers(0, (1 << 96) - 1), st.integers(0, (1 << 96) - 1))
    def test_clmul(self, a, b):
        assert clmul(a, b) == sympy_mul(a, b)

    @given(st.integers(0, (1 << 96) - 1))
    def test_clsquare(self, a):
        assert clsquare(a) == sympy_mul(a, a)

    @given(st.integers(0, (1 << 192) - 1), st.integers(1, (1 << 96) - 1))
    def test_mod_int(self, a, m):
        # a reaches past 2 deg m, so _mulmod_int long-divides it before its
        # Barrett step, which is exact only below that
        assert _divmod_int(a, m)[1] == _mulmod_int(a, 1, m) == sympy_rem(a, m)

    @pytest.mark.parametrize("call,message", [
        (lambda: clmul(-3, 5), "operand"),  # looped forever: -3 never runs out of terms
        (lambda: clmul(5, -3), "operand"),
        (lambda: exponents(-1), "operand"),  # looped forever
        (lambda: clsquare(-3), "operand"),  # returned -5
        (lambda: powmod(-300, 3, 11), "operand"),  # returned 4
        (lambda: powmod(3, 3, -11), "modulus"),  # returned -6
        (lambda: powmod(-3, 3, -11), "operand"),
    ], ids=["clmul-a", "clmul-b", "exponents", "clsquare", "powmod-base", "powmod-m",
            "powmod-both"])
    def test_negative_operands_are_refused(self, call, message):
        # the wording of inv_mod and gcd
        with pytest.raises(ValueError, match=f"^negative {message}: polynomials are ints >= 0$"):
            call()


def route_moduli() -> list[int]:
    """Every table polynomial (degrees 2..512), then dense moduli."""
    table = default_table()
    return [table[d] for d in range(2, 513)] + [target_poly(), 0x11B, 0x1A9]


def barrett_mod(c: int, m: int) -> int:
    """c mod m by one Barrett step (deg c < 2 deg m)."""
    w = m.bit_length() - 1
    _, mu_shifts, low = _barrett_constants(m)
    return _barrett(c, w, mu_shifts, low, (1 << w) - 1)


def barrett_operands(m: int, rng: random.Random) -> list[int]:
    """0, m, the top degree 2w - 1 and random operands of degree below 2w."""
    d = m.bit_length() - 1
    operands = [0, m, m ^ (1 << d), (1 << (2 * d)) - 1, 1 << (2 * d - 1)]
    return operands + [rng.getrandbits(rng.randint(1, 2 * d)) for _ in range(6)]


class TestBarrettReduction:
    """One Barrett step, the only reduction by a fixed modulus, against
    the oracle's long division and _divmod_int."""

    def test_mu_is_p_exactly_for_a_short_tail(self):
        # x^2w = p^2 + t^2 for p = x^w + t, so mu = floor(x^2w / p) is p
        # exactly when deg t^2 < w: the table but degrees 2, 8 and 12
        short = 0
        for m in route_moduli():
            w = m.bit_length() - 1
            shifts, mu_shifts, low = _barrett_constants(m)
            mu = long_division_quotient(1 << (2 * w), m)
            assert mu == _divmod_int(1 << (2 * w), m)[0]
            assert shifts == [w - e for e in range(1, w + 1) if m >> e & 1]
            assert mu_shifts == [w - e for e in range(1, w + 1) if mu >> e & 1]
            assert low == exponents(m ^ (1 << w))
            assert (mu == m) == (2 * ((m ^ (1 << w)).bit_length() - 1) < w)
            short += mu == m
        assert short == 511 - 3

    def test_every_table_degree_and_the_dense_moduli(self):
        rng = random.Random(5)
        for m in route_moduli():
            for a in barrett_operands(m, rng):
                want = long_division_mod(a, m)
                assert barrett_mod(a, m) == want == _divmod_int(a, m)[1], (m, a)

    @given(st.integers(1, 130), st.data())
    def test_random_dense_moduli(self, d, data):
        # any modulus of degree d, reducible or not, mostly with mu != m
        m = (1 << d) | data.draw(st.integers(0, (1 << d) - 1))
        for a in barrett_operands(m, data.draw(st.randoms(use_true_random=False))):
            assert barrett_mod(a, m) == long_division_mod(a, m) == _divmod_int(a, m)[1]


def packed_products(rows: list[int], lam: int, m: int) -> list[int]:
    """confgen._mulmod_packed on the rows packed one to a slot of
    64 * ceil(2d / 64) bits, d = deg m, as the pipeline packs them."""
    d = m.bit_length() - 1
    slot = -(-d // 32) * 64
    ones = _pack([1] * len(rows), slot)
    packed = _mulmod_packed(_pack(rows, slot), lam, m, (ones << d) - ones)
    return _unpack(packed, len(rows), slot)


class TestWindowedRows:
    """confgen._mulmod_packed, every row in one packed int, against the
    per-row oracle mulmod_rows and _mulmod_int.

    Moduli of degree 32 and up take the 6-bit window table, lower ones one
    shifted copy per term of the factor; the degrees sit on both sides of
    that threshold and of the slot changes at 32 -> 33 and 64 -> 65, and
    include the dense degree-512 target and the widths of the 4x4 and
    32x16 pipelines.
    """

    @given(
        st.sampled_from([4, 15, 16, 31, 32, 33, 40, 64, 65, 100, 255, 256, 257, 500, 511, 512]),
        st.randoms(use_true_random=False),
        st.integers(0, 32),
    )
    @settings(max_examples=120)
    def test_matches_one_product_per_row(self, d, rng, nrows):
        m = target_poly() if d == 512 else default_table()[d]
        lam = rng.getrandbits(d)
        rows = [0, 1, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(nrows)]
        got = packed_products(rows, lam, m)
        assert got == mulmod_rows(rows, lam, m)
        assert got == [_mulmod_int(a, lam, m) for a in rows]

    @given(st.integers(1, 80), st.data())
    def test_dense_moduli_and_wide_operands(self, d, data):
        # any modulus of degree d, reducible or not, with operands of up to
        # d bits: Barrett's quotient needs only deg(product) < 2d
        m = (1 << d) | data.draw(st.integers(0, (1 << d) - 1))
        lam = data.draw(st.integers(0, (1 << d) - 1))
        rows = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=6))
        assert packed_products(rows, lam, m) == mulmod_rows(rows, lam, m)

    @given(
        st.sampled_from([31, 32, 33, 511]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80)
    def test_short_and_long_tails_around_the_window_threshold(self, d, sparse, rng):
        # the table entries of these degrees have mu = floor(x^2d / m) = m;
        # a modulus with a term at x^(d-1) has mu != m; the packed products
        # take Barrett's quotient for both, the oracle long division
        if sparse:
            m = default_table()[d]
        else:
            m = (1 << d) | (1 << (d - 1)) | rng.getrandbits(d) | 1
        assert (_divmod_int(1 << (2 * d), m)[0] == m) == sparse
        lam = rng.getrandbits(d)
        rows = [0, 1, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(8)]
        want = [long_division_mod(clmul(a, lam), m) for a in rows]
        assert packed_products(rows, lam, m) == want
        assert mulmod_rows(rows, lam, m) == want


class TestAlgebraicProperties:
    """Ring identities of the kernel on packed ints, where addition is xor."""

    @given(ints, ints, nonzero_ints)
    def test_add_is_xor(self, a, b, m):
        # reduction is GF(2)-linear: the remainder of a sum is the sum of remainders
        assert _divmod_int(a ^ b, m)[1] == _divmod_int(a, m)[1] ^ _divmod_int(b, m)[1]

    @given(ints, ints, ints)
    def test_mul_distributes(self, a, b, c):
        assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)

    @given(ints, ints)
    def test_mul_commutes(self, a, b):
        assert clmul(a, b) == clmul(b, a)

    @given(ints)
    def test_square(self, a):
        assert clsquare(a) == clmul(a, a)

    @given(ints, nonzero_ints)
    def test_divmod_identity(self, a, b):
        q, r = _divmod_int(a, b)
        assert clmul(q, b) ^ r == a
        assert r.bit_length() < b.bit_length()
        assert r == long_division_mod(a, b)

    @given(ints, ints)
    def test_gcd_divides_both(self, a, b):
        g = gcd(a, b)
        if not g:
            assert not a and not b
        else:
            assert not _divmod_int(a, g)[1] and not _divmod_int(b, g)[1]


class TestModularArithmetic:
    MOD = from_exponents([8, 4, 3, 2, 0])

    @pytest.mark.parametrize("seed", range(8))
    def test_inv_mod(self, seed):
        rng = random.Random(seed)
        a = rng.getrandbits(8) | 1
        inv = inv_mod(a, self.MOD)
        assert long_division_mod(clmul(a, inv), self.MOD) == 1

    @given(st.integers(2, 513), st.data())
    @settings(max_examples=150)
    def test_inv_mod_is_reduced(self, d, data):
        # moduli: every table degree and (as 513) the dense target; a may
        # reach past deg mod, and the inverse needs no reduction after Euclid
        m = target_poly() if d == 513 else default_table()[d]
        a = data.draw(st.integers(1, (1 << (2 * m.bit_length() - 1)) - 1))
        if long_division_mod(a, m) == 0:
            return
        inv = inv_mod(a, m)
        assert inv.bit_length() < m.bit_length()
        assert _mulmod_int(a, inv, m) == 1

    def test_inv_mod_is_reduced_at_every_table_degree(self):
        table, rng = default_table(), random.Random(17)
        for m in [table[d] for d in range(2, 513)] + [target_poly()]:
            d = m.bit_length() - 1
            for a in (1, m ^ 1, rng.getrandbits(d), rng.getrandbits(2 * d) | 1 << 2 * d):
                if long_division_mod(a, m):
                    inv = inv_mod(a, m)
                    assert inv.bit_length() - 1 < d and _mulmod_int(a, inv, m) == 1

    def test_inv_mod_rejects_noninvertible(self):
        # shares the factor x with a reducible modulus
        with pytest.raises(ZeroDivisionError):
            inv_mod(2, from_exponents([3, 1]))

    @pytest.mark.parametrize("exp", [0, 1, 2, 7, 255, 256])
    def test_powmod_matches_naive(self, exp):
        base = from_exponents([3, 1])
        acc = 1
        for _ in range(exp):
            acc = long_division_mod(clmul(acc, base), self.MOD)
        assert powmod(base, exp, self.MOD) == acc

    def test_powmod_fermat(self):
        # x^(2^8) = x mod an irreducible degree-8 polynomial
        assert powmod(2, 1 << 8, self.MOD) == 2


    @given(st.integers(1, 80), st.booleans(), st.integers(0, 1 << 80), st.data())
    @settings(max_examples=150)
    def test_powmod_matches_the_generic_route(self, d, sparse, exp, data):
        # left-to-right powmod against right-to-left square-and-multiply
        # through _mulmod_int, for base x and denser bases
        if sparse and d >= 2:
            m = default_table()[d]
        else:
            m = (1 << d) | data.draw(st.integers(0, (1 << d) - 1))
        base = data.draw(st.sampled_from([2, 3, 2 | (1 << d), (1 << (d + 3)) - 1]))
        acc, b, e = long_division_mod(1, m), long_division_mod(base, m), exp
        while e:
            if e & 1:
                acc = _mulmod_int(acc, b, m)
            b = _mulmod_int(b, b, m)
            e >>= 1
        assert powmod(base, exp, m) == acc

    @pytest.mark.parametrize("exp", [0, 1, 2, 3, (1 << 511) - 1, (1 << 512) - 2])
    def test_powmod_x_modulo_the_dense_target(self, exp):
        m = target_poly()
        want = 1
        for bit in format(exp, "b"):
            want = long_division_mod(clmul(want, want) << int(bit), m)
        assert powmod(2, exp, m) == want


def inversion_outcome(inv, a: int, m: int) -> int | str:
    """inv(a, m), or the message of the ZeroDivisionError it raised."""
    try:
        return inv(a, m)
    except ZeroDivisionError as exc:
        return str(exc)


class TestInversionAgainstReference:
    """inv_mod (remainder and cofactor in one int) against the per-term
    extended Euclid of tests/oracles.py, by value or by exception message."""

    @staticmethod
    def operands(m: int, rng: random.Random) -> list[int]:
        d = max(m.bit_length() - 1, 1)
        return [0, 1, m, m ^ 1, rng.getrandbits(d), rng.getrandbits(2 * d) | 1 << 2 * d]

    @pytest.mark.parametrize("family", ["table", "random", "tiny"])
    def test_matches_the_reference(self, family):
        # table: every pipeline degree 1..512 and the dense target; random:
        # mostly reducible moduli up to degree 80; tiny: 1, x and x + 1
        rng = random.Random(family)
        moduli = {
            "table": [0b11] + [primitive_poly(d) for d in range(2, 513)] + [target_poly()],
            "random": [rng.getrandbits(rng.randrange(1, 82)) for _ in range(3000)],
            "tiny": [1, 2, 3],
        }[family]
        for m in moduli:
            for a in self.operands(m, rng):
                got = inversion_outcome(inv_mod, a, m)
                assert got == inversion_outcome(inv_mod_reference, a, m), (a, m)

    @given(st.integers(0, (1 << 200) - 1), st.integers(0, (1 << 100) - 1))
    @settings(max_examples=300)
    def test_matches_the_reference_property(self, a, m):
        assert inversion_outcome(inv_mod, a, m) == inversion_outcome(inv_mod_reference, a, m)

    @pytest.mark.parametrize("f,a,m,message", [
        (inv_mod, -3, 11, "operand"), (inv_mod, 3, -11, "modulus"),
        (inv_mod, -3, -11, "operand"), (inv_mod, -3, 0, "operand"),
        (gcd, -3, 11, "operand"), (gcd, 3, -11, "operand"),
    ])
    def test_negative_operands_are_refused(self, f, a, m, message):
        # each but inv_mod(-3, 0) never returned: the remainders never shrank
        with pytest.raises(ValueError, match=f"^negative {message}: polynomials are ints >= 0$"):
            f(a, m)


class TestPrimitivity:
    @pytest.mark.parametrize(
        "exps", [[2, 1, 0], [3, 1, 0], [4, 1, 0], [8, 4, 3, 2, 0]]
    )
    def test_known_primitives(self, exps):
        assert is_primitive(from_exponents(exps))

    def test_irreducible_but_not_primitive(self):
        # all-ones degree-4 polynomial: its root has order 5, not 15
        p = from_exponents([4, 3, 2, 1, 0])
        assert is_irreducible(p)
        assert not is_primitive(p)

    def test_reducible_is_not_primitive(self):
        assert not is_primitive(from_exponents([4, 0]))

    def test_order_counting(self):
        # number of primitive degree-d polynomials is phi(2^d - 1) / d
        count = sum(
            is_primitive((1 << 4) | low) for low in range(16)
        )
        assert count == euler_phi_2n1(4) // 4 == 2

    @pytest.mark.parametrize(
        "d,phi", [(2, 2), (3, 6), (4, 8), (5, 30), (16, 32768)]
    )
    def test_euler_phi(self, d, phi):
        assert euler_phi_2n1(d) == phi

    def test_factor_table_bound(self):
        with pytest.raises(FactorTableMissError):
            euler_phi_2n1(600)
