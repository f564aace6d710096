"""Bit-packed GF(2) linear algebra against numpy/sympy and identities."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    char_poly_sympy,
    companion_matrix,
    echelon_oracle,
    from_bits,
    gf2_matmul_numpy,
    identity,
    krylov_matrix,
    linear_complexity,
    nibble_from_hex,
    nibble_hex,
    solve_row,
    to_bits,
    zeros,
)

from kdfc_snow.gf2 import linalg
from kdfc_snow.gf2.linalg import (
    DimensionError,
    NoSolutionError,
    SingularMatrixError,
    _echelon,
    _solve_rows,
    berlekamp_massey,
    char_poly,
    companion_vec_mul,
    determinant,
    mat_inverse,
    mat_mul,
    mat_vec_mul,
    matrix_from_json,
    matrix_to_json,
    rank,
    vec_from_hex,
    vec_to_hex,
    width,
)
from kdfc_snow.gf2.poly import from_exponents


def random_matrix(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


@st.composite
def matrices(draw, max_dim=8, square=False):
    """(rows, ncols): n rows of at most ncols bits."""
    n = draw(st.integers(1, max_dim))
    m = n if square else draw(st.integers(1, max_dim))
    return [draw(st.integers(0, (1 << m) - 1)) for _ in range(n)], m


class TestBitMatrix:
    """A bit matrix is its list of row ints; its width is its widest row."""

    def test_validation(self):
        # a negative row has no width; a row wider than its declared
        # column count is refused on the way out and on the way in
        with pytest.raises(DimensionError, match="row has bits beyond the column count"):
            width([1, -1])
        with pytest.raises(DimensionError, match="row has bits beyond the column count"):
            rank([-4])
        with pytest.raises(ValueError, match="vector has bits beyond its length"):
            matrix_to_json([4], 2)
        with pytest.raises(DimensionError, match="^negative column count$"):
            matrix_from_json({"rows": 1, "cols": -1, "data": [""]}, (1, -1), "A")
        assert width([]) == 0 and width([0, 0]) == 0 and width([1, 0b101]) == 3

    def test_identity_and_zeros(self):
        assert identity(3) == [1, 2, 4]
        assert zeros(2) == [0, 0]

    @given(matrices())
    def test_bits_roundtrip(self, case):
        # the oracles' 0/1-row view reads entry (i, j) as bit j of row i
        a, ncols = case
        bits = to_bits(a, ncols)
        assert from_bits(bits) == a
        assert all(
            bits[i][j] == (a[i] >> j) & 1 for i in range(len(a)) for j in range(ncols)
        )

    def test_json_roundtrip(self):
        a = from_bits([[1, 0, 0], [1, 1, 0]])  # a zero last column: 3 columns, width 2
        doc = matrix_to_json(a, 3)
        assert doc == {"rows": 2, "cols": 3, "data": ["1", "3"]}
        assert matrix_from_json(doc, (2, 3), "A") == a

    @pytest.mark.parametrize("doc,message", [
        ({"rows": 2, "cols": 4, "data": ["1", "3"]}, "^A is 2x4, expected 2x3$"),
        ({"rows": 1, "cols": 3, "data": ["1"]}, "^A is 1x3, expected 2x3$"),
        ({"rows": 2, "cols": 3, "data": ["1"]}, "^row count mismatch in serialized matrix$"),
        ({"rows": 2, "cols": 3, "data": ["1", "33"]}, "^expected 1 hex digits for 3 bits$"),
        ({"rows": 2, "cols": 3, "data": ["1", "8"]}, "^hex string has bits beyond the stated"),
    ], ids=["cols", "rows", "data-length", "hex-length", "over-wide"])
    def test_json_refusals(self, doc, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_json(doc, (2, 3), "A")

    @pytest.mark.parametrize("doc,message", [
        ({"rows": 2, "cols": "3", "data": ["1", "3"]},
         "field 'cols' is not an integer \\(got a string\\)$"),
        ({"rows": 2, "cols": 3}, "field 'data' missing$"),
        ({"rows": 2, "cols": 3, "data": [1, 3]},
         "field 'data\\[0\\]' is not a string \\(got an integer\\)$"),
        ([2, 3, ["1", "3"]], "expected a JSON object \\(got an array\\)$"),
        ({"rows": 2, "cols": 3, "data": ("1", "3")},
         "field 'data' is not an array \\(got tuple\\)$"),
    ], ids=["cols-string", "no-data", "int-data", "not-object", "tuple-data"])
    def test_json_types_are_checked_first(self, doc, message):
        # all but the last ended in a bare TypeError or KeyError; a tuple,
        # which json never makes, is named by its Python type
        with pytest.raises(ValueError, match="^malformed A: " + message):
            matrix_from_json(doc, (2, 3), "A")


class TestProducts:
    @pytest.mark.parametrize("seed", range(5))
    def test_mat_mul_matches_numpy(self, seed):
        rng = random.Random(seed)
        n, k, m = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
        a = random_matrix(rng, n, k)
        b = random_matrix(rng, k, m)
        assert mat_mul(a, b) == gf2_matmul_numpy(a, b, k, m)

    @given(matrices(), st.integers(0, 255))
    def test_mat_vec_is_row_xor(self, case, v):
        a, _ = case
        v &= (1 << len(a)) - 1
        acc = 0
        for i in range(len(a)):
            if (v >> i) & 1:
                acc ^= a[i]
        assert mat_vec_mul(v, a) == acc
        with pytest.raises(DimensionError, match="vector longer than matrix row count"):
            mat_vec_mul(1 << len(a), a)

    def test_mat_mul_dimension_error(self):
        # a's 3 columns meet b's 2 rows; a 2 x 2 times 3 rows is a 2 x 3 with a zero column
        with pytest.raises(DimensionError, match="^cannot multiply 3-col by 2-row$"):
            mat_mul(identity(3), identity(2))
        assert mat_mul(identity(2), identity(3)) == identity(2)


def ref_rank(bits):
    """Independent elimination on lists of 0/1 ints."""
    rows = [list(r) for r in bits]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


class TestEliminationBased:
    @given(matrices(max_dim=10))
    @settings(max_examples=60)
    def test_rank_matches_reference(self, case):
        a, ncols = case
        assert rank(a) == ref_rank(to_bits(a, ncols))

    @given(matrices(max_dim=8, square=True))
    @settings(max_examples=60)
    def test_determinant_iff_full_rank(self, case):
        a, _ = case
        assert determinant(a) == (1 if rank(a) == len(a) else 0)

    @pytest.mark.parametrize("op,what", [
        (determinant, "determinant"),
        (mat_inverse, "inverse"),
        (char_poly, "characteristic polynomial"),
    ])
    def test_square_only(self, op, what):
        # 2 rows, one of 3 bits: not square
        with pytest.raises(DimensionError, match=f"^{what} of a non-square matrix$"):
            op([1, 0b100])

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        while True:
            a = random_matrix(rng, n, n)
            if determinant(a):
                break
        assert mat_mul(a, mat_inverse(a)) == identity(n)
        assert mat_mul(mat_inverse(a), a) == identity(n)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(zeros(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_solve_row(self, seed):
        rng = random.Random(200 + seed)
        a = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        y0 = rng.getrandbits(len(a))
        v = mat_vec_mul(y0, a)
        y = solve_row(a, v)
        assert mat_vec_mul(y, a) == v

    def test_solve_row_no_solution(self):
        a = [1, 1]  # row space is {00, 01}
        with pytest.raises(NoSolutionError):
            solve_row(a, 0b10)


@st.composite
def elimination_cases(draw):
    """Rows and a column count for _echelon, on both sides of 128 rows.

    From 128 rows on _echelon clears blocks of k >= 5 columns through a
    table.  The shapes are tall, wide or square; ncols is mostly not a
    multiple of k; the rank is often short of full; a run of zeroed
    columns leaves some block with fewer than k pivots; and an identity
    tracker above ncols rides along in half of the cases.
    """
    rng = draw(st.randoms(use_true_random=False))
    nrows = draw(st.sampled_from([1, 7, 40, 127, 128, 150, 256, 300]))
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    ncols = {
        "tall": rng.randint(1, max(1, nrows // 2)),
        "wide": rng.randint(nrows + 1, nrows + 140),
        "square": nrows,
    }[shape]
    rank_ = draw(st.sampled_from(["full", "short", "low"]))
    basis_size = {
        "full": nrows,
        "short": max(0, min(nrows, ncols) - rng.randint(1, 9)),
        "low": rng.randint(0, 12),
    }[rank_]
    basis = [rng.getrandbits(ncols) for _ in range(basis_size)]
    if draw(st.booleans()):
        start = rng.randrange(ncols)
        stop = min(ncols, start + rng.randint(1, 9))
        keep = ((1 << ncols) - 1) ^ (((1 << stop) - 1) >> start << start)
        basis = [r & keep for r in basis]
    mix = [rng.getrandbits(basis_size) for _ in range(nrows)]
    rows = mat_mul(mix, basis)
    if draw(st.booleans()):
        rows = [r | 1 << (ncols + i) for i, r in enumerate(rows)]
    return rows, ncols


class TestFourRussians:
    """_echelon against the one-column-at-a-time oracle."""

    @given(elimination_cases())
    @settings(max_examples=80, deadline=None)
    def test_pivots_and_rows_match_oracle(self, case):
        rows, ncols = case
        got, want = list(rows), list(rows)
        assert _echelon(got, ncols) == echelon_oracle(want, ncols, reduce_up=False)
        assert got == want

    @given(st.randoms(use_true_random=False), st.sampled_from([5, 64, 128, 200]))
    @settings(max_examples=20, deadline=None)
    def test_inverse_matches_oracle(self, rng, n):
        a = random_matrix(rng, n, n)
        work = [r | 1 << (n + i) for i, r in enumerate(a)]
        pivots = echelon_oracle(work, n)
        if len(pivots) < n:
            with pytest.raises(SingularMatrixError):
                mat_inverse(a)
            return
        want = [0] * n
        for col, i in pivots:
            want[col] = work[i] >> n
        inv = mat_inverse(a)
        assert inv == want
        assert mat_mul(a, inv) == identity(n)

    def test_block_with_few_pivots(self):
        # 512 rows (k = 7) of width 517: columns 70..79 zeroed, 200 a copy
        # of 199, and rank at most 500, so some blocks hold fewer than k
        # pivots and the last ones run short of rows
        rng = random.Random(512)
        basis = [rng.getrandbits(517) for _ in range(500)]
        hole = ((1 << 80) - 1) ^ ((1 << 70) - 1)
        basis = [v & ~hole for v in basis]
        basis = [v & ~(1 << 200) | ((v >> 199) & 1) << 200 for v in basis]
        mix = [rng.getrandbits(500) for _ in range(512)]
        rows = mat_mul(mix, basis)
        got, want = list(rows), list(rows)
        pivots = _echelon(got, 517)
        assert pivots == echelon_oracle(want, 517, reduce_up=False)
        assert got == want
        cols = [c for c, _ in pivots]
        assert not set(cols) & set(range(70, 80)) and 200 not in cols


@st.composite
def solve_cases(draw):
    """A square A and up to 4 targets, on both sides of 128 working rows.

    A comes from the identity by random row additions and a shuffle, so it
    is invertible, unless one of its rows is then replaced by a sum of the
    others (possibly none).
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.sampled_from([1, 7, 40, 126, 127, 128, 150, 200]))
    rows = [1 << i for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    if draw(st.booleans()):
        k = rng.randrange(n)
        rows[k] = mat_vec_mul(rng.getrandbits(n) & ~(1 << k), rows)
    targets = [rng.getrandbits(n) for _ in range(draw(st.sampled_from([0, 1, 2, 4])))]
    return rows, targets


class TestSolveRows:
    """_solve_rows, the one solver on _echelon, against the reduced-form oracle."""

    @given(solve_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, case):
        a, targets = case
        if len(echelon_oracle(list(a), len(a))) < len(a):
            with pytest.raises(SingularMatrixError):
                _solve_rows(a, targets)
        else:
            assert _solve_rows(a, targets) == [solve_row(a, v) for v in targets]

    @given(solve_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_any_row_order_gives_the_same_x(self, case, rng):
        # rows[i] keeps tracker bit n + i wherever it enters, so only the
        # pivot search's cost depends on the order
        a, targets = case
        order = rng.sample(range(len(a)), len(a))
        if len(echelon_oracle(list(a), len(a))) < len(a):
            with pytest.raises(SingularMatrixError):
                _solve_rows(a, targets, order)
        else:
            x = _solve_rows(a, targets, order)
            assert x == _solve_rows(a, targets) == [solve_row(a, v) for v in targets]

    def test_inverse_refuses_a_pivot_on_an_appended_row(self, monkeypatch):
        # A = [e_0, e_0]: both columns pivot, column 1 on the appended e_1,
        # so only the flag bit tells the singular A apart
        real, pivots = linalg._echelon, []

        def echelon(*args):
            pivots.extend(real(*args))
            return pivots

        monkeypatch.setattr(linalg, "_echelon", echelon)
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            mat_inverse([1, 1])
        assert [c for c, _ in pivots] == [0, 1]

    @staticmethod
    def _refuse_a_pivot_on_an_appended_row(monkeypatch, shuffle):
        # 128 rows of A plus a target: k = 5 blocks.  No row of A has
        # column 70, so A is singular; the target has it and takes the
        # pivot at rank 70, inside a block, and every column pivots.  In
        # any order: A's span, not its rows, decides both
        n, hole = 128, 70
        rng = random.Random(70)
        rows = [1 << i for i in range(n) if i != hole] + [1]
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                rows[i] ^= rows[j]
        target = 1 << hole | rng.getrandbits(n)
        order = None if shuffle is None else random.Random(shuffle).sample(range(n), n)
        real, pivots = linalg._echelon, []

        def echelon(*args):
            pivots.extend(real(*args))
            return pivots

        monkeypatch.setattr(linalg, "_echelon", echelon)
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            _solve_rows(rows, [target], order)
        assert len(pivots) == n and (hole, hole) in pivots

    def test_a_pivot_on_an_appended_row_is_refused_in_a_block(self, monkeypatch):
        self._refuse_a_pivot_on_an_appended_row(monkeypatch, None)

    @pytest.mark.parametrize("shuffle", range(3))
    def test_a_pivot_on_an_appended_row_is_refused_in_any_order(self, monkeypatch, shuffle):
        self._refuse_a_pivot_on_an_appended_row(monkeypatch, shuffle)


class TestCompanionAndCharPoly:
    @pytest.mark.parametrize(
        "exps", [[2, 1, 0], [3, 1, 0], [8, 4, 3, 2, 0], [16, 5, 3, 2, 0]]
    )
    def test_companion_char_poly_roundtrip(self, exps):
        p = from_exponents(exps)
        assert char_poly(companion_matrix(p)) == p

    @given(
        st.sampled_from([1, 8, 512]),
        st.integers(0, (1 << 512) - 1),
        st.integers(0, (1 << 512) - 1),
    )
    @example(1, 1, 1)
    @example(8, 0xFF, 0xFF)
    @example(512, (1 << 512) - 1, (1 << 512) - 1)
    @example(512, 1 << 5 | 1 << 2 | 1, (1 << 512) - 1)
    def test_companion_vec_mul_matches_matrix(self, b, coeffs_low, v):
        # v has at most b = deg p bits; the all-ones row meets every
        # coefficient of p at once
        low = (1 << b) - 1
        p = 1 << b | coeffs_low & low
        v &= low
        assert companion_vec_mul(v, p) == mat_vec_mul(v, companion_matrix(p))

    @pytest.mark.parametrize("seed", range(6))
    def test_char_poly_matches_sympy(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, n)
        assert char_poly(a) == char_poly_sympy(a, n)

    @pytest.mark.parametrize("seed", range(4))
    def test_cayley_hamilton(self, seed):
        rng = random.Random(400 + seed)
        n = rng.randint(2, 10)
        a = random_matrix(rng, n, n)
        p = char_poly(a)
        acc = zeros(n)
        power = identity(n)
        for i in range(p.bit_length()):
            if p >> i & 1:
                acc = [x ^ y for x, y in zip(acc, power)]
            power = mat_mul(power, a)
        assert acc == zeros(n)

    def test_krylov_rows(self):
        rng = random.Random(7)
        a = random_matrix(rng, 6, 6)
        c = rng.getrandbits(6)
        k = krylov_matrix(c, a, 4)
        v = c
        for i in range(4):
            assert k[i] == v
            v = mat_vec_mul(v, a)


class TestBerlekampMassey:
    @pytest.mark.parametrize(
        "exps", [[2, 1, 0], [3, 1, 0], [4, 1, 0], [8, 4, 3, 2, 0]]
    )
    def test_recovers_primitive_poly(self, exps):
        p = from_exponents(exps)
        d = p.bit_length() - 1
        # drive the single-bit LFSR x_{t+d} = sum p_j x_{t+j}
        bits = [0] * (d - 1) + [1]
        for _ in range(2 * d):
            nxt = 0
            for j in range(d):
                if p >> j & 1:
                    nxt ^= bits[-d + j]
            bits.append(nxt)
        assert berlekamp_massey(bits) == p

    def test_degenerate_sequences(self):
        assert linear_complexity([0, 0, 0, 0]) == 0
        assert linear_complexity([1, 0, 0, 0, 0]) == 1
        assert linear_complexity([1, 1, 1, 1]) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_recurrence_holds_and_prefix_monotone(self, seed):
        rng = random.Random(seed)
        bits = [rng.getrandbits(1) for _ in range(48)]
        f = berlekamp_massey(bits)
        d = f.bit_length() - 1
        for k in range(len(bits) - d):
            acc = 0
            for j in range(d + 1):
                if f >> j & 1:
                    acc ^= bits[k + j]
            assert acc == 0
        lcs = [linear_complexity(bits[:i]) for i in range(1, len(bits) + 1)]
        assert all(a <= b for a, b in zip(lcs, lcs[1:]))
        assert lcs[-1] == d


class TestHexCodec:
    @given(st.integers(0, (1 << 32) - 1))
    def test_roundtrip(self, v):
        assert vec_from_hex(vec_to_hex(v, 32), 32) == v

    def test_non_hex_digit_named(self):
        with pytest.raises(ValueError, match="not a hex string: 'zz'"):
            vec_from_hex("zz", 8)
        # up to 32 characters the string is echoed whole, past that its
        # first 32 and its length
        with pytest.raises(ValueError) as exc:
            vec_from_hex("g" * 32, 128)
        assert str(exc.value) == f"not a hex string: {'g' * 32!r}"
        with pytest.raises(ValueError) as exc:
            vec_from_hex("0" * 99_999 + "g", 400_000)
        assert str(exc.value) == f"not a hex string: {'0' * 32!r}... (100000 characters)"

    def test_fixed_width_lsn_first(self):
        assert vec_to_hex(1, 32) == "10000000"
        assert vec_to_hex(0x80000000, 32) == "00000008"

    @given(st.integers(0, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_matches_the_per_nibble_oracle(self, case):
        length, v = case
        text = vec_to_hex(v, length)
        assert text == nibble_hex(v, length)
        assert vec_from_hex(text, length) == nibble_from_hex(text) == v
        assert vec_from_hex(text.upper(), length) == v

    @pytest.mark.parametrize("text,length", [
        ("1_23", 16),  # a digit separator
        ("123 ", 16),  # blanks, which int() strips
        ("12\n", 12),
        ("123+", 16),  # a sign, last since the digits are read reversed
        ("123-", 16),
        ("1x0", 12),  # the prefix 0x, least significant nibble first
    ])
    def test_refuses_what_int_would_read(self, text, length):
        # each of these reads as an int once reversed
        int(text[::-1], 16)
        with pytest.raises(ValueError, match="not a hex string"):
            vec_from_hex(text, length)
