"""Symbolic pipeline analysis: ANF algebra, the 8x8 worked instance, claims."""

import random

import pytest

from oracles import (
    anf,
    anf_eval,
    companion_matrix,
    compute_symbolic_config,
    dense_assemble,
    identity,
    sym_adjugate_inverse,
    sym_eval,
    sym_from_rows,
    sym_mat_mul,
)

from kdfc_snow.gf2.linalg import (
    companion_vec_mul,
    determinant,
    mat_inverse,
    mat_mul,
)
from kdfc_snow.gf2.poly import from_exponents
from kdfc_snow.symbolic import (
    ONE,
    ZERO,
    GuardError,
    _sym_companion_row_mul,
    anf_degree,
    anf_mul,
    build_symbolic_q,
    build_symbolic_qp,
    format_report,
    sym_det,
    theorem1_check,
    var_index,
    variable,
    verify_minor_lemmas,
)

NEG_INF = float("-inf")

# the worked 8x8 instance: m = 2, b = 4, p = x^8 + x^4 + x^3 + x^2 + 1
P8 = 0x11D


# frozen coordinate polynomials of the inverse change-of-basis matrix
P1 = anf(
    (2, 4, 6, 8), (2, 4, 7), (2, 5, 8), (2, 6), (3, 6, 8),
    (3, 7), (4, 5, 6), (4, 6), (4, 8), (5,),
)
P2 = anf(
    (1, 4, 6, 8), (1, 4, 7), (1, 5, 8), (1, 6), (2, 3, 6, 8), (2, 3, 7),
    (2, 4, 5, 8), (2, 4, 6, 7), (2, 5, 6), (2, 5, 7), (3, 4, 8), (3, 5, 6),
    (3, 5, 8), (3, 6, 7), (4, 5), (4, 7),
)
P3 = anf(
    (1, 3, 6, 8), (1, 3, 7), (1, 4, 5, 8), (1, 4, 6, 7), (1, 5, 6),
    (1, 5, 7), (2, 3, 5, 8), (2, 3, 6, 7), (2, 4, 5, 7), (2, 4, 6),
    (2, 4, 8), (2, 5, 6), (2, 6, 8), (2, 7), (3, 4, 7), (3, 4, 8),
    (3, 5, 7), (3, 5), (4, 5), (4, 6),
)
P4 = anf(
    (1, 3, 5, 8), (1, 3, 6, 7), (1, 4, 5, 7), (1, 4, 6), (1, 4, 8),
    (1, 5, 6), (2, 3, 5, 7), (2, 3, 6), (2, 4, 7), (2, 5, 8), (2, 5),
    (2, 6, 7), (3, 4, 6), (3, 4, 7), (3, 8), (4, 5),
)


def random_anf(rng, nvars=6, nterms=5):
    terms = []
    for _ in range(rng.randrange(nterms + 1)):
        terms.append(
            tuple(v for v in range(1, nvars + 1) if rng.random() < 0.4)
        )
    return anf(*terms)


class TestAnfAlgebra:
    def test_constants(self):
        assert ZERO == frozenset() and not ZERO
        assert ONE == {0} and anf_eval(ONE, 0) == 1
        assert anf(()) == ONE and anf() == ZERO

    def test_char_2_identities(self):
        x, y = variable(1), variable(2)
        assert x ^ x == ZERO
        assert anf_mul(x, x) == x  # boolean idempotence
        assert anf_mul(x ^ y, x ^ y) == x ^ y
        assert anf_mul(x, y ^ ONE) == anf_mul(x, y) ^ x
        assert anf_mul(x, ZERO) == ZERO and anf_mul(ONE, y) == y

    def test_var_validation(self):
        with pytest.raises(ValueError, match="^need v >= 1, got v=0$"):
            variable(0)
        with pytest.raises(ValueError, match="^v must be an int, got float$"):
            variable(1.0)

    def test_monomials_are_sets_of_indices(self):
        # repeated indices collapse and duplicate monomials collapse
        assert anf((3, 1, 3)) == anf((1, 3))
        assert anf((2,), (2,)) == variable(2)

    def test_degrees(self):
        assert anf_degree(ZERO) == NEG_INF
        assert anf_degree(ONE) == 0
        assert anf_degree(variable(5)) == 1
        assert anf_degree(P4) == 4
        assert anf_degree(anf_mul(variable(40), variable(3))) == 2

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_anf(rng)
            q = random_anf(rng)
            bits = rng.getrandbits(6)
            assert anf_eval(p ^ q, bits) == anf_eval(p, bits) ^ anf_eval(q, bits)
            assert anf_eval(anf_mul(p, q), bits) == anf_eval(p, bits) & anf_eval(q, bits)

    def test_variables(self):
        # bit v-1 of a term mask is x_v
        poly = anf_mul(variable(2), variable(7)) ^ variable(3)
        assert poly == {1 << 1 | 1 << 6, 1 << 2}

    def test_symbolic_entries_are_sets_of_ints(self):
        # every polynomial the module hands out is a frozenset of monomial ints
        got = [entry for row in build_symbolic_q(2, 4, P8) for entry in row]
        got += [sym_det(build_symbolic_q(2, 2, 0x13)), theorem1_check(2, 4, P8)[0]]
        got += [theorem1_check(1, 4, 0x13)[0]]  # no unknowns: a constant
        assert {type(e) for e in got} == {frozenset}
        assert {type(t) for e in got for t in e} == {int}


class TestSymMatrix:
    """Symbolic matrices are lists of ANF rows; sym_eval specializes them."""

    def test_identity_and_eval(self):
        i3 = sym_from_rows(identity(3), 3)
        assert sym_eval(i3, 0) == identity(3)

    def test_bitmatrix_roundtrip(self):
        rng = random.Random(5)
        m = [rng.getrandbits(4) for _ in range(4)]
        assert sym_eval(sym_from_rows(m, 4), 0) == m

    def test_eval_column_convention(self):
        # column c reads variable bit c-1 and lands on bit c-1
        row = [variable(1), variable(2)]
        assert sym_eval([row], 0b01) == [0b01]
        assert sym_eval([row], 0b10) == [0b10]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_det([[ONE], [ONE, ZERO]])
        with pytest.raises(ValueError, match="square"):
            sym_det([[ONE, ZERO]])

    def test_mul_matches_numeric(self):
        rng = random.Random(11)
        a = [rng.getrandbits(3) for _ in range(3)]
        b = [rng.getrandbits(3) for _ in range(3)]
        sym = sym_mat_mul(sym_from_rows(a, 3), sym_from_rows(b, 3))
        assert sym_eval(sym, 0) == mat_mul(a, b)


class TestVarIndex:
    def test_flat_layout(self):
        assert var_index(1, 1, 8) == 1
        assert var_index(1, 8, 8) == 8
        assert var_index(2, 1, 8) == 9

    def test_bounds(self):
        with pytest.raises(ValueError):
            var_index(0, 1, 8)
        with pytest.raises(ValueError):
            var_index(1, 9, 8)

    @pytest.mark.parametrize("i,j,n,message", [
        (1.5, 1, 8, "^i must be an int, got float$"),
        (1, 2.0, 8, "^j must be an int, got float$"),
        (1, 1, 8.0, "^n must be an int, got float$"),
        (True, 1, 8, "^i must be an int, got bool$"),
        (1, 0, 8, "^need j >= 1, got j=0$"),
        (1, 9, 8, r"^v_\{i,j\} needs j <= n, got j=9, n=8$"),
    ])
    def test_refused_by_name(self, i, j, n, message):
        # var_index(1.5, 1, 8) returned the float 5.0
        with pytest.raises(ValueError, match=message):
            var_index(i, j, n)


class TestWorkedInstance:
    def test_q_structure(self):
        q = build_symbolic_q(2, 4, P8)
        assert len(q) == 8 and all(len(r) == 8 for r in q)
        # even rows are shifted unit rows, odd rows are shifted variables
        assert q[0] == [ZERO] * 7 + [ONE]
        assert q[1] == [variable(j) for j in range(1, 9)]
        # one companion step: the unit row moves left one column
        assert q[2][6] == ONE
        assert all(not q[2][c] for c in range(8) if c != 6)

    def test_permuted_block_structure(self):
        qp = build_symbolic_qp(2, 4, P8)
        # top-left 4x4 zero, top-right anti-diagonal identity
        for i in range(4):
            assert all(not qp[i][j] for j in range(4))
            for j in range(4, 8):
                want = ONE if i + (j - 4) == 3 else ZERO
                assert qp[i][j] == want
        # bottom-left block is Hankel in x1..x7
        for i in range(4):
            for j in range(4):
                assert qp[4 + i][j] == variable(i + j + 1)

    def test_inverse_column_polynomials(self):
        q = build_symbolic_q(2, 4, P8)
        inv = sym_adjugate_inverse(q)
        col = [inv[i][6] for i in range(8)]
        assert col[:4] == [P1, P2, P3, P4]
        qp = build_symbolic_qp(2, 4, P8)
        q3 = [r[:4] for r in qp[4:]]
        assert col[4] == sym_det(q3)
        assert col[5:] == [ZERO] * 3

    def test_det_equals_bottom_left_det(self):
        q = build_symbolic_q(2, 4, P8)
        qp = build_symbolic_qp(2, 4, P8)
        q3 = [r[:4] for r in qp[4:]]
        assert sym_det(q) == sym_det(q3)

    def test_config_corner_entry(self):
        entry, ok = theorem1_check(2, 4, P8)
        assert entry == P4
        assert ok and anf_degree(entry) == 4  # mb - b


class TestNumericSpecialization:
    def test_symbolic_det_matches_numeric(self):
        q = build_symbolic_q(2, 4, P8)
        d = sym_det(q)
        rng = random.Random(23)
        for _ in range(30):
            bits = rng.getrandbits(8)
            assert anf_eval(d, bits) == determinant(sym_eval(q, bits))

    def test_adjugate_inverse_specializes(self):
        q = build_symbolic_q(2, 4, P8)
        inv = sym_adjugate_inverse(q)
        rng = random.Random(29)
        found = 0
        while found < 10:
            bits = rng.getrandbits(8)
            qn = sym_eval(q, bits)
            if determinant(qn) == 0:
                continue
            found += 1
            assert mat_mul(qn, sym_eval(inv, bits)) == identity(8)

    def test_config_specializes_to_numeric_similarity(self):
        c = compute_symbolic_config(2, 4, P8)
        q = build_symbolic_q(2, 4, P8)
        comp = companion_matrix(P8)
        rng = random.Random(31)
        found = 0
        while found < 10:
            bits = rng.getrandbits(8)
            qn = sym_eval(q, bits)
            if determinant(qn) == 0:
                continue
            found += 1
            want = mat_mul(mat_mul(qn, comp), mat_inverse(qn))
            assert sym_eval(c, bits) == want

    def test_companion_row_action_matches_packed(self):
        q = build_symbolic_q(2, 4, P8)
        rng = random.Random(37)
        for _ in range(20):
            bits = rng.getrandbits(8)
            stepped = build_symbolic_qp(2, 4, P8)  # any symbolic rows work
            row = stepped[5]
            packed = sym_eval([row], bits)[0]
            sym_next = sym_eval([_sym_companion_row_mul(row, P8)], bits)[0]
            assert sym_next == companion_vec_mul(packed, P8)


def replaced_row_entry(q, p, r, c):
    """Entry (r, c) of Q*P*adj(Q): det of Q with row c replaced by row r of Q*P."""
    rows = list(q)
    rows[c] = _sym_companion_row_mul(q[r], p)
    return sym_det(rows)


class TestReplacedRowIdentity:
    @pytest.mark.parametrize("m,b,hexpoly", [(2, 3, 0x43), (3, 2, 0x43)])
    def test_last_block_row_matches_full_product(self, m, b, hexpoly):
        p, n = hexpoly, m * b
        q = build_symbolic_q(m, b, p)
        full = compute_symbolic_config(m, b, p)
        for r in range(n - m, n):
            for c in range(n):
                assert replaced_row_entry(q, p, r, c) == full[r][c], (r, c)
        assert theorem1_check(m, b, p)[0] == full[n - m][n - m]

    def test_det_q_is_not_one(self):
        # the identity needs no det Q = 1: symbolically det Q is not 1
        d = sym_det(build_symbolic_q(2, 4, P8))
        assert anf_degree(d) == 4 and len(d) == 10

    def test_5x2_corner_specializes_to_dense_route(self):
        m, b, p = 5, 2, from_exponents([10, 3, 0])
        entry, ok = theorem1_check(m, b, p)
        assert ok and anf_degree(entry) == 8
        q = build_symbolic_q(m, b, p)
        rng = random.Random(41)
        found = 0
        while found < 10:
            bits = rng.getrandbits(40)
            qn = sym_eval(q, bits)
            if determinant(qn) == 0:
                continue
            found += 1
            # corner (n-m, n-m) is bit 0 of the last gain's first row
            assert anf_eval(entry, bits) == dense_assemble(qn, p, m).gains()[b - 1][0] & 1


class TestClaims:
    @pytest.mark.parametrize("m,b", [(2, 2), (2, 4), (3, 2)])
    def test_minor_claims_hold(self, m, b):
        p = 0x13 if (m, b) == (2, 2) else (
            P8 if (m, b) == (2, 4) else 0x43
        )
        assert p.bit_length() - 1 == m * b
        report = verify_minor_lemmas(m, b, p)
        assert report["all_hold"]
        assert [item["lemma"] for item in report["lemmas"]] == [1, 2, 3, 4]
        assert all(item["checked"] > 0 for item in report["lemmas"])
        text = format_report(report)
        assert "all claims hold" in text
        assert "VIOLATED" not in text

    def test_theorem_degree_small_sizes(self):
        for m, b, hexpoly in [(2, 2, 0x13), (3, 2, 0x43)]:
            entry, ok = theorem1_check(m, b, hexpoly)
            assert ok
            assert anf_degree(entry) == m * b - b

    def test_theorem_vacuous_for_m1(self):
        entry, ok = theorem1_check(1, 4, 0x13)
        assert not ok
        assert anf_degree(entry) in (0, 1, NEG_INF)


class TestGuards:
    def test_build_guard(self):
        with pytest.raises(GuardError):
            build_symbolic_q(4, 4, 0x13)

    def test_config_guard(self):
        # mb = 12 passes build_symbolic_q's guard but not theorem1_check's
        with pytest.raises(GuardError):
            theorem1_check(4, 3, 0x13)

    def test_lemma_guard(self):
        with pytest.raises(GuardError):
            verify_minor_lemmas(2, 6, 0x13)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            build_symbolic_q(2, 2, P8)

    @pytest.mark.parametrize("build", [build_symbolic_q, theorem1_check, verify_minor_lemmas])
    @pytest.mark.parametrize("m,b,message", [
        (2.0, 4, "^m must be an int, got float$"),
        (2, True, "^b must be an int, got bool$"),
        (0, 4, "^need m >= 1, got m=0$"),
        (2, -1, "^need b >= 1, got b=-1$"),
    ])
    def test_dims_refused_by_name(self, build, m, b, message):
        # m = 2.0 passed the bounds and ended in a bare TypeError
        with pytest.raises(ValueError, match=message):
            build(m, b, P8)

    @pytest.mark.parametrize("build", [
        build_symbolic_q, build_symbolic_qp, theorem1_check, verify_minor_lemmas,
    ])
    @pytest.mark.parametrize("p,message", [
        (285.0, "^p must be an int, got float$"),
        ("285", "^p must be an int, got str$"),
        (-285, "^need p >= 1, got p=-285$"),
    ])
    def test_polynomial_refused_by_name(self, build, p, message):
        # build_symbolic_q(2, 4, 285.0) ended in AttributeError on bit_length
        with pytest.raises(ValueError, match=message):
            build(2, 4, p)
