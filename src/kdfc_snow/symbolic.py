"""Symbolic (ANF) analysis of the configuration pipeline at toy sizes.

The pipeline's change-of-basis matrix Q is rebuilt here with the free
entries of Y kept as boolean unknowns: one designated row of Y is the
unit vector e_1 and the other m-1 rows are fully symbolic.  Row blocks
of Q are [e_1*P^j, v_1*P^j, ..., v_{m-1}*P^j] for j = 0..b-1, where P is
the companion matrix of the prescribed degree-mb polynomial.

Every claim is read off determinants, all taken by one memoized
expansion (_det_memo).  The minor-degree claims are about minors of the
row-permuted Q.  Theorem 1 is about one entry of C = Q*P*adj(Q): by
Laplace expansion along row c, entry (r, c) of Q*P*adj(Q) equals det of
Q with row c replaced by row r of Q*P, so it costs one determinant.  The
identity needs no det Q = 1, and symbolically det Q is not 1 (at m = 2,
b = 4 it has degree 4 and 10 terms); at every specialization where Q is
invertible, adj(Q) = Q^{-1} over GF(2) and the entry specializes to the
entry of Q*P*Q^{-1}.

A polynomial in algebraic normal form is the frozenset of its
monomials, each an int with bit v-1 set for the variable x_v; the
monomial 0 is the constant 1.  The sum of two polynomials is their
symmetric difference (a ^ b), and anf_mul and anf_degree are the rest of
the algebra.  ZERO is the empty set, of degree NEG_INF.

Variable naming: v_{i,j} (free row i = 1..m-1, coordinate j = 1..mb)
maps to the flat 1-based index (i-1)*mb + j.  With m = 2 this makes
v_{1,j} the variable x_j, matching the worked 8x8 instance reproduced in
the tests.

A symbolic matrix is its list of rows, each row a list of polynomials.
Row vectors are displayed left-to-right as columns 1..n;
column c of a displayed row corresponds to bit c-1 of the packed-integer
convention used by gf2.linalg, so e_1 = (0, ..., 0, 1) evaluates to
1 << (n-1) and the symbolic companion action mirrors companion_vec_mul
exactly:
(q_1, ..., q_n) * P = (q_2, ..., q_n, sum of q_{e+1} over exponents e
of p below n).
"""

from __future__ import annotations

from kdfc_snow.gf2.linalg import check_dims, check_int
from kdfc_snow.gf2.poly import exponents

__all__ = [
    "ZERO",
    "ONE",
    "variable",
    "anf_mul",
    "anf_degree",
    "GuardError",
    "var_index",
    "build_symbolic_q",
    "build_symbolic_qp",
    "sym_det",
    "verify_minor_lemmas",
    "format_report",
    "theorem1_check",
]

#: degree of the zero polynomial
NEG_INF = float("-inf")


class GuardError(ValueError):
    """Requested size exceeds what the symbolic routines should attempt."""


#: the zero polynomial and the constant 1 (the empty monomial)
ZERO: frozenset[int] = frozenset()
ONE: frozenset[int] = frozenset({0})


def variable(v: int) -> frozenset[int]:
    """The polynomial x_v: one monomial, bit v-1 (v is 1-based)."""
    check_int("v", v, 1)
    return frozenset({1 << (v - 1)})


def anf_mul(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """Product: monomials multiply by OR (x^2 = x), and a product that
    arises an even number of times cancels."""
    acc: set[int] = set()
    for s in a:
        for t in b:
            u = s | t
            if u in acc:
                acc.remove(u)
            else:
                acc.add(u)
    return frozenset(acc)


def anf_degree(a: frozenset[int]):
    """Largest monomial size: 0 for ONE, NEG_INF for ZERO."""
    return max((t.bit_count() for t in a), default=NEG_INF)


def var_index(i: int, j: int, n: int) -> int:
    """Flat 1-based variable index of v_{i,j} with coordinates 1..n."""
    check_int("i", i, 1)
    check_int("j", j, 1)
    check_int("n", n, 1)
    if j > n:
        raise ValueError(f"v_{{i,j}} needs j <= n, got j={j}, n={n}")
    return (i - 1) * n + j


def _sym_companion_row_mul(row: list[frozenset[int]], p: int) -> list[frozenset[int]]:
    """Symbolic row * companion(p): shift left, feedback in the last column."""
    n = len(row)
    fb = ZERO
    for e in exponents(p):
        if e < n:
            fb ^= row[e]
    return row[1:] + [fb]


def _check_guard(m: int, b: int, limit: int) -> int:
    check_dims(m, b)
    n = m * b
    if n > limit:
        raise GuardError(f"mb = {n} exceeds the symbolic size guard {limit}")
    return n


def build_symbolic_q(m: int, b: int, p: int) -> list[list[frozenset[int]]]:
    """Symbolic Q: blocks [e_1*P^j, v_1*P^j, ..., v_{m-1}*P^j], j = 0..b-1."""
    n = _check_guard(m, b, 12)
    check_int("p", p, 1)
    if p.bit_length() - 1 != n:
        raise ValueError(f"polynomial degree {p.bit_length() - 1} != mb = {n}")
    e1 = [ZERO] * (n - 1) + [ONE]
    block = [e1] + [
        [variable(var_index(i, j, n)) for j in range(1, n + 1)]
        for i in range(1, m)
    ]
    rows: list[list[frozenset[int]]] = []
    for j in range(b):
        rows.extend(block)
        if j + 1 < b:
            block = [_sym_companion_row_mul(r, p) for r in block]
    return rows


def build_symbolic_qp(m: int, b: int, p: int) -> list[list[frozenset[int]]]:
    """Row-permuted Q: all e_1*P^j rows first, then each v_i's power rows.

    In this order the top-left b x (mb-b) block is zero, the top-right
    b x b block is anti-triangular with 1s on the anti-diagonal, and the
    bottom-left (mb-b) x (mb-b) block has unit determinant.
    """
    q = build_symbolic_q(m, b, p)
    order = [j * m for j in range(b)]
    for i in range(1, m):
        order.extend(j * m + i for j in range(b))
    return [q[r] for r in order]


def _det_memo(
    rows: list[list[frozenset[int]]],
    rowmask: int,
    colmask: int,
    memo: dict[tuple[int, int], frozenset[int]],
) -> frozenset[int]:
    """Determinant of the submatrix picked by bit masks, lowest-row expansion."""
    if rowmask == 0:
        return ONE
    key = (rowmask, colmask)
    hit = memo.get(key)
    if hit is not None:
        return hit
    r = (rowmask & -rowmask).bit_length() - 1
    sub_rows = rowmask & (rowmask - 1)
    acc = ZERO
    cm = colmask
    while cm:
        c = (cm & -cm).bit_length() - 1
        cm &= cm - 1
        entry = rows[r][c]
        if entry:
            acc ^= anf_mul(entry, _det_memo(rows, sub_rows, colmask ^ (1 << c), memo))
    memo[key] = acc
    return acc


def sym_det(rows: list[list[frozenset[int]]]) -> frozenset[int]:
    """Symbolic determinant of a square matrix given by its rows (signs are
    trivial over GF(2))."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    full = (1 << len(rows)) - 1
    return _det_memo(rows, full, full, {})


def verify_minor_lemmas(m: int, b: int, p: int) -> dict:
    """Check the four minor-degree claims on the permuted symbolic Q.

    Regions use 1-indexed (i, j) over the n x n permuted matrix, n = mb:

    1. row b, columns 1..n-b: minor degree exactly n-b;
    2. rows 1..b, columns n-b+1..n: on the anti-diagonal i+j = n+1 the
       minor equals det of the bottom-left block, and below it (i+j >
       n+1) the minor is identically zero;
    3. rows b+1..n, columns 1..n-b: minor degree exactly n-b-1;
    4. rows b+1..n, columns n-b+1..n: minor identically zero.

    Returns a JSON-friendly report; use format_report for text.
    """
    n = _check_guard(m, b, 10)
    qp = build_symbolic_qp(m, b, p)
    full = (1 << n) - 1
    memo: dict[tuple[int, int], frozenset[int]] = {}

    def minor(i: int, j: int) -> frozenset[int]:
        return _det_memo(qp, full ^ (1 << (i - 1)), full ^ (1 << (j - 1)), memo)

    def degree_is(want: int):
        def check(i: int, j: int) -> dict:
            got = anf_degree(minor(i, j))
            return {
                "entry": [i, j],
                "expected_degree": want,
                "computed_degree": "-inf" if got == NEG_INF else got,
                "ok": got == want,
            }
        return check

    def equals(want: frozenset[int], label: str):
        def check(i: int, j: int) -> dict:
            return {"entry": [i, j], "expected": label, "ok": minor(i, j) == want}
        return check

    det_q3 = sym_det([r[: n - b] for r in qp[b:]])
    on_anti, zero = equals(det_q3, "det(bottom-left block)"), equals(ZERO, "0")
    row_b, lower = degree_is(n - b), degree_is(n - b - 1)
    top, bottom = range(1, b + 1), range(b + 1, n + 1)
    left, right = range(1, n - b + 1), range(n - b + 1, n + 1)
    regions = [
        (f"row {b}, columns 1..{n - b}",
         [(b, j, row_b) for j in left]),
        ("anti-diagonal and below in the top-right block",
         [(i, j, on_anti if i + j == n + 1 else zero)
          for i in top for j in range(n + 1 - i, n + 1)]),
        (f"rows {b + 1}..{n}, columns 1..{n - b}",
         [(i, j, lower) for i in bottom for j in left]),
        (f"rows {b + 1}..{n}, columns {n - b + 1}..{n}",
         [(i, j, zero) for i in bottom for j in right]),
    ]
    lemmas = []
    for lemma, (name, cells) in enumerate(regions, 1):
        checks = [check(i, j) for i, j, check in cells]
        lemmas.append(
            {
                "lemma": lemma,
                "region": name,
                "checked": len(checks),
                "violations": [c for c in checks if not c["ok"]],
            }
        )
    return {
        "m": m,
        "b": b,
        "n": n,
        "polynomial_exponents": exponents(p),
        "lemmas": lemmas,
        "all_hold": all(not item["violations"] for item in lemmas),
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a verify_minor_lemmas report."""
    lines = [
        f"minor-degree report for m={report['m']} b={report['b']} "
        f"(n={report['n']})"
    ]
    for item in report["lemmas"]:
        status = "OK" if not item["violations"] else "VIOLATED"
        lines.append(
            f"  claim {item['lemma']}: {item['region']}: "
            f"{item['checked']} checks: {status}"
        )
        for bad in item["violations"]:
            lines.append(f"    entry {bad['entry']}: {bad}")
    lines.append(
        "all claims hold" if report["all_hold"] else "SOME CLAIMS VIOLATED"
    )
    return "\n".join(lines)


def theorem1_check(m: int, b: int, p: int) -> tuple[frozenset[int], bool]:
    """Degree witness in the derived configuration matrix.

    Returns the entry C[n-m+1, n-m+1] (1-indexed, n = mb) of the symbolic
    configuration C = Q*P*adj(Q), taken as det of Q with row n-m+1
    replaced by the same row of Q*P, and whether its algebraic degree
    equals n-b, which witnesses max-entry degree >= n-b.  With m = 1
    there are no unknowns and the bound is vacuous (entry is constant,
    returns False).
    """
    n = _check_guard(m, b, 10)
    rows = build_symbolic_q(m, b, p)
    rows[n - m] = _sym_companion_row_mul(rows[n - m], p)
    entry = sym_det(rows)
    return entry, anf_degree(entry) == n - b
