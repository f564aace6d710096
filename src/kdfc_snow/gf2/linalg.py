"""Dense bit-packed linear algebra over GF(2).

Vectors are plain Python integers used as bitsets: bit ``i`` is coordinate
``i`` (LSB-first).  A matrix is its list of row ints; unless a caller
states its column count, that is the bit length of its widest row (width),
so a square n x n matrix is n rows of at most n bits.  A linear map ``M``
acts on a row vector ``v`` as ``v * M``, the XOR of the rows of ``M``
selected by the set bits of ``v``.  The basis vector written
``(0, 0, ..., 1)`` — one in the *last* coordinate — is ``1 << (n - 1)``.
matrix_to_json and matrix_from_json write and read ``{"rows", "cols", "data"}``
(MATRIX_SHAPE); check_shape is the type check every JSON reader runs first.
"""

from __future__ import annotations

from typing import Sequence

from kdfc_snow.gf2.poly import clmul


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


def check_int(name: str, value: int, least: int | None) -> None:
    """Refuse a non-int (a bool is not one here) or a value below least (if given)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {name}={value}")


def check_dims(m: int, b: int) -> None:
    """Refuse a word width m or block count b that is not an int >= 1."""
    check_int("m", m, 1)
    check_int("b", b, 1)


class SingularMatrixError(ValueError):
    """A square matrix required to be invertible is singular."""


class NoSolutionError(ValueError):
    """A linear system has no solution."""


_HEX = frozenset("0123456789abcdefABCDEF")


def vec_to_hex(v: int, length: int) -> str:
    """Serialize a bit vector to hex, least significant nibble first."""
    if v < 0 or v >> length:
        raise ValueError("vector has bits beyond its length")
    ndigits = (length + 3) // 4
    return format(v, f"0{ndigits}x")[::-1] if ndigits else ""


def vec_from_hex(s: str, length: int) -> int:
    """Inverse of :func:`vec_to_hex`.

    Only hex digits are read: int() would also take a sign, blanks, '_'
    and a '0x' prefix, which reversed is the suffix 'x0'.  A refused
    string is echoed up to its first 32 characters, then by its length.
    """
    ndigits = (length + 3) // 4
    if len(s) != ndigits:
        raise ValueError(f"expected {ndigits} hex digits for {length} bits")
    if not _HEX.issuperset(s):
        shown = repr(s) if len(s) <= 32 else f"{s[:32]!r}... ({len(s)} characters)"
        raise ValueError(f"not a hex string: {shown}")
    v = int(s[::-1], 16) if s else 0
    if v >> length:
        raise ValueError("hex string has bits beyond the stated length")
    return v


def width(rows: Sequence[int]) -> int:
    """The bit length of the widest row (0 for none); a negative row is refused."""
    if rows and min(rows) < 0:
        raise DimensionError("row has bits beyond the column count")
    return max(rows, default=0).bit_length()


#: JSON type names for refusals
_JSON_TYPES = {
    dict: "an object", list: "an array", int: "an integer", float: "a number",
    str: "a string", bool: "a boolean", type(None): "null",
}

#: the JSON shape of a matrix as matrix_to_json writes it; in a shape, [x] is
#: an array of x, and object fields not named are not read
MATRIX_SHAPE = {"rows": int, "cols": int, "data": [str]}


def check_shape(value, shape, what: str, field: str = "") -> None:
    """Refuse the first field of `value` that is missing or not of `shape`;
    `what` names the document, whose root must be an object."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    if type(value) is not kind:
        want = f"field {field!r} is not {_JSON_TYPES[kind]}" if field else "expected a JSON object"
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"malformed {what}: {want} (got {got})")
    if kind is dict:
        for key, sub in shape.items():
            if key not in value:
                where = f" from {field!r}" if field else ""
                raise ValueError(f"malformed {what}: field {key!r} missing{where}")
            check_shape(value[key], sub, what, f"{field}.{key}" if field else key)
    elif kind is list:
        for i, item in enumerate(value):
            check_shape(item, shape[0], what, f"{field}[{i}]")


def matrix_to_json(rows: Sequence[int], ncols: int) -> dict:
    """The JSON form of a matrix of ncols columns, one hex string per row."""
    return {"rows": len(rows), "cols": ncols, "data": [vec_to_hex(r, ncols) for r in rows]}


def matrix_from_json(obj: dict, shape: tuple[int, int], name: str) -> list[int]:
    """The rows of a matrix_to_json form declaring shape (rows, cols); name is
    what a refusal calls it.  The JSON types are checked first, and rows are
    read before the shape is compared."""
    check_shape(obj, MATRIX_SHAPE, name)
    nrows, ncols = obj["rows"], obj["cols"]
    if ncols < 0:
        raise DimensionError("negative column count")
    rows = [vec_from_hex(s, ncols) for s in obj["data"]]
    if len(rows) != nrows:
        raise ValueError("row count mismatch in serialized matrix")
    if (nrows, ncols) != shape:
        raise DimensionError(f"{name} is {nrows}x{ncols}, expected {shape[0]}x{shape[1]}")
    return rows


def _check_square(rows: Sequence[int], what: str) -> int:
    n = len(rows)
    if width(rows) > n:
        raise DimensionError(f"{what} of a non-square matrix")
    return n


def mat_vec_mul(v: int, rows: Sequence[int]) -> int:
    """Row vector times matrix: ``v * rows`` (XOR of the rows selected by v)."""
    if v >> len(rows):
        raise DimensionError("vector longer than matrix row count")
    acc = 0
    while v:
        i = (v & -v).bit_length() - 1
        acc ^= rows[i]
        v &= v - 1
    return acc


def mat_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """GF(2) matrix product: each row of a times b."""
    if width(a) > len(b):
        raise DimensionError(f"cannot multiply {width(a)}-col by {len(b)}-row")
    return [mat_vec_mul(r, b) for r in a]


def _echelon(rows: list[int], ncols: int):
    """In-place forward row echelon form; returns list of (pivot_col, row_index).

    Deterministic pivoting: for each column left to right, the first
    remaining row with a set bit in that column, once reduced by the pivots
    before it, becomes the pivot row and is swapped to the next rank
    position.  Only columns < ncols are eliminated; bits above them (an
    identity tracker, say) ride along.  Pivot rows end reduced by the
    earlier pivots, and every row below the last pivot ends cleared of all
    pivot columns.

    Elimination runs in blocks of k columns (the method of Four Russians,
    as in M4RI: Albrecht, Bard & Hart, ACM TOMS 2010).  A block's pivots are
    found as above, each candidate row reduced lazily by the block's earlier
    pivots only; then a table of all 2^k combinations of the block's pivot
    rows is built, and every row below them is cleared of the block's
    columns with one lookup and one xor.  k comes from the row count: 1
    below 128 rows, where a table costs more than it saves and a pivot row
    is xored straight into the rows below with its bit (the plain
    column-by-column loop), and bit_length(nrows) - 3 from there (7 for a
    512-row matrix).  The pivot list and the rows are the same for every k.
    A column that no remaining row has is skipped, up to the next column
    that one of them has.

    The pivot search's cost depends on the row order.  A row with no bit
    before column L, once a search has read it, is read (and lazily
    reduced) again by every search until column L: the swap puts the
    displaced front row in the pivot's old place, so the rows a search
    passed stay ahead of the next pivot.  So callers put the rows that
    pivot late last.
    """
    nrows = len(rows)
    k = 1 if nrows < 128 else nrows.bit_length() - 3
    pivots = []
    rank_ = 0
    block = []  # (bit, row): pivots of the open block, not yet cleared below
    c0 = 0  # the open block's first column
    col = 0
    while col < ncols:
        bit = 1 << col
        for i in range(rank_, nrows):
            r = rows[i]
            if block:
                for pbit, prow in block:
                    if r & pbit:
                        r ^= prow
                rows[i] = r
            if r & bit:
                break
        else:
            # no remaining row has this column: skip to the next one some row has
            seen = 0
            for i in range(rank_, nrows):
                seen |= rows[i]
            seen = (seen >> col) & ((1 << (ncols - col)) - 1)
            if not seen:
                break
            col += (seen & -seen).bit_length() - 1
            continue
        rows[i] = rows[rank_]
        rows[rank_] = r
        if k == 1:
            for i in range(rank_ + 1, nrows):
                if rows[i] & bit:
                    rows[i] ^= r
        else:
            if block and col - c0 >= k:
                _clear_block(rows, block, c0, c0 + k, rank_)
                block = []
            if not block:
                c0 = col
            block.append((bit, r))
        pivots.append((col, rank_))
        rank_ += 1
        if rank_ == nrows:
            break
        col += 1
    if block:
        _clear_block(rows, block, c0, min(c0 + k, ncols), rank_)
    return pivots


def _clear_block(rows, block, c0, c1, end):
    """Clear the pivot columns of one block, columns c0..c1-1, from rows end on.

    block holds the (bit, row) pivots just above end, each reduced by the
    ones before it.  They are reduced against each other into a table of
    their combinations; the pivot rows themselves are left as they are.
    Each row below is read mask-first: (r & window) >> c0 touches only its
    low c1 bits, where r >> c0 would first shift the whole row (n columns,
    a tracker and a flag, in _solve_rows).
    """
    reduced = [r for _, r in block]
    for t in range(len(block) - 1, 0, -1):
        bit, r = block[t][0], reduced[t]
        for s in range(t):
            if reduced[s] & bit:
                reduced[s] ^= r
    # tab[j]: the reduced pivot rows whose column is set in window j, xored
    tab = [0]
    t = 0
    for c in range(c0, c1):
        if t < len(block) and block[t][0] >> c == 1:
            r = reduced[t]
            t += 1
            tab += [e ^ r for e in tab]
        else:
            tab += tab
    window = ((1 << (c1 - c0)) - 1) << c0
    rows[end:] = [r ^ tab[(r & window) >> c0] for r in rows[end:]]


def _solve_rows(
    rows: Sequence[int], targets: Sequence[int], order: Sequence[int] | None = None
) -> list[int]:
    """The x with x * A = v for each target v, A the n x n matrix of rows.

    One forward elimination (_echelon) of A's rows, each with an identity
    tracker at bits n..2n-1, above the targets, each with a zero tracker
    and a flag bit at 2n.  A's rows enter in order, a permutation of
    range(n) (as given by default); rows[i] keeps tracker bit n + i
    wherever it enters, so x does not depend on the order, only the
    pivot search's cost does (see _echelon).  When every column pivots on
    a row of A, each target ends cleared of all n columns with its tracker
    as x.  A is singular (SingularMatrixError) iff under n columns pivot
    or one pivots on a target, whose flag then sits among the n pivot rows
    work[:n].
    """
    n = len(rows)
    flag = 1 << 2 * n
    work = [rows[i] | 1 << (n + i) for i in (range(n) if order is None else order)]
    work += [v | flag for v in targets]
    pivots = _echelon(work, n)
    if len(pivots) != n or max(work[:n], default=0) >= flag:
        raise SingularMatrixError("matrix is singular")
    return [(v ^ flag) >> n for v in work[n:]]


def rank(rows: Sequence[int]) -> int:
    """GF(2) row rank."""
    return len(_echelon(list(rows), width(rows)))


def determinant(rows: Sequence[int]) -> int:
    """Determinant over GF(2): 1 iff the square matrix has full rank."""
    n = _check_square(rows, "determinant")
    return 1 if rank(rows) == n else 0


def mat_inverse(rows: Sequence[int]) -> list[int]:
    """Inverse of a square matrix; raises SingularMatrixError if singular.

    Row i of the inverse is the x with x * a = e_i, all n solved by
    _solve_rows on one elimination.
    """
    n = _check_square(rows, "inverse")
    return _solve_rows(rows, [1 << i for i in range(n)])


def companion_vec_mul(v: int, p: int) -> int:
    """Row vector times the companion matrix P of monic p, without forming P.

    P has ones on the subdiagonal (P[j+1, j] = 1) and last column
    (c_0, ..., c_{b-1}) where p(x) = x^b + sum c_j x^j, so that
    (x_n, ..., x_{n+b-1}) * P = (x_{n+1}, ..., x_{n+b}).  v has at most
    b = deg p bits, so v & p never holds p's leading x^b and needs no mask.
    """
    b = p.bit_length() - 1
    tail = (v & p).bit_count() & 1
    return (v >> 1) | (tail << (b - 1))


def char_poly(rows: Sequence[int]) -> int:
    """Characteristic polynomial of a square matrix over GF(2).

    Deterministic O(n^3): builds a filtration of Krylov-invariant subspaces;
    on each quotient the minimal polynomial of the next standard basis
    vector is a companion block, and the characteristic polynomial is the
    product of the block polynomials.  Works for non-cyclic matrices
    (e.g. char_poly(I_2) = x^2 + 1).
    """
    n = _check_square(rows, "characteristic polynomial")
    span: list[int] = []  # echelonized basis of the invariant subspace so far
    span_pivots: list[int] = []  # pivot bit positions, parallel to span
    result = 1  # polynomial accumulator, bit i = coeff of x^i
    dim = 0

    def reduce_vec(x: int) -> int:
        for pb, row in zip(span_pivots, span):
            if (x >> pb) & 1:
                x ^= row
        return x

    for j0 in range(n):
        if dim == n:
            break
        w = reduce_vec(1 << j0)
        if w == 0:
            continue
        # Krylov chain of w in the quotient by the current invariant span.
        local: list[tuple[int, int, int]] = []  # (pivot_bit, vector, combo poly)
        chain: list[int] = []
        cur = w
        t = 0
        while True:
            x = cur
            combo = 1 << t
            for pb, vec, cmb in local:
                if (x >> pb) & 1:
                    x ^= vec
                    combo ^= cmb
            if x == 0:
                # cur = sum of earlier chain vectors: combo is the block poly.
                result = clmul(result, combo)
                break
            local.append((x.bit_length() - 1, x, combo))
            chain.append(cur)
            t += 1
            cur = reduce_vec(mat_vec_mul(cur, rows))
        # Fold the chain into the global invariant span.
        for vec in chain:
            x = reduce_vec(vec)
            if x:
                span_pivots.append(x.bit_length() - 1)
                span.append(x)
                dim += 1
    return result


def berlekamp_massey(bits: Sequence[int]) -> int:
    """Shortest LFSR recurrence generating a bit sequence.

    Returns the characteristic polynomial f of degree L (the linear
    complexity): sum_j f_j s_{k+j} = 0 for every window, i.e.
    s_{k+L} = sum_{j<L} f_j s_{k+j}.  For a full-period window of an
    m-sequence this recovers the generating primitive polynomial.
    """
    if not len(bits):
        raise ValueError("empty sequence")
    conn = 1  # connection polynomial C(D), bit i = c_i, c_0 = 1
    prev = 1  # B(D), connection before the last length change
    ln = 0
    gap = 1  # n - m where m is the index of the last length change
    hist = 0  # bit i = s_{n-i}: reversed history window
    for n, s in enumerate(bits):
        hist = (hist << 1) | (s & 1)
        d = (conn & hist).bit_count() & 1
        if d == 0:
            gap += 1
        elif 2 * ln > n:
            conn ^= prev << gap
            gap += 1
        else:
            conn, prev = conn ^ (prev << gap), conn
            ln = n + 1 - ln
            gap = 1
    # Reciprocal within length ln gives the characteristic form.
    f = 0
    for j in range(ln + 1):
        if (conn >> (ln - j)) & 1:
            f |= 1 << j
    return f
