"""Feedback-configuration generation with a prescribed characteristic polynomial.

The pipeline grows an m-row matrix Y (its list of row ints, starting
from the m x m identity) one column per iteration.  Iteration i
(1-based) works at width w = m + i - 1 with the primitive polynomial p
of degree w from the active table (gf2.primtable.default_table):

1. the active row, l = i mod m (rows 0-indexed), is sent to e_1 (the
   last-coordinate unit vector) by right-multiplying Y with a matrix
   Lambda that is a polynomial in companion(p);
2. every other row is extended by one fill bit at the new last coordinate;
3. the active row becomes e_1 of the new width.

So Y keeps no width: its last active row (row m - 1 of the identity,
before the first iteration) is e_1, and no row is wider, so the width is
the bit length of its widest row (gf2.linalg.width).

After the final iteration Y has width mb; its rows are rotated so the e_1
row comes last, and a block matrix Q is stacked from Y times powers of the
degree-mb companion matrix P.  The output configuration is the matrix
C = Q * P * Q^{-1}, which is always block-companion with characteristic
polynomial equal to the prescribed degree-mb polynomial.  C is never
formed: block j of Q times P is block j+1 of Q, so every block row of C
but the last is an identity shift by construction, and assemble_config
solves the m feedback rows as rows appended to the one elimination of Q.
Q's rows enter it chain by chain (y_r, y_r P, ..., y_r P^(b-1)), e_1's
chain last: its rows have no bit below column mb - b, and anywhere
earlier each would be read again by every pivot search before its own.  No
stage loses rank (see _stage): Y's rank is checked once, at a run's input.

The split into an offline prefix (y_offline, publishable) and an online
remainder (generate_config) lets most iterations be precomputed; fill bits
are supplied explicitly, either from a seeded deterministic stream or from
cipher-derived words.

Lambda is never built as a matrix.  A run (y_offline, or the online part
of generate_config) keeps its rows reversed, bit j holding coordinate
w-1-j, so e_1 is 1 and widening is u << 1 | fill.  Mapping u to F_2[x]/p
by u -> floor(p * u / x^w) makes the companion action multiplication by
x, so Lambda is multiplication by one field element
lambda = embed(active row)^{-1}, and each row becomes
embed^{-1}(embed(u) * lambda mod p).  Both maps are a product and a
shift, by p and by floor(x^2w / p), which is p when the tail p - x^w has
degree below w/2, as in the table's trinomials and pentanomials: one
shift and xor per term of the factor, whatever its weight.  A stage's
constants are taken once per process and polynomial (_stage_constants):
both maps' shifts and the exponents of p - x^w.  Up to width
LOG_TABLE_MAX_WIDTH = 16, where x generates the units mod p (every table
polynomial, and x + 1), a stage skips the field arithmetic: _log_tables
holds log_x(embed(u)) for every row u and unembed(x^k) for every k,
built whole once per process and polynomial, so each row is one table
lookup (log/antilog tables, Lidl-Niederreiter, Finite Fields).  Every
other stage (_stage) runs on the m rows packed into one int, row t in bits
[t*S, (t+1)*S), S = 64 * ceil(2w / 64) (SIMD within a register, Lamport,
CACM 1975), so each map, the product by lambda and its Barrett reduction
is a few shifts, xors and masks for all the rows at once.
y_iterate runs one iteration on Y's rows in standard coordinates.  The
Krylov-matrix route (solve y.K = e_1, Lambda = sum y_j A^j) lives in
tests/oracles.py as the test oracle, next to the standard-coordinate maps
and the dense assembly Q * P * Q^{-1}.
"""

from __future__ import annotations

import functools
import hashlib
from itertools import product

from kdfc_snow.gf2.linalg import (
    DimensionError,
    NoSolutionError,
    SingularMatrixError,
    _solve_rows,
    check_dims,
    check_int,
    companion_vec_mul,
    rank,
    width,
)
from kdfc_snow.gf2.poly import (
    _barrett,
    _barrett_constants,
    _over_xw,
    euler_phi_2n1,
    inv_mod,
    is_primitive,
)
from kdfc_snow.gf2.primtable import primitive_poly
from kdfc_snow.sigma_lfsr import SigmaConfig, _certificate, annihilates

__all__ = [
    "FillBits",
    "RankLossError",
    "y_iterate",
    "y_offline",
    "build_q",
    "assemble_config",
    "generate_config",
    "count_configurations",
    "brute_force_count",
    "pipeline_poly",
]


class RankLossError(RuntimeError):
    """A run's input Y lacks full row rank, or the verified char poly is wrong."""


class FillBits:
    """Per-iteration fill vectors of m-1 bits each.

    Vector bit j holds the fill for the j-th non-active row in increasing
    row order (the active row gets no fill).  from_words converts m-bit
    words into that packed form given the active-row schedule, preserving
    "bit t of the word goes to row t".
    """

    __slots__ = ("m", "vectors")

    def __init__(self, m: int, vectors: list[int]):
        check_int("m", m, 1)
        limit = 1 << (m - 1)
        for i, v in enumerate(vectors):
            if type(v) is not int:
                raise ValueError(f"fill vector {i} is not an int: {type(v).__name__}")
            if v < 0 or v >= limit:
                raise ValueError(f"fill vector {i} wider than {m - 1} bits")
        self.m = m
        self.vectors = list(vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_seed(cls, m: int, count: int, seed: str, label: str = "fill") -> "FillBits":
        """Deterministic fill stream: SHA-256(label || seed || counter) bits."""
        check_int("m", m, 1)
        check_int("count", count, 0)
        need = m - 1
        vectors = []
        pool = 0
        pool_bits = 0
        counter = 0
        while len(vectors) < count:
            if pool_bits < need:
                block = hashlib.sha256(
                    f"{label}:{seed}:{counter}".encode()
                ).digest()
                counter += 1
                pool |= int.from_bytes(block, "little") << pool_bits
                pool_bits += 256
                continue
            vectors.append(pool & ((1 << need) - 1))
            pool >>= need
            pool_bits -= need
        return cls(m, vectors)

    @classmethod
    def from_words(cls, m: int, words: list[int], first_iteration: int) -> "FillBits":
        """Pack m-bit words into fill vectors for iterations starting at
        first_iteration (1-based): bit t of word -> row t, skipping the
        active row l = i mod m; a word that is not an m-bit int is refused."""
        check_int("m", m, 1)
        check_int("first_iteration", first_iteration, 1)
        for i, w in enumerate(words):
            if type(w) is not int or w < 0 or w >> m:
                raise ValueError(f"fill word {i} is not a {m}-bit int: {w!r}")
        low = (1 << (m - 1)) - 1
        vectors = []
        for offset, w in enumerate(words):
            a = (first_iteration + offset) % m
            vectors.append(((w & ((1 << a) - 1)) | (w >> (a + 1) << a)) & low)
        return cls(m, vectors)


def pipeline_poly(degree: int) -> int:
    """Table polynomial for a pipeline stage (degree 1 handled inline)."""
    if degree == 1:
        return 0b11  # x + 1, the unique degree-1 primitive
    return primitive_poly(degree)


#: byte j with its 8 bits in reverse order
_BIT_REVERSED = bytes(int(f"{j:08b}"[::-1], 2) for j in range(256))


def _reversed_rows(rows: list[int], w: int) -> list[int]:
    """Rows of at most w bits with their w coordinates in reverse order
    (an involution).  A row's little-endian bytes, each bit-reversed
    through _BIT_REVERSED and read big-endian, are its 8 * size bits
    reversed; shifting out the 8 * size - w pad leaves the w coordinates."""
    size = -(-w // 8)
    pad = 8 * size - w
    return [
        int.from_bytes(r.to_bytes(size, "little").translate(_BIT_REVERSED), "big") >> pad
        for r in rows
    ]


#: a stage's Barrett constants (gf2.poly._barrett_constants), kept per
#: polynomial for the life of the process
_stage_constants = functools.cache(_barrett_constants)

LOG_TABLE_MAX_WIDTH = 16  # stages up to this width take _log_tables
WINDOW_BITS = 6  # bits of lambda per table lookup in a packed product


def _u16(n: int) -> memoryview:
    """n zeroed 16-bit entries: as compact as array('H'), without
    importing the array module into every process."""
    return memoryview(bytearray(2 * n)).cast("H")


def _pack(rows: list[int], slot: int) -> int:
    """The rows in one int, row t in bits [t * slot, (t + 1) * slot); 8 divides slot."""
    size = slot // 8
    return int.from_bytes(b"".join(u.to_bytes(size, "little") for u in rows), "little")


def _unpack(packed: int, m: int, slot: int) -> list[int]:
    """The m rows of a _pack'ed int."""
    low = (1 << slot) - 1
    return [packed >> t * slot & low for t in range(m)]


def _mulmod_packed(g: int, lam: int, p: int, mask: int) -> int:
    """u * lam mod p for every row u (deg u < w = deg p) of the packed g,
    in slots of at least 2w bits, so each product c (deg c <= 2w - 2)
    stays in its slot; mask has the low w bits of every slot set.

    From width 32 on, c is taken left to right with WINDOW_BITS-bit
    windows of lam through a table of g's multiples, one shift and xor of
    the packed int per window (Hankerson-Menezes-Vanstone, Guide to ECC,
    2.3.3); below, where the table costs about what it saves, one shifted
    copy of g per term of lam.  Every slot's c is then reduced at once by
    one Barrett step (gf2.poly._barrett), for sparse and dense p alike.
    """
    w = p.bit_length() - 1
    _, mu_shifts, low = _stage_constants(p)
    acc = 0
    if w < 32:
        while lam:
            bit = lam & -lam
            acc ^= g << (bit.bit_length() - 1)
            lam ^= bit
    else:
        tab = [0, g]
        for j in range(1, WINDOW_BITS):
            top = g << j
            tab += [top ^ t for t in tab]
        digit = (1 << WINDOW_BITS) - 1
        for k in range((w - 1) // WINDOW_BITS * WINDOW_BITS, -1, -WINDOW_BITS):
            acc = (acc << WINDOW_BITS) ^ tab[lam >> k & digit]
    return _barrett(acc, w, mu_shifts, low, mask)


@functools.cache
def _log_tables(p: int) -> tuple[memoryview, memoryview] | None:
    """Discrete logs to the base x in F_2[x]/p, through the stage maps:
    to_log[u] = log_x(embed(u)) for u != 0 and from_log[k] = unembed(x^k).

    Both tables are built whole.  x^k sits in lane k of one int, lanes of
    32 bits (a product, of degree <= 2w - 2, stays in its lane): from
    lane 0 = 1, each doubling makes lanes [h, 2h) as lanes [0, h) times
    x^h mod p, one _mulmod_packed.  from_log is unembed of every lane at
    once, mu's shifts and one mask; unembed inverts embed, so
    to_log[from_log[k]] = k, and to_log is from_log's inverse permutation,
    built in one pass.  LOG_TABLE_MAX_WIDTH is 16, the widest field whose
    logs and rows fit the 16-bit entries.

    None when deg p exceeds LOG_TABLE_MAX_WIDTH, or when x does not
    generate the 2^w - 1 units: x divides p (x is no unit), or x^d = 1
    for some 0 < d < 2^w - 1 (p irreducible but not primitive, or
    reducible), which leaves the largest multiple of d below 2^w - 1, not
    0, at to_log[unembed(1)].
    """
    w = p.bit_length() - 1
    if w > LOG_TABLE_MAX_WIDTH or not p & 1:
        return None
    _, mu_shifts, _ = _stage_constants(p)
    low = order = (1 << w) - 1
    mask = int.from_bytes(low.to_bytes(4, "little") * (order + 1), "little")
    lanes, xh = 1, 2 if w > 1 else 1  # x mod p; x = 1 mod x + 1
    for j in range(w):
        lanes |= _mulmod_packed(lanes, xh, p, mask) << (32 << j)
        xh = _mulmod_packed(xh, xh, p, low)
    raw = (_over_xw(mu_shifts, lanes) & mask).to_bytes(4 << w, "little")
    from_log = _u16(order)
    from_log[:] = memoryview(raw).cast("H")[: 2 * order : 2]  # each lane's low half
    to_log = _u16(order + 1)
    for k, u in enumerate(from_log):
        to_log[u] = k
    if to_log[from_log[0]]:
        return None
    return to_log, from_log


def _stage(packed: int, active: int, p: int, slot: int, ones: int, fill: int) -> int:
    """One field stage on packed rows u of width w = deg p, bit j =
    coordinate w-1-j, row t in bits [t * slot, (t + 1) * slot), slot >= 2w.

    ones has bit t * slot set for every row t and fill has the fill bits
    at the same places (none at the active row).  Every map works on all
    rows at once, masked to w bits per slot.

    embed(u) = floor(p * u / x^w).  p * u = embed(u) * x^w + r, deg r < w,
    so u = floor(embed(u) * x^w / p) = floor(mu * embed(u) / x^w) with
    mu = floor(x^2w / p), Barrett's quotient, exact over GF(2)[x].  With
    p = x^w + t, x^2w = p^2 + t^2, so mu is p when deg t^2 < w.

    Rank m in gives rank m out, so no stage checks it.  embed (0 only at
    u = 0, as deg p = w), the product by lambda != 0 mod the irreducible p
    and un-embedding are linear bijections; the active row ends as 1, and
    1 with the widened u << 1 | fill is dependent only if the u sum to 0.
    """
    w = p.bit_length() - 1
    shifts, mu_shifts, _ = _stage_constants(p)
    mask = (ones << w) - ones
    at = active * slot
    g = _over_xw(shifts, packed) & mask
    try:
        lam = inv_mod(g >> at & (1 << w) - 1, p)
    except ZeroDivisionError as exc:
        raise NoSolutionError(f"active row is zero or not cyclic: {exc}") from exc
    out = _over_xw(mu_shifts, _mulmod_packed(g, lam, p, mask)) & mask
    if out >> at & (1 << w) - 1 != 1:
        raise NoSolutionError("active row did not land on e_1")
    return (out << 1) ^ (3 << at) ^ fill


def _run(rows: list[int], first: int, polys: list[int], fills: list[int]) -> list[int]:
    """Iterations first, first + 1, ... on the reversed rows, one per
    stage polynomial in polys, with the fill vectors fills.

    Until the rows are packed, where _log_tables has tables for p,
    embed(u) * lambda is x^(log u - log u_active), so each row is one
    lookup; a zero active row takes _stage, which refuses it.  The other
    stages run on one packed int (_stage): the rows are packed at the
    first of them, in slots of 64 * ceil(2w / 64) bits, repacked when the
    slot must grow and unpacked once, at the end of the run.  The fill
    vector gets a 0 at the active row, then bit t widens row t; on packed
    rows, its copies at a stride of slot - 1 (fill * step) put bit t at
    bit t * slot.
    """
    m = len(rows)  # m <= w < slot: the rows have full rank
    packed = slot = 0  # slot 0: the rows are the list
    for i, (p, fill) in enumerate(zip(polys, fills), first):
        active = i % m
        fill = (fill & ((1 << active) - 1)) | (fill >> active << (active + 1))
        tables = _log_tables(p)
        if tables is not None and not slot and rows[active]:
            to_log, from_log = tables
            order = len(from_log)
            la = to_log[rows[active]]
            rows = [
                (from_log[(to_log[u] - la) % order] if u else 0) << 1 | (fill >> t & 1)
                for t, u in enumerate(rows)
            ]
            if rows[active] != 2:
                raise NoSolutionError("active row did not land on e_1")
            rows[active] = 1
            continue
        w = p.bit_length() - 1
        if slot < 2 * w:
            if slot:
                rows = _unpack(packed, m, slot)
            slot = -(-w // 32) * 64
            packed = _pack(rows, slot)
            ones = int.from_bytes((b"\1" + bytes(slot // 8 - 1)) * m, "little")
            step = sum(1 << t * (slot - 1) for t in range(m))
        packed = _stage(packed, active, p, slot, ones, fill * step & ones)
    return _unpack(packed, m, slot) if slot else rows


def y_iterate(y: list[int], i: int, p: int, fill: int) -> list[int]:
    """One pipeline iteration: active row to e_1, then widen by one bit.

    y has m rows of width w, its widest row; p is the stage polynomial, of
    degree w.  The rows are reversed, go through _run and are reversed
    back.  A y without full row rank raises RankLossError.
    """
    check_int("i", i, 1)
    check_int("fill", fill, None)  # its width is checked below, with m's
    m, w = len(y), width(y)
    if rank(y) != m:
        raise RankLossError(f"rank dropped below {m} at iteration {i}")
    if p.bit_length() - 1 != w:
        raise DimensionError(
            f"stage polynomial degree {p.bit_length() - 1} does not match Y width {w}"
        )
    if fill < 0 or fill >> (m - 1):
        raise ValueError(f"fill needs exactly {m - 1} bits")
    rows = _run(_reversed_rows(y, w), i, [p], [fill])
    return _reversed_rows(rows, w + 1)


def y_offline(m: int, b: int, k: int, fill: FillBits) -> list[int]:
    """Run the first k iterations from the m x m identity: m rows of at
    most m + k bits, the last active one (e_1) of m + k."""
    check_dims(m, b)
    check_int("k", k, 0)
    if not 0 <= k <= m * b - m:
        raise ValueError(f"k must lie in [0, {m * b - m}]")
    if fill.m != m:
        raise ValueError(f"offline fill has vectors for m={fill.m}, need m={m}")
    if len(fill) != k:
        raise ValueError(f"offline fill must supply exactly {k} vectors")
    rows = [1 << (m - 1 - t) for t in range(m)]  # the identity, reversed
    rows = _run(rows, 1, [pipeline_poly(w) for w in range(m, m + k)], fill.vectors)
    return _reversed_rows(rows, m + k)


def build_q(y: list[int], p: int) -> list[int]:
    """Stack Y * P^j for j = 0..b-1 into the mb x mb change-of-basis Q.

    Q is not checked for singularity here: assemble_config builds Q and
    eliminates it once for its row solves, raising SingularMatrixError there.
    """
    check_int("p", p, 0)
    m, n = len(y), width(y)
    if p.bit_length() - 1 != n:
        raise DimensionError(f"polynomial degree {p.bit_length() - 1} != Y width {n}")
    if n % m:
        raise DimensionError(f"Y width {n} is not a multiple of m={m}")
    rows = list(y)
    for _ in range(n // m - 1):
        rows += [companion_vec_mul(r, p) for r in rows[-m:]]
    return rows


@functools.cache
def _chain_order(m: int, n: int) -> tuple[int, ...]:
    """Q's row indices chain by chain, r, r + m, ..., r + n - m for
    r = 0..m-1, kept per shape for the life of the process: built on
    every call, it would cost a 4 x 4 solve more than the order saves."""
    return tuple([i for r in range(m) for i in range(r, n, m)])


def assemble_config(y: list[int], p: int) -> SigmaConfig:
    """The configuration C = Q * companion(p) * Q^{-1} of Q = build_q(y, p),
    without forming C.

    Block j of Q times P is block j+1, so C * Q = Q * P makes block row j
    of C the identity at block column j+1, and the feedback rows of C are
    the solutions x of x * Q = v_r = (last block of Q)[r] * P.
    gf2.linalg._solve_rows solves all m on one forward elimination of Q's
    rows with the v_r appended, and refuses a singular Q
    (SingularMatrixError).

    Q's rows enter the elimination chain by chain: y_r, y_r P, ...,
    y_r P^(b-1) for r = 0..m-1, each keeping the tracker bit of its
    block-major index, so x is the same as in block order.  Y's last row
    is e_1 (generate_config rotates it there), and e_1 P^j has no bit
    below column n - 1 - j, so its chain enters last.  Entered earlier,
    each of its rows, once a pivot search reached it, would be read again
    by every search up to its column (see _echelon).
    """
    check_int("p", p, 0)
    rows = build_q(y, p)
    m, n = len(y), len(rows)
    try:
        xs = _solve_rows(
            rows, [companion_vec_mul(r, p) for r in rows[n - m:]], _chain_order(m, n)
        )
    except SingularMatrixError:
        raise SingularMatrixError("Q is singular: Y rows are not independent over P") from None
    return SigmaConfig(m, n // m, xs)


def generate_config(
    m: int,
    b: int,
    p: int,
    y_init: list[int],
    online_fill: FillBits,
    verify: bool = True,
) -> SigmaConfig:
    """Finish the pipeline from a (possibly empty) offline prefix.

    y_init has width m + k after k offline iterations; online_fill supplies
    exactly the remaining mb - m - k fill vectors, so a Y narrower than its
    caller meant never runs.  A rank-deficient y_init raises RankLossError
    (SingularMatrixError with no stage left).  The result is
    block-companion with characteristic polynomial p.  p must be
    irreducible: verify rechecks the result with sigma_lfsr.annihilates,
    which proves chi = p only for an irreducible p.
    """
    check_int("p", p, 0)
    check_dims(m, b)
    n = m * b
    if p.bit_length() - 1 != n:
        raise DimensionError(f"target degree {p.bit_length() - 1} != mb = {n}")
    if len(y_init) != m:
        raise DimensionError("y_init row count != m")
    k = width(y_init) - m
    total = n - m
    if not 0 <= k <= total:
        raise ValueError(f"y_init width {m + k} outside [m, mb]")
    if online_fill.m != m:
        raise ValueError(f"online fill has vectors for m={online_fill.m}, need m={m}")
    if len(online_fill) != total - k:
        raise ValueError(f"online fill must supply exactly {total - k} vectors")
    if k < total and rank(y_init) != m:
        raise RankLossError(f"rank dropped below {m} at iteration {k + 1}")
    polys = [pipeline_poly(w) for w in range(m + k, n)]
    rows = _run(_reversed_rows(y_init, m + k), k + 1, polys, online_fill.vectors)
    # rotate rows so the most recently active row (now e_1) is last
    last_active = total % m
    order = [(last_active + 1 + t) % m for t in range(m)]
    cfg = assemble_config(_reversed_rows([rows[t] for t in order], n), p)
    if verify and not annihilates(cfg, p):
        raise RankLossError("characteristic polynomial mismatch: e_0 p(G) != 0")
    return cfg


def count_configurations(m: int, b: int) -> int:
    """Number of primitive feedback configurations for (m, b).

    |GL(m, F_2)| / (2^m - 1) * phi(2^mb - 1) / (mb) * 2^(m(m-1)(b-1)).
    Needs the factor table for 2^mb - 1, hence mb <= 64 or mb = 512
    (FactorTableMissError otherwise).
    """
    check_dims(m, b)
    n = m * b
    phi = euler_phi_2n1(n) if n > 1 else 1  # first: a table miss raises at once
    gl = 1
    for i in range(m):
        gl *= (1 << m) - (1 << i)
    if gl % ((1 << m) - 1) or phi % n:
        raise RuntimeError(f"counting formula not integral at m={m}, b={b}")
    return gl // ((1 << m) - 1) * (phi // n) * (1 << (m * (m - 1) * (b - 1)))


MAX_ENUMERATION_BITS = 20  # brute_force_count walks at most 2^20 row tuples


def brute_force_count(m: int, b: int) -> int:
    """Count primitive configurations by enumerating every feedback-row tuple.

    Walks all 2^(m*m*b) tuples of m feedback rows of mb bits (every gain
    tuple, once each), keeping those whose configuration matrix has a
    primitive characteristic polynomial.  Only the Berlekamp-Massey
    certificate of config_char_poly is taken: one of degree below mb
    means the characteristic polynomial is reducible (see
    sigma_lfsr._certificate), so no tuple needs the dense char_poly.
    Exponential, so guarded to at most 2^20 candidates; cross-checks
    count_configurations at small sizes.
    """
    check_dims(m, b)
    nbits = m * m * b
    if nbits > MAX_ENUMERATION_BITS:
        raise ValueError(
            f"enumeration over 2^{nbits} row tuples is too large "
            f"(max 2^{MAX_ENUMERATION_BITS})"
        )
    count = 0
    for rows in product(range(1 << (m * b)), repeat=m):
        f = _certificate(SigmaConfig(m, b, list(rows)))
        count += f.bit_length() - 1 == m * b and is_primitive(f)
    return count
