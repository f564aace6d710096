"""Independent reference implementations used as test oracles.

Everything here is deliberately written along a different computational
route than the package:

* Snow2Ref runs the cipher word-by-word over explicit field elements
  (4-tuples of bytes, full polynomial multiplication mod G_S), instead
  of the package's bit-matrix configuration stepping and byte-shift
  alpha tables.
* The AES S-box is the canonical 256-byte constant, instead of the
  package's inversion-plus-affine construction; MixColumn multiplies
  with a minimal double-and-add in the Rijndael field.
* char_poly_sympy reduces a sympy integer characteristic polynomial
  mod 2, instead of GF(2) elimination.
* sympy_mul / sympy_rem compute GF(2)[x] products and remainders with
  sympy's Poly(..., modulus=2), instead of the package's packed-int
  shift-and-xor kernel.
* krylov_lambda solves the pipeline's Lambda from the Krylov matrix by
  elimination, instead of the package's field-embedding inversion.
* gf2_matmul_numpy checks bit-packed matrix products against numpy
  integer arithmetic mod 2.
* lfsr_step steps a sigma-LFSR on its list of words in the Fibonacci
  form, one product per nonzero gain through that gain's own byte tables
  (gain_tables, built once per configuration from cfg.gains()), instead
  of the package's step_stacked through the Galois byte-lane tables of
  all the gains at once.
* orbit_of walks a seed's orbit by multiplying the stacked state with the
  transition matrix, instead of the package's period(), which clocks the
  Galois state through the byte-lane tables.
* nibble_hex and nibble_from_hex write and read a row one nibble at a
  time, instead of the package's vec_to_hex and vec_from_hex, which
  convert the whole row at once.
* clock_oracle and keystream_oracle run SNOW 2.0's clocks on word lists
  and [R1, R2] register pairs with lfsr_step (on gain tables built once
  per configuration) and fsm_step, under any 32x16 configuration,
  instead of the package's single Galois-form loop on plain ints.
* long_division_mod and triangular_unembed reduce and un-embed bit by bit
  for any modulus, instead of the package's Barrett step
  (gf2.poly._barrett).  field_embed maps a row in standard coordinates to
  the field by reversing it bit by bit and multiplying by one shifted copy
  per coefficient of p, and long_division_quotient gives floor(a / m) bit
  by bit, where the pipeline shifts reversed rows through the terms of the
  modulus or of its Barrett factor.
* over_xw_rows, mulmod_rows and row_stage run a pipeline stage one row
  at a time, each product through its own byte window table and reduced
  by long division, instead of the package's one packed int for all the
  rows, reduced by Barrett's quotient.
  row_stage inverts the active row with inv_mod_reference, extended
  Euclid with each remainder and its cofactor in ints of their own,
  instead of gf2.poly.inv_mod's one int for both.
* log_tables_per_entry builds the discrete-log tables one entry at a
  time, walking x's powers by one multiplication by x each, instead of
  confgen._log_tables's doublings on lanes of one int and its inverse
  permutation.
* fill_from_words packs each word into its fill vector one bit at a time,
  skipping the active row, instead of FillBits.from_words's two masks.
* dense_assemble forms C = Q * P * Q^{-1} with a full inverse, read off
  echelon_oracle's reduced form, and a full product, and reads the feedback
  rows back through extract_config, instead of the package's m row solves on
  one forward elimination of Q.  solve_row likewise solves on
  echelon_oracle's reduced form, not on the package's _solve_rows.
* dense_char_poly takes the characteristic polynomial of the built
  configuration matrix by elimination, instead of the package's
  Berlekamp-Massey certificate on a stepped sequence.
* row_certificate_bits steps the certificate's sequence on row vectors,
  e_top C^t for the built configuration matrix C (top = (b-1)m), and
  reads bit top, instead of config_char_poly's Galois step through the
  byte-lane tables of L.
* echelon_oracle eliminates one column at a time, xoring each pivot row
  into the rows at once, instead of the package's _echelon, which clears
  blocks of columns through a table of pivot-row combinations.
* compute_symbolic_config forms the whole symbolic C = Q * P * adj(Q)
  from all n^2 minors (sym_adjugate_inverse) and a symbolic matrix
  product (sym_mat_mul), instead of the package's theorem1_check, which
  takes the one entry it reads as a single replaced-row determinant;
  verify_minor_lemmas takes only the minors it checks.
* The randomness-battery oracles work one block or one bit at a time:
  words_to_bits shifts out each bit of each word, block_linear_complexities
  runs the single-sequence berlekamp_massey per block, longest_runs scans
  each block bit by bit, and matrix_ranks sums each row's bits into a
  Python int and takes rank per matrix, instead of the package's unpackbits,
  bit-sliced Berlekamp-Massey, shifted-AND runs and batched elimination.
  walk_partial_sums widens each step to an int32 and sums them all, and
  runs_v compares each bit with the next, instead of the package's 16-bit
  walk tables and its popcount of X ^ X >> 1; cusum_p_full sums every
  term of the cumulative-sums p-value, where the package leaves out the
  terms that are exactly 0.0.
* serial_stats and apen_stats count the windows afresh for every m the
  statistic needs (psi_sq and apen_phi), instead of the package's one
  count at the largest m folded down to the smaller ones.

The package has no production use for the matrix helpers at the end of
this file (companion_matrix, krylov_matrix, solve_row, linear_complexity,
reciprocal, build_transition_matrix, extract_config, identity, zeros,
build_alpha_matrices, gd_closure, from_bits, to_bits, stacked,
state_from_stacked, sym_from_rows, sym_eval) nor for the ANF helpers
anf (a polynomial from tuples of variable indices) and anf_eval (its
value at an assignment); they serve the oracles above and the tests.
Every matrix here, as in the package, is its list of row ints, and every
ANF polynomial the frozenset of its monomial masks (bit v-1 is x_v).
"""

from __future__ import annotations

import sympy

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# canonical AES S-box (FIPS-197 constant)

AES_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)

# ---------------------------------------------------------------------------
# F_{2^8} arithmetic in both cipher fields

BETA_POLY = 0x1A9  # x^8 + x^7 + x^5 + x^3 + 1 (the LFSR byte field)
AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1 (the S-box byte field)


def gf8_mul(a: int, b: int, poly: int) -> int:
    acc = 0
    for i in range(8):
        if (b >> i) & 1:
            acc ^= a << i
    for i in range(14, 7, -1):
        if (acc >> i) & 1:
            acc ^= (poly | 0x100) << (i - 8)
    return acc


def gf8_pow(a: int, e: int, poly: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf8_mul(r, a, poly)
        a = gf8_mul(a, a, poly)
        e >>= 1
    return r


BETA = 0x02
# G_S(x) = x^4 + b^23 x^3 + b^245 x^2 + b^48 x + b^239
GS = tuple(gf8_pow(BETA, e, BETA_POLY) for e in (23, 245, 48, 239))


# ---------------------------------------------------------------------------
# F_{2^32} = F_{2^8}[x] / G_S, elements as (c3, c2, c1, c0)

def f32_mul(u: tuple, v: tuple) -> tuple:
    """Full polynomial product of two cubics, reduced mod G_S."""
    prod = [0] * 7  # degree 6 down to 0, prod[i] = coeff of x^(6-i)
    for i in range(4):
        for j in range(4):
            prod[i + j] ^= gf8_mul(u[i], v[j], BETA_POLY)
    # reduce: x^4 = GS[0] x^3 + GS[1] x^2 + GS[2] x + GS[3]
    for i in range(3):  # kill x^6, x^5, x^4
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(4):
                prod[i + 1 + j] ^= gf8_mul(c, GS[j], BETA_POLY)
    return tuple(prod[3:])


def f32_pow(u: tuple, e: int) -> tuple:
    r = (0, 0, 0, 1)
    while e:
        if e & 1:
            r = f32_mul(r, u)
        u = f32_mul(u, u)
        e >>= 1
    return r


ALPHA = (0, 0, 1, 0)
ALPHA_INV = f32_pow(ALPHA, 2**32 - 2)


def word_to_vec(w: int) -> tuple:
    return ((w >> 24) & 0xFF, (w >> 16) & 0xFF, (w >> 8) & 0xFF, w & 0xFF)


def vec_to_word(v: tuple) -> int:
    return (v[0] << 24) | (v[1] << 16) | (v[2] << 8) | v[3]


def ref_alpha_mul(w: int) -> int:
    return vec_to_word(f32_mul(word_to_vec(w), ALPHA))


def ref_alpha_inv_mul(w: int) -> int:
    return vec_to_word(f32_mul(word_to_vec(w), ALPHA_INV))


# ---------------------------------------------------------------------------
# word-level SNOW 2.0

_MC_ROWS = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))


def ref_sbox_lane(k: int) -> list[int]:
    """T_k[b] for every byte b: byte k of the S-box input alone, SubBytes
    then column k of MixColumn, so S(w) is the xor of T_k[byte k of w]."""
    return [
        sum(gf8_mul(_MC_ROWS[pos][k], s, AES_POLY) << (8 * pos) for pos in range(4))
        for s in AES_SBOX
    ]


def ref_sbox(w: int) -> int:
    s = [AES_SBOX[(w >> (8 * k)) & 0xFF] for k in range(4)]
    out = 0
    for pos in range(4):
        acc = 0
        for lane in range(4):
            acc ^= gf8_mul(_MC_ROWS[pos][lane], s[lane], AES_POLY)
        out |= acc << (8 * pos)
    return out


class Snow2Ref:
    """Reference SNOW 2.0 keystream generator (lists of words, no matrices)."""

    def __init__(self, key: list[int], iv: list[int]):
        inv = [w ^ MASK32 for w in key]
        iv0, iv1, iv2, iv3 = iv
        if len(key) == 8:
            k = key
            high = [
                k[0], k[1] ^ iv3, k[2] ^ iv2, k[3],
                k[4] ^ iv1, k[5], k[6], k[7] ^ iv0,
            ]
            s = inv + high
        elif len(key) == 4:
            k = key
            s = [
                inv[0], inv[1], inv[2], inv[3],
                k[0], k[1], k[2], k[3],
                inv[0], inv[1] ^ iv3, inv[2] ^ iv2, inv[3],
                k[0] ^ iv1, k[1], k[2], k[3] ^ iv0,
            ]
        else:
            raise ValueError("key must be 4 or 8 words")
        self.s = s  # s[0] oldest ... s[15] newest
        self.r1 = 0
        self.r2 = 0
        self.init_f = []
        for _ in range(32):
            f = self._fsm_clock()
            self.init_f.append(f)
            self._lfsr_clock(f)

    def _fsm_clock(self) -> int:
        f = ((self.s[15] + self.r1) & MASK32) ^ self.r2
        r1_new = (self.s[5] + self.r2) & MASK32
        self.r1, self.r2 = r1_new, ref_sbox(self.r1)
        return f

    def _lfsr_clock(self, fold: int = 0) -> None:
        new = ref_alpha_mul(self.s[0]) ^ self.s[2] ^ ref_alpha_inv_mul(self.s[11])
        self.s = self.s[1:] + [new ^ fold]

    def keystream(self, n: int) -> list[int]:
        out = []
        for _ in range(n):
            f = self._fsm_clock()
            out.append(f ^ self.s[0])
            self._lfsr_clock()
        return out


# ---------------------------------------------------------------------------
# GF(2)[x] oracles on packed ints (bit i = coefficient of x^i)

_X = sympy.Symbol("x")


def _to_sympy(a: int):
    return sympy.Poly.from_list(
        [int(ch) for ch in format(a, "b")], _X, modulus=2
    )


def _from_sympy(p) -> int:
    out = 0
    for c in p.all_coeffs():  # highest degree first
        out = (out << 1) | (int(c) % 2)
    return out


def sympy_mul(a: int, b: int) -> int:
    return _from_sympy(_to_sympy(a) * _to_sympy(b))


def sympy_rem(a: int, m: int) -> int:
    return _from_sympy(_to_sympy(a).rem(_to_sympy(m)))


def long_division_mod(a: int, m: int) -> int:
    """a mod m, one shifted copy of m per leading bit of a."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def reverse_coords(v: int, w: int) -> int:
    """v with its w coordinates in reverse order, one bit at a time."""
    return sum(((v >> j) & 1) << (w - 1 - j) for j in range(w))


def field_embed(v: int, pc: int) -> int:
    """The pipeline's field map on a row v in standard coordinates.

    e_i maps to floor(p / x^(i+1)), so v maps to floor(p * rev(v) / x^w).
    """
    w = pc.bit_length() - 1
    u = reverse_coords(v, w)
    acc = 0
    for j in range(w + 1):
        if (pc >> j) & 1:
            acc ^= u << j
    return acc >> w


def long_division_quotient(a: int, m: int) -> int:
    """floor(a / m) in GF(2)[x], one quotient bit per leading bit of a."""
    q = 0
    while a.bit_length() >= m.bit_length():
        shift = a.bit_length() - m.bit_length()
        a ^= m << shift
        q |= 1 << shift
    return q


def triangular_unembed(g: int, pc: int) -> int:
    """Inverse of field_embed, one coordinate per top term of g."""
    w = pc.bit_length() - 1
    v = 0
    while g:
        i = w - g.bit_length()
        v |= 1 << i
        g ^= pc >> (i + 1)
    return v


def over_xw_rows(shifts: list[int], rows: list[int]) -> list[int]:
    """floor(c * u / x^w) for every u of degree below w = deg c, one row
    at a time: one shift and xor per shift w - e of c's terms x^e, e > 0."""
    out = []
    for u in rows:
        g = 0
        for s in shifts:
            g ^= u >> s
        out.append(g)
    return out


def mulmod_rows(rows: list[int], b: int, m: int) -> list[int]:
    """[a * b mod m for a in rows], one row at a time: a byte window
    table of b from degree 32 of m on, one shifted copy of a per term of b
    below, then long division (long_division_mod)."""
    from kdfc_snow.gf2.poly import exponents

    d = m.bit_length() - 1
    tab = None
    if d < 32:
        shifts = exponents(b)
    else:
        tab = [0, b]
        for j in range(1, 128):
            t = tab[j] << 1
            tab += (t, t ^ b)
    out = []
    for a in rows:
        acc = 0
        if tab is None:
            for s in shifts:
                acc ^= a << s
        else:
            for byte in a.to_bytes((a.bit_length() + 7) // 8, "big"):
                acc = (acc << 8) ^ tab[byte]
        out.append(long_division_mod(acc, m))
    return out


def inv_mod_reference(a: int, m: int) -> int:
    """gf2.poly.inv_mod with remainders and cofactors in separate ints: one
    tuple swap per division step, two shifted xors per quotient term.
    Same result and the same ZeroDivisionError messages; a must be >= 0."""
    if m == 0:
        raise ZeroDivisionError("modulus is the zero polynomial")
    r0, r1 = m, long_division_mod(a, m)
    s0, s1 = 0, 1  # Bezout coefficients for the second argument
    while r1:
        # one long-division step: r0 = q*r1 + r, tracked on the s side
        r, s = r0, s0
        dl = r1.bit_length()
        rl = r.bit_length()
        while rl >= dl:
            k = rl - dl
            r ^= r1 << k
            s ^= s1 << k
            rl = r.bit_length()
        r0, r1 = r1, r
        s0, s1 = s1, s
    if r0 != 1:
        raise ZeroDivisionError(f"not invertible: gcd has degree {r0.bit_length() - 1}")
    return s0


def row_stage(rows: list[int], i: int, p: int, fill: int) -> list[int]:
    """One pipeline stage on a list of reversed rows, each row through
    over_xw_rows and mulmod_rows on its own, then widened bit by bit:
    the per-row field route of confgen's packed stages."""
    from kdfc_snow.gf2.linalg import NoSolutionError

    m = len(rows)
    active = i % m
    w = p.bit_length() - 1
    mu = long_division_quotient(1 << (2 * w), p)
    shifts = [w - e for e in range(1, w + 1) if p >> e & 1]
    mu_shifts = [w - e for e in range(1, w + 1) if mu >> e & 1]
    g = over_xw_rows(shifts, rows)
    try:
        lam = inv_mod_reference(g[active], p)
    except ZeroDivisionError as exc:
        raise NoSolutionError(f"active row is zero or not cyclic: {exc}") from exc
    out = over_xw_rows(mu_shifts, mulmod_rows(g, lam, p))
    if out[active] != 1:
        raise NoSolutionError("active row did not land on e_1")
    pos = 0
    for t in range(m):
        if t != active:
            out[t] = (out[t] << 1) | ((fill >> pos) & 1)
            pos += 1
    return out


def log_tables_per_entry(p: int):
    """confgen._log_tables one entry at a time, as lists: embed and
    unembed tabled by doubling over the unit rows, x's powers walked one
    multiplication by x at a time, and to_log read through the embedding's
    table.  None where the walk returns to 1 early or not at all."""
    w = p.bit_length() - 1
    mu = long_division_quotient(1 << (2 * w), p)

    def linear_table(c: int) -> list[int]:
        """floor(c * u / x^w) for every u of w bits."""
        tab = [0] * (1 << w)
        for j in range(w):
            e = over_xw_rows([w - s for s in range(1, w + 1) if c >> s & 1], [1 << j])[0]
            for v in range(1 << j):
                tab[v | 1 << j] = tab[v] ^ e
        return tab

    unembed = linear_table(mu)
    order = (1 << w) - 1
    log = [0] * (order + 1)
    from_log = [0] * order
    t = 1
    for k in range(order):
        if k and t == 1:
            return None
        log[t] = k
        from_log[k] = unembed[t]
        t <<= 1
        if t >> w:
            t ^= p
    if t != 1:
        return None
    return [log[g] for g in linear_table(p)], from_log


def fill_from_words(m: int, words: list[int], first_iteration: int) -> list[int]:
    """FillBits.from_words's vectors: bit t of each word goes to the next
    fill position unless t is the active row (first_iteration + offset) % m."""
    vectors = []
    for offset, w in enumerate(words):
        active = (first_iteration + offset) % m
        v = 0
        pos = 0
        for t in range(m):
            if t == active:
                continue
            v |= ((w >> t) & 1) << pos
            pos += 1
        vectors.append(v)
    return vectors


# ---------------------------------------------------------------------------
# linear-algebra oracles

def char_poly_sympy(rows: list[int], n: int) -> int:
    """Characteristic polynomial mod 2 of a bit-packed matrix, as an int."""
    m = sympy.Matrix(n, n, lambda i, j: (rows[i] >> j) & 1)
    poly = m.charpoly()
    coeffs = poly.all_coeffs()  # highest degree first
    out = 0
    for c in coeffs:
        out = (out << 1) | (int(c) & 1)
    return out


def gf2_matmul_numpy(a_rows: list[int], b_rows: list[int], an: int, bn: int):
    """Product of bit-packed matrices via numpy ints mod 2, bit-packed.

    an is the column count of A (= row count of B), bn of B.
    """
    import numpy as np

    a = np.array([[(r >> j) & 1 for j in range(an)] for r in a_rows], dtype=np.int64)
    b = np.array([[(r >> j) & 1 for j in range(bn)] for r in b_rows], dtype=np.int64)
    c = (a @ b) % 2
    return [int(sum(int(c[i, j]) << j for j in range(bn))) for i in range(len(a_rows))]


def krylov_lambda(c_row: int, a, n: int):
    """Second route for the pipeline's Lambda: solve y K = e_1, sum y_j A^j.

    K is the Krylov matrix with rows c, cA, cA^2, ...; the result is the
    rows of Lambda = sum_j y_j A^j with c Lambda = e_1 (top coordinate
    convention of the pipeline: e_1 = 1 << (n - 1)).
    """
    from kdfc_snow.gf2.linalg import mat_mul, mat_vec_mul

    rows = []
    v = c_row
    for _ in range(n):
        rows.append(v)
        v = mat_vec_mul(v, a)
    y = solve_row(rows, 1 << (n - 1))
    lam_rows = [0] * n
    power = identity(n)
    for j in range(n):
        if (y >> j) & 1:
            lam_rows = [lr ^ pr for lr, pr in zip(lam_rows, power)]
        power = mat_mul(power, a)
    return lam_rows


def dense_assemble(q, p, m: int):
    """The configuration C = Q * companion(p) * Q^{-1}, with C formed in full.

    Q^{-1} is read off echelon_oracle's reduced row echelon form of Q with
    an identity tracker: the low part ends a permutation of identity rows.
    """
    from kdfc_snow.gf2.linalg import SingularMatrixError, companion_vec_mul, mat_mul

    n = len(q)
    work = [r | 1 << (n + i) for i, r in enumerate(q)]
    pivots = echelon_oracle(work, n)
    if len(pivots) < n:
        raise SingularMatrixError("Q is singular")
    inv = [0] * n
    for col, i in pivots:
        inv[col] = work[i] >> n
    qp = [companion_vec_mul(r, p) for r in q]
    return extract_config(mat_mul(qp, inv), m)


def dense_char_poly(cfg):
    """Characteristic polynomial of the built configuration matrix."""
    from kdfc_snow.gf2.linalg import char_poly
    from kdfc_snow.sigma_lfsr import build_config_matrix

    return char_poly(build_config_matrix(cfg))


def row_certificate_bits(cfg) -> list[int]:
    """The 2mb bits config_char_poly certifies: (C^t)_{top,top}, top = (b-1)m.

    The Galois map is the configuration matrix C with its blocks in
    reverse order, so bit 0 of e_0 G^t is bit top of e_top C^t.
    """
    from kdfc_snow.gf2.linalg import mat_vec_mul
    from kdfc_snow.sigma_lfsr import build_config_matrix

    c = build_config_matrix(cfg)
    top = (cfg.b - 1) * cfg.m
    bits, v = [], 1 << top
    for _ in range(2 * cfg.m * cfg.b):
        bits.append((v >> top) & 1)
        v = mat_vec_mul(v, c)
    return bits


# ---------------------------------------------------------------------------
# sigma-LFSR stepping oracles

def gain_tables(gains) -> list:
    """Each gain B_i (its m rows) as byte tables for lfsr_step, or None when
    B_i is zero (13 of SNOW 2.0's 16 gains): table j maps byte j of a word
    to the xor of the rows 8j..8j+7 it selects, one doubling per row."""
    tables = []
    for g in gains:
        if not any(g):
            tables.append(None)
            continue
        lanes = []
        for base in range(0, len(g), 8):
            table = [0]
            for row in g[base : base + 8]:
                table += [t ^ row for t in table]
            lanes.append(table)
        tables.append(lanes)
    return tables


def lfsr_step(tables, words):
    """One shift of words x_n..x_{n+b-1} under gains B_0..B_{b-1}, given as
    gain_tables(gains): (new words, output word x_n).  A word wider than m
    bits finds no table entry and raises IndexError."""
    from kdfc_snow.gf2.linalg import DimensionError

    if len(words) != len(tables):
        raise DimensionError("state and configuration dimensions differ")
    feedback = 0
    for w, lanes in zip(words, tables):
        if lanes is not None:
            lane = 0
            while w:
                feedback ^= lanes[lane][w & 0xFF]
                w >>= 8
                lane += 1
    return words[1:] + [feedback], words[0]


def orbit_of(cfg, words) -> list[int]:
    """Stacked states visited from seed words until they recur, via the transition matrix."""
    from kdfc_snow.gf2.linalg import mat_vec_mul

    t = build_transition_matrix(cfg)
    start = stacked(words, cfg.m)
    orbit = [start]
    v = mat_vec_mul(start, t)
    while v != start:
        orbit.append(v)
        v = mat_vec_mul(v, t)
    return orbit


def nibble_hex(v: int, length: int) -> str:
    """v as ceil(length/4) hex digits, least significant nibble first."""
    return "".join("0123456789abcdef"[v >> 4 * k & 0xF] for k in range((length + 3) // 4))


def nibble_from_hex(s: str) -> int:
    """Inverse of nibble_hex: digit k is nibble k."""
    v = 0
    for k, ch in enumerate(s):
        v |= "0123456789abcdef".index(ch.lower()) << 4 * k
    return v


def clock_oracle(key, iv, cfg, n):
    """SNOW 2.0 clocks on word lists: (32 init F words, first n keystream words)."""
    from kdfc_snow.snow2 import fsm_step, load_state_words

    tables = gain_tables(cfg.gains())
    s = load_state_words(key, iv)
    fsm = [0, 0]
    init_f = []
    for _ in range(32):
        fsm, f = fsm_step(fsm, s[5], s[15])
        init_f.append(f)
        s, _ = lfsr_step(tables, s)
        s[15] ^= f
    return init_f, keystream_oracle(cfg, s, fsm, n)[0]


def keystream_oracle(cfg, s, fsm, n):
    """n keystream clocks from LFSR words s and FSM pair fsm: (words, s, fsm)."""
    from kdfc_snow.snow2 import fsm_step

    tables = gain_tables(cfg.gains())
    words = []
    for _ in range(n):
        fsm, f = fsm_step(fsm, s[5], s[15])
        s, out = lfsr_step(tables, s)
        words.append(f ^ out)
    return words, s, fsm


def echelon_oracle(rows: list[int], ncols: int, reduce_up: bool = True):
    """Row echelon form one column at a time; the pivot list, as _echelon.

    For each column left to right, the first remaining row with a set bit
    in that column is swapped to the next rank position and xored into
    every other row with that bit (every row below it; every row with
    reduce_up).  Same pivot rule and same result as the package's
    _echelon, without its Four-Russians blocks and column skipping.
    """
    pivots = []
    nrows = len(rows)
    rank_ = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = None
        for i in range(rank_, nrows):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        prow = rows[rank_]
        rng = range(nrows) if reduce_up else range(rank_ + 1, nrows)
        for i in rng:
            if i != rank_ and rows[i] & bit:
                rows[i] ^= prow
        pivots.append((col, rank_))
        rank_ += 1
        if rank_ == nrows:
            break
    return pivots


# ---------------------------------------------------------------------------
# symbolic configuration in full

def sym_mat_mul(a, b):
    """Product of two symbolic matrices (rows of ANF polynomials), entry by entry."""
    from kdfc_snow.symbolic import ZERO, anf_mul

    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    out = []
    for ar in a:
        row = []
        for bc in zip(*b):
            acc = ZERO
            for x, y in zip(ar, bc):
                acc ^= anf_mul(x, y)
            row.append(acc)
        out.append(row)
    return out


def sym_adjugate_inverse(q):
    """adj(q): entry (i, j) is the minor of q without row j and column i
    (the inverse wherever det q = 1)."""
    from kdfc_snow.symbolic import _det_memo

    n = len(q)
    full = (1 << n) - 1
    memo = {}
    return [
        [_det_memo(q, full ^ (1 << j), full ^ (1 << i), memo) for j in range(n)]
        for i in range(n)
    ]


def compute_symbolic_config(m: int, b: int, p):
    """Symbolic C = Q * P * adj(Q) in the block order of build_symbolic_q."""
    from kdfc_snow.symbolic import _sym_companion_row_mul, build_symbolic_q

    q = build_symbolic_q(m, b, p)
    qp = [_sym_companion_row_mul(r, p) for r in q]
    return sym_mat_mul(qp, sym_adjugate_inverse(q))


def anf(*monomials):
    """The ANF polynomial whose monomials are the given tuples of 1-based
    variable indices: () is the constant 1, and a repeated index or
    monomial counts once."""
    return frozenset(sum(1 << (v - 1) for v in set(t)) for t in monomials)


def anf_eval(poly, bits: int) -> int:
    """Value of an ANF polynomial with x_v taken from bit v-1 of bits."""
    return sum(1 for t in poly if t & bits == t) & 1


def sym_eval(rows, bits: int):
    """Numeric specialization of a symbolic matrix at the variable bits:
    column c of each row maps to bit c-1 of its row int."""
    return [sum(anf_eval(entry, bits) << j for j, entry in enumerate(r)) for r in rows]


# ---------------------------------------------------------------------------
# randomness-battery oracles, one block or one bit at a time

def words_to_bits(words) -> list[int]:
    """Bits of each 32-bit word, most significant first."""
    return [(w >> (31 - j)) & 1 for w in words for j in range(32)]


def block_linear_complexities(blocks) -> list[int]:
    """Berlekamp-Massey linear complexity of each row, one row at a time."""
    from kdfc_snow.gf2.linalg import berlekamp_massey

    return [berlekamp_massey([int(b) for b in row]).bit_length() - 1 for row in blocks]


def longest_runs(blocks) -> list[int]:
    """Longest run of ones in each row, scanned bit by bit."""
    out = []
    for row in blocks:
        best = cur = 0
        for b in row:
            cur = cur + 1 if b else 0
            best = max(best, cur)
        out.append(best)
    return out


def matrix_ranks(mats) -> list[int]:
    """GF(2) rank of each matrix, its rows summed into Python ints."""
    from kdfc_snow.gf2.linalg import rank

    return [rank([sum(int(b) << j for j, b in enumerate(row)) for row in mat]) for mat in mats]


def walk_partial_sums(x):
    """The partial sums S_1..S_n of the +-1 walk of x: the steps widened to
    one int32 each (int64 from 2^31 bits), summed in place by np.cumsum."""
    import numpy as np

    s = x.astype(np.int32 if x.size < 1 << 31 else np.int64)
    s <<= 1
    s -= 1
    np.cumsum(s, out=s)
    return s


def cusum_p_full(n: int, z: int) -> float:
    """The cumulative-sums p-value, every term of both published k ranges."""
    import math

    from kdfc_snow.randtests import _phi

    sqrt_n = math.sqrt(n)
    total = 1.0
    for k in range(((-n // z) + 1) // 4, ((n // z) - 1) // 4 + 1):
        total -= _phi((4 * k + 1) * z / sqrt_n) - _phi((4 * k - 1) * z / sqrt_n)
    for k in range(((-n // z) - 3) // 4, ((n // z) - 1) // 4 + 1):
        total += _phi((4 * k + 3) * z / sqrt_n) - _phi((4 * k + 1) * z / sqrt_n)
    return total


def runs_v(x) -> int:
    """The runs test's V_n: one plus the count of x[i + 1] != x[i]."""
    return int((x[1:] != x[:-1]).sum()) + 1


def window_counts(x, m: int):
    """Counts of the 2^m overlapping m-bit windows of x (m <= x.size), with
    wraparound: one window index per bit, shifted in a bit at a time."""
    import numpy as np

    n = x.size
    idx = np.zeros(n, dtype=np.min_scalar_type((1 << m) - 1))
    for j in range(m):
        idx <<= 1
        idx[: n - j] |= x[j:]
        idx[n - j :] |= x[:j]  # the windows that wrap around
    return np.bincount(idx, minlength=1 << m)


def psi_sq(x, m: int) -> float:
    """psi^2_m of the serial test from a fresh m-bit window count (0 for m = 0)."""
    import numpy as np

    if m == 0:
        return 0.0
    counts = window_counts(x, m)
    return float((1 << m) / x.size * (counts.astype(np.float64) ** 2).sum() - x.size)


def serial_stats(x, m: int) -> dict:
    """The serial test's del1, del2 and p_value2, one window count per m."""
    from kdfc_snow.randtests import igamc

    psi_m, psi_m1, psi_m2 = (psi_sq(x, m - k) for k in range(3))
    d1 = psi_m - psi_m1
    d2 = psi_m - 2 * psi_m1 + psi_m2
    return {"del1": d1, "del2": d2, "p_value2": igamc(2.0 ** (m - 3), d2 / 2.0)}


def apen_phi(x, m: int) -> float:
    """sum of p log p over the m-bit window frequencies p (0 for m = 0)."""
    import numpy as np

    if m == 0:
        return 0.0
    counts = window_counts(x, m).astype(np.float64)
    nz = counts[counts > 0] / x.size
    return float((nz * np.log(nz)).sum())


def apen_stats(x, m: int) -> dict:
    """Approximate entropy's ApEn and chi2, one window count per m."""
    import math

    apen = apen_phi(x, m) - apen_phi(x, m + 1)
    return {"ApEn": apen, "chi2": 2.0 * x.size * (math.log(2.0) - apen)}


# ---------------------------------------------------------------------------
# matrix helpers used only by the oracles above and the tests

def from_bits(bits) -> list[int]:
    """Row ints from a list of 0/1 rows (bits[i][j] = entry i, j)."""
    return [sum((bit & 1) << j for j, bit in enumerate(row)) for row in bits]


def to_bits(a: list[int], ncols: int) -> list[list[int]]:
    """The 0/1 rows of ncols entries of the row ints a, from_bits' inverse."""
    return [[(r >> j) & 1 for j in range(ncols)] for r in a]


def stacked(words, m: int) -> int:
    """Words as one int, word i at bits [i*m, (i+1)*m)."""
    return sum(w << (i * m) for i, w in enumerate(words))


def state_from_stacked(m: int, b: int, v: int) -> list[int]:
    """The b words whose stacked(words, m) is v: word i from bits [i*m, (i+1)*m)."""
    mask = (1 << m) - 1
    return [(v >> (i * m)) & mask for i in range(b)]


def sym_from_rows(a: list[int], ncols: int):
    """Symbolic rows of ncols constant entries, column c from bit c-1 of each row."""
    from kdfc_snow.symbolic import ONE, ZERO

    return [
        [ONE if (r >> j) & 1 else ZERO for j in range(ncols)]
        for r in a
    ]


def companion_matrix(p):
    """Companion matrix P of a monic polynomial, row-vector convention.

    P has ones on the subdiagonal (P[j+1, j] = 1) and last column
    (c_0, ..., c_{b-1}) where p(x) = x^b + sum c_j x^j, so that
    (x_n, ..., x_{n+b-1}) * P = (x_{n+1}, ..., x_{n+b}).
    """
    b = p.bit_length() - 1
    if b < 1:
        raise ValueError("companion matrix needs degree >= 1")
    top = 1 << (b - 1)
    rows = []
    for i in range(b):
        r = (1 << (i - 1)) if i >= 1 else 0
        if (p >> i) & 1:
            r |= top
        rows.append(r)
    return rows


def krylov_matrix(c: int, a: list[int], k: int) -> list[int]:
    """Rows c, c*a, c*a^2, ..., c*a^(k-1) of the square a."""
    from kdfc_snow.gf2.linalg import DimensionError, mat_vec_mul, width

    if width(a) > len(a):
        raise DimensionError("Krylov iteration needs a square matrix")
    if c >> len(a):
        raise DimensionError("vector longer than matrix size")
    rows = []
    cur = c
    for _ in range(k):
        rows.append(cur)
        cur = mat_vec_mul(cur, a)
    return rows


def solve_row(m: list[int], v: int) -> int:
    """Solve ``y * m == v`` for a row vector y.

    Deterministic: free variables are fixed to 0 (the returned combination
    uses pivot rows only).  Raises NoSolutionError when v is outside the
    row space of m, a v wider than every row included.
    """
    from kdfc_snow.gf2.linalg import NoSolutionError, width

    ncols = max(width(m), v.bit_length())
    work = [r | (1 << (ncols + i)) for i, r in enumerate(m)]
    pivots = echelon_oracle(work, ncols)
    lowmask = (1 << ncols) - 1
    target = v
    y = 0
    for col, i in pivots:
        if (target >> col) & 1:
            target ^= work[i] & lowmask
            y ^= work[i] >> ncols
    if target:
        raise NoSolutionError("vector is outside the row space")
    return y


def linear_complexity(bits) -> int:
    """Length of the shortest LFSR generating the sequence (0 when empty)."""
    from kdfc_snow.gf2.linalg import berlekamp_massey

    return berlekamp_massey(bits).bit_length() - 1 if len(bits) else 0


def reciprocal(p):
    """x^deg(p) * p(1/x): the coefficient sequence reversed.

    Requires a nonzero constant term so the degree is preserved (otherwise
    the reversal would silently drop leading zeros).
    """
    if not p & 1:
        raise ValueError("reciprocal needs a nonzero constant term")
    return int(format(p, "b")[::-1], 2)


def build_transition_matrix(cfg):
    """State-update matrix: stacked_next = stacked * T for one step_stacked."""
    m, b = cfg.m, cfg.b
    n = m * b
    rows = [0] * n
    for i, g in enumerate(cfg.gains()):
        for r in range(m):
            acc = g[r] << ((b - 1) * m)
            if i > 0:
                # identity on the block sub-diagonal: block i shifts to i-1
                acc ^= 1 << ((i - 1) * m + r)
            rows[i * m + r] = acc
    return rows


class NotMCompanionError(ValueError):
    """A matrix lacks the block-companion structure of a sigma-LFSR."""


def extract_config(c: list[int], m: int):
    """Read the feedback rows off a configuration matrix; reject other structures."""
    from kdfc_snow.gf2.linalg import width
    from kdfc_snow.sigma_lfsr import SigmaConfig

    n = len(c)
    if width(c) > n:
        raise NotMCompanionError("matrix is not square")
    if m < 1 or n % m:
        raise NotMCompanionError(f"size {n} not a multiple of m={m}")
    b = n // m
    if b > 1:
        for j in range(b - 1):
            shift = (j + 1) * m
            for r in range(m):
                if c[j * m + r] != 1 << (shift + r):
                    raise NotMCompanionError(
                        f"block row {j} is not a super-diagonal identity block"
                    )
    return SigmaConfig(m, b, c[n - m:])


def identity(n: int) -> list[int]:
    """The rows of the n x n identity."""
    return [1 << i for i in range(n)]


def zeros(nrows: int) -> list[int]:
    """The rows of a zero matrix of nrows rows."""
    return [0] * nrows


def build_alpha_matrices():
    """Row-action matrices of alpha and alpha^{-1}: v*A = alpha*v."""
    from kdfc_snow.snow2 import alpha_inv_mul, alpha_mul

    return [alpha_mul(1 << r) for r in range(32)], [alpha_inv_mul(1 << r) for r in range(32)]


def gd_closure(tables, known: set[int]) -> set[int]:
    """Least fixed point: a row with one unknown determines that node."""
    from kdfc_snow.attacks import _Solver

    member, _, _ = _Solver(tables).run(known)
    return {v for v in range(tables.node_count) if member[v]}
