"""Word-oriented LFSR with matrix feedback gains (sigma-LFSR).

A sigma-LFSR has ``b`` delay blocks, each holding an m-bit word, and m x m
gain matrices B_0..B_{b-1} over GF(2).  One step shifts the blocks down and
feeds back

    x_{n+b} = sum_i x_{n+i} * B_i        (row vector times matrix)

The configuration matrix packs the gains in companion-like block form
(identity blocks on the block super-diagonal, gains across the last block
row); the state-update (transition) matrix is its block transpose with the
gains kept unturned, so that stacking the blocks into one mb-bit row vector
and multiplying by it reproduces one step.  Characteristic polynomials agree
between the two layouts, so either may be fed to char_poly.

Words use the package bit order: bit i of a word is its coefficient of 2^i,
and stacked state vectors place block i at bit positions [i*m, (i+1)*m).
A SigmaConfig is the last block row of its configuration matrix, m
feedback rows of mb bits, row r holding row r of B_i in block i.  Like
every matrix in the package (gf2.linalg), a gain is its list of m row
ints, and gains appear only in the JSON form.

Stepping goes through the observer-form (Galois) realization of the same
recurrence.  Its state z holds, in block k, the partial feedback

    z_k = sum_{i <= b-1-k} x_{t+k+i} * B_i,

so block 0 is the next word x_{t+b}.  One clock reads that word and feeds
it back through every gain at once:

    x = z & mask;  z = (z >> m) ^ L(x),  L(x) = sum_k (x * B_{b-1-k}) << km,

which is ceil(m/8) lookups (4 at m = 32) in the byte-lane tables of L
(SigmaConfig.byte_tables), however dense the gains are.  The Galois
state of a window x_t..x_{t+b-1} is sum_j L(x_{t+j}) >> (b-1-j)m, the
same clock fed with the window's words (galois_state).  The keystream
(snow2), period, the one-step step_stacked, the char-poly certificate and
the verify check (annihilates) all use these tables.

The per-object reference step, the certificate sequence stepped on the
configuration matrix, the transition matrix and the read-back of gains
from a configuration matrix live in tests/oracles.py.
"""

from __future__ import annotations

from itertools import islice

from kdfc_snow.gf2.linalg import (
    MATRIX_SHAPE, DimensionError, berlekamp_massey, char_poly, check_dims,
    check_int, check_shape, matrix_from_json, matrix_to_json, rank, width,
)

__all__ = [
    "SigmaConfig",
    "PeriodGuardError",
    "annihilates",
    "build_config_matrix",
    "config_char_poly",
    "galois_state",
    "step_stacked",
    "period",
]

PERIOD_GUARD_BITS = 24

#: the JSON shape of a configuration as SigmaConfig.to_json writes it
CONFIG_SHAPE = {"m": int, "b": int, "gains": [MATRIX_SHAPE]}


class PeriodGuardError(ValueError):
    """Period search refused: state space too large or seed zero."""


class SigmaConfig:
    """Feedback configuration: word width m, block count b, and the m
    feedback rows, the last block row of the configuration matrix.

    Row r holds row r of gain B_i at bits [i*m, (i+1)*m).  Gain matrices,
    each a list of m row ints of m bits, appear only in the JSON
    documents: gains() splits the rows into them and from_gains joins
    them back.
    """

    __slots__ = ("m", "b", "rows", "_byte_tables")

    def __init__(self, m: int, b: int, rows: list[int]):
        check_dims(m, b)
        if len(rows) != m:
            raise DimensionError(f"expected {m} feedback rows, got {len(rows)}")
        n = m * b
        for r, row in enumerate(rows):
            if type(row) is not int:
                raise ValueError(f"feedback row {r} is not an integer: {row!r}")
            if row < 0 or row >> n:
                raise DimensionError(f"feedback row {r} is not an {n}-bit row")
        self.m = m
        self.b = b
        self.rows = list(rows)
        self._byte_tables = None

    @classmethod
    def from_gains(cls, m: int, b: int, gains: list[list[int]]) -> "SigmaConfig":
        """The configuration of b m x m gains B_0..B_{b-1}, lists of m rows."""
        check_dims(m, b)
        if len(gains) != b:
            raise DimensionError(f"expected {b} gain matrices, got {len(gains)}")
        for i, g in enumerate(gains):
            if len(g) != m or width(g) > m:
                raise DimensionError(
                    f"gain B_{i} is {len(g)}x{width(g)}, expected {m}x{m}"
                )
        rows = [0] * m
        for i, g in enumerate(gains):
            for r, row in enumerate(g):
                rows[r] |= row << (i * m)
        return cls(m, b, rows)

    def gains(self) -> list[list[int]]:
        """The gain matrices B_0..B_{b-1}, B_i from block i of every row."""
        m, mask = self.m, (1 << self.m) - 1
        return [[row >> (i * m) & mask for row in self.rows] for i in range(self.b)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SigmaConfig):
            return NotImplemented
        return self.m == other.m and self.b == other.b and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SigmaConfig(m={self.m}, b={self.b})"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "b": self.b,
            "gains": [matrix_to_json(g, self.m) for g in self.gains()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SigmaConfig":
        check_shape(obj, CONFIG_SHAPE, "configuration")
        m, b = obj["m"], obj["b"]
        check_dims(m, b)
        gains = [matrix_from_json(g, (m, m), f"gain B_{i}") for i, g in enumerate(obj["gains"])]
        return cls.from_gains(m, b, gains)

    def byte_tables(self) -> list[list[int]]:
        """Byte-lane lookup tables of the Galois feedback L.

        lanes[lane][byte] = L(byte << 8*lane), where L(x) is the mb-bit
        int holding x * B_{b-1-k} in block k, so L of an m-bit word is the
        xor of ceil(m/8) lookups; the last lane is narrower when 8 does not
        divide m.  L(e_r) is feedback row r with its blocks reversed, and
        each L(e_r) doubles its lane's table, one xor per new entry.  Built
        once and cached; rows are treated as immutable after construction.
        """
        if self._byte_tables is None:
            m, b = self.m, self.b
            mask = (1 << m) - 1
            rows = []
            for row in self.rows:
                acc = 0
                for _ in range(b):
                    acc = acc << m | row & mask
                    row >>= m
                rows.append(acc)
            self._byte_tables = []
            for base in range(0, m, 8):
                table = [0]
                for row in rows[base : base + 8]:
                    table += [t ^ row for t in table]
                self._byte_tables.append(table)
        return self._byte_tables


def _check_words(words: list[int], m: int, b: int) -> None:
    """Refuse anything but b m-bit int words x_0..x_{b-1} (a bool is not an
    int here), in C-level passes; the loop runs only to name a bad word."""
    if len(words) != b:
        raise ValueError("LFSR state does not match configuration dimensions")
    if {*map(type, words)} == {int} and min(words) >= 0 and not max(words) >> m:
        return
    for i, w in enumerate(words):
        if type(w) is not int:
            raise ValueError(f"block {i} is not an integer: {w!r}")
        if w < 0 or w >> m:
            raise ValueError(f"block {i} not an {m}-bit word: {w:#x}")


def build_config_matrix(cfg: SigmaConfig) -> list[int]:
    """mb x mb block matrix: identity super-diagonal, feedback rows last."""
    n = cfg.m * cfg.b
    # block row j: identity at block column j+1
    return [1 << (cfg.m + i) for i in range(n - cfg.m)] + cfg.rows


def galois_state(cfg: SigmaConfig, words: list[int]) -> int:
    """Galois state of the window x_t..x_{t+b-1}, words oldest first.

    sum_j L(x_{t+j}) >> (b-1-j)m: the Galois clock from z = 0, fed the
    window's words; its block 0 is the feedback word x_{t+b}.
    """
    m = cfg.m
    lanes = cfg.byte_tables()
    z = 0
    for w in words:
        z >>= m
        for table in lanes:
            z ^= table[w & 0xFF]
            w >>= 8
    return z


def _galois_clock(cfg: SigmaConfig, z: int):
    """The Galois states that follow z, one per clock, without end."""
    m, lanes = cfg.m, cfg.byte_tables()
    mask = (1 << m) - 1
    while True:
        x = z & mask
        z >>= m
        for table in lanes:
            z ^= table[x & 0xFF]
            x >>= 8
        yield z


def step_stacked(cfg: SigmaConfig, v: int) -> int:
    """One shift of a stacked mb-bit state, feedback via galois_state."""
    m, b = cfg.m, cfg.b
    mask = (1 << m) - 1
    feedback = galois_state(cfg, [(v >> (i * m)) & mask for i in range(b)]) & mask
    return (v >> m) | (feedback << ((b - 1) * m))


def period(cfg: SigmaConfig, words: list[int]) -> int:
    """Least t > 0 returning to the seed x_0..x_{b-1}; guarded to mb <= 24.

    The seed is b m-bit words, oldest first.  The step is a bijection
    exactly when B_0 is invertible; otherwise a seed need not recur, so a
    singular B_0 is refused before stepping.  The Galois state
    z = galois_state(cfg, seed) is clocked until it returns, and its
    period is the seed's: block k of z is sum_i x_{t+k+i} * B_i over the
    window's words from x_{t+k} on, so the map from a window to z is
    block-triangular with B_0 on its diagonal, a bijection exactly when
    B_0 is invertible, and one clock of z is one step of the window.
    """
    m, n = cfg.m, cfg.m * cfg.b
    if n > PERIOD_GUARD_BITS:
        raise PeriodGuardError(f"state space 2^{n} exceeds the 2^{PERIOD_GUARD_BITS} guard")
    _check_words(words, m, cfg.b)
    if not any(words):
        raise PeriodGuardError("zero seed is a fixed point; period undefined")
    mask = (1 << m) - 1
    if rank([row & mask for row in cfg.rows]) < m:
        raise PeriodGuardError("B_0 is singular: the step is not a bijection")
    start = galois_state(cfg, words)
    for t, z in enumerate(_galois_clock(cfg, start), 1):
        if z == start:
            return t


def _certificate(cfg: SigmaConfig) -> int:
    """The minimal polynomial f of the bits s_t = bit 0 of e_0 G^t.

    The Galois map G, z -> (z >> m) ^ L(z & mask), is the configuration
    matrix with its blocks in reverse order, so it has the same
    characteristic polynomial.  The s_t obey every polynomial that
    annihilates G, so f divides the minimal polynomial of G, which
    divides the degree-n characteristic polynomial (n = mb).  The
    sequence has linear complexity at most n, so Berlekamp-Massey on its
    first 2n terms returns f exactly (Massey 1969).  When f has degree n,
    the three are equal.  This always holds when the characteristic
    polynomial is irreducible: s_0 = 1, so f is a nonconstant factor of
    it.  Each step is ceil(m/8) lookups in the byte tables the keystream
    uses.
    """
    n = cfg.m * cfg.b
    return berlekamp_massey([1] + [z & 1 for z in islice(_galois_clock(cfg, 1), 2 * n - 1)])


def config_char_poly(cfg: SigmaConfig) -> int:
    """Characteristic polynomial of the configuration matrix.

    The certificate (_certificate) is the answer when it has degree mb.
    Otherwise (zero gains, a non-cyclic configuration, or e_0 not a
    cyclic vector) the dense char_poly of the configuration matrix
    decides.
    """
    f = _certificate(cfg)
    if f.bit_length() - 1 == cfg.m * cfg.b:
        return f
    return char_poly(build_config_matrix(cfg))


def annihilates(cfg: SigmaConfig, p: int) -> bool:
    """Whether e_0 p(G) = 0 for the Galois map G of cfg and a degree-mb p.

    Horner's rule on e_0 = 1: for each coefficient of p below the leading
    one, from the top down, acc = G(acc) ^ coefficient; mb clocks in the
    byte tables, no bit sequence and no Berlekamp-Massey.  G has the
    configuration's characteristic polynomial chi (see _certificate).

    For an irreducible p the result is exactly chi = p: the minimal
    polynomial of e_0 != 0 divides p, so it is p, and it divides chi,
    which has the same degree (Lidl and Niederreiter, Finite Fields,
    ch. 8).  For a reducible p it shows only that e_0's minimal
    polynomial divides p: over every row tuple at 2x2, 2x3, 1x5 and 1x6
    and every odd p, 6,960 (tuple, reducible p) pairs pass with chi != p,
    and none with an irreducible p.  A p whose degree is not mb raises
    DimensionError.
    """
    check_int("p", p, 0)
    m, n = cfg.m, cfg.m * cfg.b
    if p.bit_length() - 1 != n:
        raise DimensionError(f"polynomial degree {p.bit_length() - 1} != mb = {n}")
    lanes = cfg.byte_tables()
    mask = (1 << m) - 1
    acc = 1
    for c in bin(p)[3:]:
        x = acc & mask
        acc >>= m
        for table in lanes:
            acc ^= table[x & 0xFF]
            x >>= 8
        if c == "1":
            acc ^= 1
    return acc == 0
