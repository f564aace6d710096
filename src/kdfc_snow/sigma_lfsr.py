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

Stepping goes by one of three routes on stacked states:

* step_stacked, one step, through byte tables built only for the nonzero
  gains (SNOW 2.0 has 3 of 16, so 12 lookups per step instead of 64; a
  dense configuration keeps all 16);
* b steps at once, through jump_tables: byte-lane tables of T^b, T the
  transition matrix, so v * T^b is mb/8 lookups.  The rows e_j * T^b come
  from a recurrence over the blocks (see SigmaConfig.jump_tables) that
  steps only the m top-block basis vectors b times, plus one step per
  other row.  The tables hold 256 mb-bit ints per byte of the state, about
  1.7 MB at mb = 512, so snow2 builds them only for a keystream call of at
  least JUMP_MIN words and then keeps them on the configuration;
* config_char_poly steps the transposed system z -> T z instead, m/8
  lookups per step in lane tables of the gain columns, not kept.

The per-object reference step, the row-stepped certificate sequence, the
transition matrix and the read-back of gains from a configuration matrix
live in tests/oracles.py.
"""

from __future__ import annotations

from kdfc_snow.gf2.linalg import BitMatrix, DimensionError
from kdfc_snow.gf2.poly import Gf2Poly

__all__ = [
    "SigmaConfig",
    "LfsrState",
    "NotMCompanionError",
    "PeriodGuardError",
    "build_config_matrix",
    "step_stacked",
    "period",
]

PERIOD_GUARD_BITS = 24


class NotMCompanionError(ValueError):
    """A matrix lacks the block-companion structure of a sigma-LFSR."""


class PeriodGuardError(ValueError):
    """Period search refused: state space too large or seed zero."""


class SigmaConfig:
    """Feedback configuration: word width m, block count b, gains B_0..B_{b-1}."""

    __slots__ = ("m", "b", "gains", "_byte_tables", "_jump_tables")

    def __init__(self, m: int, b: int, gains: list[BitMatrix]):
        if m < 1 or b < 1:
            raise DimensionError(f"need m, b >= 1, got m={m} b={b}")
        if len(gains) != b:
            raise DimensionError(f"expected {b} gain matrices, got {len(gains)}")
        for i, g in enumerate(gains):
            if g.nrows != m or g.ncols != m:
                raise DimensionError(
                    f"gain B_{i} is {g.nrows}x{g.ncols}, expected {m}x{m}"
                )
        self.m = m
        self.b = b
        self.gains = list(gains)
        self._byte_tables = None
        self._jump_tables = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SigmaConfig):
            return NotImplemented
        return self.m == other.m and self.b == other.b and self.gains == other.gains

    def __repr__(self) -> str:
        return f"SigmaConfig(m={self.m}, b={self.b})"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "b": self.b,
            "gains": [g.to_json() for g in self.gains],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SigmaConfig":
        gains = [BitMatrix.from_json(g) for g in obj["gains"]]
        return cls(int(obj["m"]), int(obj["b"]), gains)

    def byte_tables(self) -> list[tuple[int, list[list[int]]]]:
        """Byte-lane lookup tables for the nonzero gains, keyed by block shift.

        Each entry is (i*m, lanes) for a nonzero gain B_i, with
        lanes[lane][byte] = (byte << (8*lane) as a row selector) * B_i, so a
        feedback term x*B_i is four (or m/8) table lookups.  Built once and
        cached; gains are treated as immutable after construction.
        """
        if self._byte_tables is None:
            self._byte_tables = [
                (i * self.m, _lane_tables(g.rows))
                for i, g in enumerate(self.gains)
                if any(g.rows)
            ]
        return self._byte_tables

    def jump_tables(self) -> list[list[int]]:
        """Byte-lane lookup tables of T^b, T the transition matrix.

        lanes[k][byte] = (byte << 8k) * T^b on the stacked state, so the
        state b steps ahead (the next b words, as blocks) is the xor of
        mb/8 lookups.  The rows R_j = e_j * T^b come from a recurrence, not
        from stepping every basis vector b times: the m top-block rows are
        stepped b times each, and for j = i*m + r below the top block,
        e_{j+m} * T = e_j xor (B_{i+1}[r] << top) gives

            R_j = step(R_{j+m}) xor sum of R_{top+s} over the bits s of B_{i+1}[r],

        that sum being m/8 lookups in lane tables over the top rows.  Built
        once, on the first call, and cached (about 1.7 MB at mb = 512).
        """
        if self._jump_tables is None:
            m, b = self.m, self.b
            top = (b - 1) * m
            rows = [0] * (m * b)
            for r in range(m):
                v = 1 << (top + r)
                for _ in range(b):
                    v = step_stacked(self, v)
                rows[top + r] = v
            top_lanes = _lane_tables(rows[top:])
            for j in range(top - 1, -1, -1):
                v = step_stacked(self, rows[j + m])
                w = self.gains[j // m + 1].rows[j % m]
                for table in top_lanes:
                    v ^= table[w & 0xFF]
                    w >>= 8
                rows[j] = v
            self._jump_tables = _lane_tables(rows)
        return self._jump_tables


def _lane_tables(rows: list[int]) -> list[list[int]]:
    """Per 8-bit lane of a selector word: table[byte] = xor of the selected rows.

    rows[i] is the image of selector bit i; a lane of fewer than 8 rows
    (the last, when len(rows) is not a multiple of 8) gets a shorter table.
    Each row doubles its lane's table, one xor per new entry.
    """
    lanes = []
    for base in range(0, len(rows), 8):
        table = [0]
        for row in rows[base : base + 8]:
            table += [t ^ row for t in table]
        lanes.append(table)
    return lanes


class LfsrState:
    """Delay-block contents x_n..x_{n+b-1}, each an m-bit word."""

    __slots__ = ("m", "blocks")

    def __init__(self, m: int, blocks: list[int]):
        if m < 1:
            raise DimensionError("need m >= 1")
        mask = (1 << m) - 1
        for i, w in enumerate(blocks):
            if type(w) is not int:
                raise ValueError(f"block {i} is not an integer: {w!r}")
            if w < 0 or w & ~mask:
                raise ValueError(f"block {i} not an {m}-bit word: {w:#x}")
        self.m = m
        self.blocks = list(blocks)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def stacked(self) -> int:
        """All blocks as one mb-bit integer, block i at bits [i*m, (i+1)*m)."""
        acc = 0
        for i, w in enumerate(self.blocks):
            acc |= w << (i * self.m)
        return acc

    @classmethod
    def from_stacked(cls, m: int, b: int, v: int) -> "LfsrState":
        mask = (1 << m) - 1
        return cls(m, [(v >> (i * m)) & mask for i in range(b)])

    def copy(self) -> "LfsrState":
        return LfsrState(self.m, self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LfsrState):
            return NotImplemented
        return self.m == other.m and self.blocks == other.blocks


def build_config_matrix(cfg: SigmaConfig) -> BitMatrix:
    """mb x mb block matrix: identity super-diagonal, gains in last block row."""
    m, b = cfg.m, cfg.b
    n = m * b
    if b == 1:
        return cfg.gains[0].copy()
    rows = []
    for j in range(b - 1):
        # block row j: identity at block column j+1
        shift = (j + 1) * m
        rows.extend(1 << (shift + r) for r in range(m))
    for r in range(m):
        acc = 0
        for i, g in enumerate(cfg.gains):
            acc |= g.rows[r] << (i * m)
        rows.append(acc)
    return BitMatrix(rows, n)


def step_stacked(cfg: SigmaConfig, v: int) -> int:
    """One shift of a stacked mb-bit state, feedback via byte_tables."""
    m = cfg.m
    mask = (1 << m) - 1
    feedback = 0
    for shift, lanes in cfg.byte_tables():
        w = (v >> shift) & mask
        if w:
            for table in lanes:
                feedback ^= table[w & 0xFF]
                w >>= 8
    return (v >> m) | (feedback << ((cfg.b - 1) * m))


def period(cfg: SigmaConfig, s0: LfsrState) -> int:
    """Least t > 0 returning to the seed state; guarded to mb <= 24."""
    n = cfg.m * cfg.b
    if n > PERIOD_GUARD_BITS:
        raise PeriodGuardError(f"state space 2^{n} exceeds the 2^{PERIOD_GUARD_BITS} guard")
    start = s0.stacked()
    if start == 0:
        raise PeriodGuardError("zero seed is a fixed point; period undefined")
    v = step_stacked(cfg, start)
    t = 1
    while v != start:
        v = step_stacked(cfg, v)
        t += 1
    return t


def config_char_poly(cfg: SigmaConfig) -> Gf2Poly:
    """Characteristic polynomial of the configuration matrix.

    Certificate: the bits s_t = (T^t)_00, T the transition matrix, obey
    every polynomial that annihilates T, so their minimal polynomial f
    divides the minimal polynomial of T, which divides the degree-n
    characteristic polynomial (n = mb).  The sequence has linear
    complexity at most n, so Berlekamp-Massey on its first 2n terms
    returns f exactly (Massey 1969).  When f has degree n, the three are
    equal and f is the answer; this always holds when the characteristic
    polynomial is irreducible.  Otherwise (zero gains, a non-cyclic
    configuration, or e_0 not a cyclic vector) the dense char_poly of the
    configuration matrix decides.  s_t is bit 0 of T^t e_0 as well as of
    e_0 T^t, so the bits come from the transposed step z -> T z, which
    reads only the top block: m/8 lookups in lane tables of the gain
    columns V_c (bit i*m + r is B_i[r][c]), however dense the gains are.
    """
    from kdfc_snow.gf2.linalg import berlekamp_massey, char_poly

    m, n = cfg.m, cfg.m * cfg.b
    top, mask = n - m, (1 << n) - 1
    rows = "".join(format(r, f"0{m}b") for g in cfg.gains[::-1] for r in g.rows[::-1])
    lanes = _lane_tables([int(rows[m - 1 - c :: m], 2) for c in range(m)])
    bits, z = [], 1
    for _ in range(2 * n):
        bits.append(z & 1)
        w = z >> top
        z = (z << m) & mask
        for table in lanes:
            z ^= table[w & 0xFF]
            w >>= 8
    f = berlekamp_massey(bits)
    if f.degree == n:
        return f
    return char_poly(build_config_matrix(cfg))
