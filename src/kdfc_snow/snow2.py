"""SNOW 2.0 core: tower-field LFSR (as a sigma-LFSR), FSM, init, keystream.

Field tower.  Bytes live in F_{2^8} = F_2[beta] with
beta^8 = beta^7 + beta^5 + beta^3 + 1; 32-bit words encode elements of
F_{2^32} = F_{2^8}[alpha] with

    alpha^4 = beta^23 alpha^3 + beta^245 alpha^2 + beta^48 alpha + beta^239,

packed so that the most significant byte is the alpha^3 coefficient.  The
LFSR recurrence is s_{t+16} = alpha^{-1} s_{t+11} + s_{t+2} + alpha s_t,
realized here by gain matrices B_0 = mult-by-alpha, B_2 = I,
B_11 = mult-by-alpha^{-1} acting on row vectors.

FSM.  F = (s_{t+15} boxplus R1) xor R2; R1' = s_{t+5} boxplus R2;
R2' = S(R1), where S applies the AES S-box to each byte and then the AES
MixColumn matrix over the Rijndael byte field x^8 + x^4 + x^3 + x + 1
(low byte = first MixColumn row).

Initialization loads the key/IV schedule, then clocks 32 times with F
xored into the feedback and no output; the first keystream word is
produced by the very next clock.  Both phases, and KDFC-SNOW after its
configuration swap, run through the one clock loop _clock on the stacked
LFSR state.
"""

from __future__ import annotations

from kdfc_snow.gf2.linalg import BitMatrix
from kdfc_snow.gf2.poly import Gf2Poly, _mulmod_int, powmod
from kdfc_snow.sigma_lfsr import LfsrState, SigmaConfig, step_stacked

__all__ = [
    "FsmState",
    "CipherState",
    "KeyError32",
    "MASK32",
    "boxplus",
    "sbox_s",
    "alpha_mul",
    "alpha_inv_mul",
    "build_alpha_matrices",
    "snow2_gains",
    "fsm_step",
    "load_state_words",
    "snow2_init",
    "snow2_keystream",
]

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# byte fields: F_{2^8} = F_2[beta] / (x^8 + x^7 + x^5 + x^3 + 1) for the LFSR,
# the Rijndael field for the S-box; products are _mulmod_int(a, b, mod)

_BETA_POLY = 0x1A9  # x^8 + x^7 + x^5 + x^3 + 1
_AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def _fpow(a: int, e: int, mod: int) -> int:
    """a^e in the byte field F_2[x]/mod."""
    return powmod(Gf2Poly(a), e, Gf2Poly(mod)).coeffs


_BETA = 0x02
# alpha^4 coefficient row of G_S, highest power first
_G_COEFFS = tuple(_fpow(_BETA, e, _BETA_POLY) for e in (23, 245, 48, 239))

# ---------------------------------------------------------------------------
# multiplication by alpha / alpha^{-1} on packed words


def _pack(c3: int, c2: int, c1: int, c0: int) -> int:
    return (c3 << 24) | (c2 << 16) | (c1 << 8) | c0


_MUL_A = []
_MUL_AINV = []


def _build_alpha_tables() -> None:
    def times(c: int, coeffs: tuple[int, ...]) -> int:
        # c * (k3 alpha^3 + k2 alpha^2 + k1 alpha + k0), packed
        return _pack(*[_mulmod_int(c, k, _BETA_POLY) for k in coeffs])

    g3, g2, g1, g0 = _G_COEFFS
    for c in range(256):
        # c * alpha^4 reduced: c*(g3 a^3 + g2 a^2 + g1 a + g0)
        _MUL_A.append(times(c, _G_COEFFS))
    # alpha^{-1} = g0^{-1} (alpha^3 + g3 alpha^2 + g2 alpha + g1)
    i3 = _fpow(g0, 254, _BETA_POLY)
    i2, i1, i0 = (_mulmod_int(i3, g, _BETA_POLY) for g in (g3, g2, g1))
    for c in range(256):
        _MUL_AINV.append(times(c, (i3, i2, i1, i0)))


_build_alpha_tables()


def alpha_mul(w: int) -> int:
    """w * alpha in F_{2^32} (packed representation)."""
    return ((w << 8) & MASK32) ^ _MUL_A[w >> 24]


def alpha_inv_mul(w: int) -> int:
    """w * alpha^{-1} in F_{2^32}."""
    return (w >> 8) ^ _MUL_AINV[w & 0xFF]


def build_alpha_matrices() -> tuple[BitMatrix, BitMatrix]:
    """Row-action matrices of alpha and alpha^{-1}: v*A = alpha*v."""
    a = BitMatrix([alpha_mul(1 << r) for r in range(32)], 32)
    a_inv = BitMatrix([alpha_inv_mul(1 << r) for r in range(32)], 32)
    return a, a_inv


def snow2_gains() -> SigmaConfig:
    """The fixed SNOW 2.0 configuration: B_0 = alpha, B_2 = I, B_11 = alpha^{-1}.

    Returns a new object on every call; the key/IV set-ups share one copy.
    """
    a, a_inv = build_alpha_matrices()
    gains = [BitMatrix.zeros(32, 32) for _ in range(16)]
    gains[0] = a
    gains[2] = BitMatrix.identity(32)
    gains[11] = a_inv
    return SigmaConfig(32, 16, gains)


# ---------------------------------------------------------------------------
# S-box: AES SubBytes on each byte, then AES MixColumn (Rijndael field)


def _aes_sbox_table() -> list[int]:
    table = []
    for v in range(256):
        # multiplicative inverse (0 -> 0), then the AES affine transform
        inv = 0 if v == 0 else _fpow(v, 254, _AES_POLY)
        out = 0x63
        for i in range(8):
            bit = 0
            for k in (0, 4, 5, 6, 7):
                bit ^= (inv >> ((i + k) % 8)) & 1
            out ^= bit << i
        table.append(out)
    return table


_SR = _aes_sbox_table()

# Combined SubBytes+MixColumn lookup per byte lane: lane k feeds MixColumn
# input position k (low byte = position 0 = first row of the matrix).
_STAB = []


def _build_stables() -> None:
    rows = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
    for lane in range(4):
        t = []
        for v in range(256):
            s = _SR[v]
            word = 0
            for out_pos in range(4):
                word |= _mulmod_int(rows[out_pos][lane], s, _AES_POLY) << (8 * out_pos)
            t.append(word)
        _STAB.append(t)


_build_stables()


def sbox_s(w: int) -> int:
    """SNOW 2.0 32-bit S-box S(w)."""
    return (
        _STAB[0][w & 0xFF]
        ^ _STAB[1][(w >> 8) & 0xFF]
        ^ _STAB[2][(w >> 16) & 0xFF]
        ^ _STAB[3][w >> 24]
    )


def boxplus(x: int, y: int) -> int:
    """Addition modulo 2^32."""
    return (x + y) & MASK32


# ---------------------------------------------------------------------------
# FSM / cipher state


class FsmState:
    """The two FSM registers."""

    __slots__ = ("r1", "r2")

    def __init__(self, r1: int = 0, r2: int = 0):
        ints = type(r1) is type(r2) is int
        if not (ints and 0 <= r1 <= MASK32 and 0 <= r2 <= MASK32):
            raise ValueError("FSM registers must be 32-bit words")
        self.r1 = r1
        self.r2 = r2

    def copy(self) -> "FsmState":
        return FsmState(self.r1, self.r2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FsmState):
            return NotImplemented
        return (self.r1, self.r2) == (other.r1, other.r2)


class CipherState:
    """LFSR blocks + FSM registers + the active feedback configuration."""

    __slots__ = ("lfsr", "fsm", "cfg")

    def __init__(self, lfsr: LfsrState, fsm: FsmState, cfg: SigmaConfig):
        if lfsr.m != cfg.m or lfsr.b != cfg.b:
            raise ValueError("LFSR state does not match configuration dimensions")
        self.lfsr = lfsr
        self.fsm = fsm
        self.cfg = cfg


class KeyError32(ValueError):
    """Key/IV material has the wrong shape."""


def fsm_step(fsm: FsmState, d5: int, d15: int) -> tuple[FsmState, int]:
    """One FSM clock: returns (new registers, output F)."""
    f = (boxplus(d15, fsm.r1)) ^ fsm.r2
    return FsmState(boxplus(d5, fsm.r2), sbox_s(fsm.r1)), f


def load_state_words(key: list[int], iv: list[int]) -> list[int]:
    """Key/IV schedule: returns s_0..s_15 (s_15 = newest block)."""
    if len(iv) != 4:
        raise KeyError32(f"IV must be 4 words, got {len(iv)}")
    for w in key + iv:
        if not 0 <= w <= MASK32:
            raise KeyError32("key/IV entries must be 32-bit words")
    inv = [w ^ MASK32 for w in key]
    iv0, iv1, iv2, iv3 = iv
    if len(key) == 8:
        k = key
        high = [k[0], k[1] ^ iv3, k[2] ^ iv2, k[3], k[4] ^ iv1, k[5], k[6], k[7] ^ iv0]
        return inv + high
    if len(key) == 4:
        k = key
        return [
            inv[0], inv[1], inv[2], inv[3],
            k[0], k[1], k[2], k[3],
            inv[0], inv[1] ^ iv3, inv[2] ^ iv2, inv[3],
            k[0] ^ iv1, k[1], k[2], k[3] ^ iv0,
        ]
    raise KeyError32(f"key must be 4 or 8 words, got {len(key)}")


_snow2_cfg: SigmaConfig | None = None


def snow2_init(key: list[int], iv: list[int], cfg: SigmaConfig | None = None) -> CipherState:
    """Load the schedule and clock 32 init rounds (F folded into feedback).

    Returns the state from which the first keystream word follows
    immediately.  init_with_captures exposes the per-round F words.
    """
    state, _ = init_with_captures(key, iv, cfg)
    return state


def init_with_captures(
    key: list[int], iv: list[int], cfg: SigmaConfig | None = None
) -> tuple[CipherState, list[int]]:
    """snow2_init variant that also returns the 32 init-round F outputs.

    Without cfg, the SNOW 2.0 configuration is built once per process and
    shared, byte tables included, by every state it initializes.
    """
    global _snow2_cfg
    if cfg is None:
        if _snow2_cfg is None:
            _snow2_cfg = snow2_gains()
        cfg = _snow2_cfg
    if cfg.m != 32 or cfg.b != 16:
        raise ValueError("SNOW 2.0 initialization needs a 32x16 configuration")
    v = LfsrState(32, load_state_words(key, iv)).stacked()
    v, fsm, captures = _clock(cfg, v, FsmState(0, 0), 32, True)
    return CipherState(LfsrState.from_stacked(32, 16, v), fsm, cfg), captures


def snow2_keystream(state: CipherState, n: int) -> list[int]:
    """Produce n keystream words, advancing the state in place."""
    if n < 0:
        raise ValueError("need n >= 0")
    cfg = state.cfg
    v, state.fsm, out = _clock(cfg, state.lfsr.stacked(), state.fsm, n, False)
    state.lfsr = LfsrState.from_stacked(cfg.m, cfg.b, v)
    return out


def _clock(cfg: SigmaConfig, v: int, fsm: FsmState, n: int, init: bool):
    """Clock n times from stacked LFSR state v; returns (v, fsm, words).

    With init set, F is xored into the new top block and the words are the
    F values; otherwise the words are keystream F xor s_t.
    """
    # module globals, read per call so that wrappers installed on them apply
    fsm_clock, step = fsm_step, step_stacked
    m = cfg.m
    mask = (1 << m) - 1
    d5_shift = 5 * m
    top = (cfg.b - 1) * m
    words = []
    for _ in range(n):
        fsm, f = fsm_clock(fsm, (v >> d5_shift) & mask, (v >> top) & mask)
        if init:
            words.append(f)
            v = step(cfg, v) ^ (f << top)
        else:
            words.append(f ^ (v & mask))
            v = step(cfg, v)
    return v, fsm, words
