"""SNOW 2.0 core: tower-field LFSR (as a sigma-LFSR), FSM, init, keystream.

Field tower.  Bytes live in F_{2^8} = F_2[beta] with
beta^8 = beta^7 + beta^5 + beta^3 + 1; 32-bit words encode elements of
F_{2^32} = F_{2^8}[alpha] with

    alpha^4 = beta^23 alpha^3 + beta^245 alpha^2 + beta^48 alpha + beta^239,

packed so that the most significant byte is the alpha^3 coefficient.  The
LFSR recurrence is s_{t+16} = alpha^{-1} s_{t+11} + s_{t+2} + alpha s_t,
realized here by gain matrices B_0 = mult-by-alpha, B_2 = I,
B_11 = mult-by-alpha^{-1} acting on row vectors.

FSM.  Two 32-bit registers, held as the list [R1, R2].
F = (s_{t+15} boxplus R1) xor R2; R1' = s_{t+5} boxplus R2;
R2' = S(R1), where S applies the AES S-box to each byte and then the AES
MixColumn matrix over the Rijndael byte field x^8 + x^4 + x^3 + x + 1
(low byte = first MixColumn row).

Initialization loads the key/IV schedule, then clocks 32 times with F
xored into the feedback and no output; the first keystream word is
produced by the very next clock.  Both phases, and KDFC-SNOW after its
configuration swap, run through one loop, _clock.  It keeps the LFSR in
its Galois form (see sigma_lfsr): the next word is the low block of z,
and feeding it back is 4 lookups in the configuration's byte tables,
sparse SNOW 2.0 gains or dense KDFC-SNOW ones alike.  Beside z it keeps
the plain list of words, from which the FSM reads s_{t+5} and s_{t+15}
and the output reads s_t.  A cipher state holds the last 16 words, so
each call rebuilds z from them (galois_state, 64 lookups).  The FSM and
the 8-hex-digit output are defined on 32-bit words and 16 blocks only,
so CipherState refuses any other configuration shape.
"""

from __future__ import annotations

import functools

from kdfc_snow.gf2.linalg import check_int
from kdfc_snow.gf2.poly import _mulmod_int
from kdfc_snow.sigma_lfsr import SigmaConfig, _check_words, galois_state

__all__ = [
    "CipherState",
    "KeyError32",
    "MASK32",
    "boxplus",
    "sbox_s",
    "alpha_mul",
    "alpha_inv_mul",
    "snow2_gains",
    "fsm_step",
    "load_state_words",
    "snow2_init",
    "snow2_keystream",
]

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# byte fields: F_{2^8} = F_2[beta] / (x^8 + x^7 + x^5 + x^3 + 1) for the LFSR,
# the Rijndael field for the S-box; each gets one log/antilog table pass

_BETA_POLY = 0x1A9  # x^8 + x^7 + x^5 + x^3 + 1
_AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def _log_tables(mod: int, gen: int) -> tuple[list[int], list[int]]:
    """(exp, log) of the byte field F_2[x]/mod over the generator gen.

    exp[i] = gen^i for i in [0, 510), so exp[log a + log b] = a * b needs
    no reduction mod 255; log[gen^i] = i for i in [0, 255).
    """
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x = _mulmod_int(x, gen, mod)
    return exp, log


_BETA_EXP, _BETA_LOG = _log_tables(_BETA_POLY, 0x02)  # beta = x generates
_AES_EXP, _AES_LOG = _log_tables(_AES_POLY, 0x03)  # x + 1 generates


def _times(a: int, b: int, exp: list[int], log: list[int]) -> int:
    """a * b in the byte field of (exp, log)."""
    return exp[log[a] + log[b]] if a and b else 0


# alpha^4 coefficient row of G_S, highest power first: beta^23, ...
_G_COEFFS = tuple(_BETA_EXP[e] for e in (23, 245, 48, 239))

# ---------------------------------------------------------------------------
# multiplication by alpha / alpha^{-1} on packed words


def _pack(c3: int, c2: int, c1: int, c0: int) -> int:
    return (c3 << 24) | (c2 << 16) | (c1 << 8) | c0


def _alpha_table(coeffs: tuple[int, ...]) -> list[int]:
    """c * (k3 alpha^3 + k2 alpha^2 + k1 alpha + k0), packed, for every byte c."""
    return [
        _pack(*[_times(c, k, _BETA_EXP, _BETA_LOG) for k in coeffs])
        for c in range(256)
    ]


def _alpha_inv_coeffs() -> tuple[int, ...]:
    """alpha^{-1} = g0^{-1} (alpha^3 + g3 alpha^2 + g2 alpha + g1)."""
    g3, g2, g1, g0 = _G_COEFFS
    i3 = _BETA_EXP[255 - _BETA_LOG[g0]]
    return (i3, *(_times(i3, g, _BETA_EXP, _BETA_LOG) for g in (g3, g2, g1)))


# c * alpha^4 reduced: c*(g3 a^3 + g2 a^2 + g1 a + g0)
_MUL_A = _alpha_table(_G_COEFFS)
_MUL_AINV = _alpha_table(_alpha_inv_coeffs())


def alpha_mul(w: int) -> int:
    """w * alpha in F_{2^32} (packed representation)."""
    return ((w << 8) & MASK32) ^ _MUL_A[w >> 24]


def alpha_inv_mul(w: int) -> int:
    """w * alpha^{-1} in F_{2^32}."""
    return (w >> 8) ^ _MUL_AINV[w & 0xFF]


def snow2_gains() -> SigmaConfig:
    """The fixed SNOW 2.0 configuration: B_0 = alpha, B_2 = I, B_11 = alpha^{-1}.

    Feedback row r is alpha * e_r in block 0, e_r in block 2 and
    alpha^{-1} * e_r in block 11.  Returns a new object on every call; the
    key/IV set-ups share one copy.
    """
    rows = [
        alpha_mul(1 << r) | 1 << (r + 64) | alpha_inv_mul(1 << r) << 352
        for r in range(32)
    ]
    return SigmaConfig(32, 16, rows)


# ---------------------------------------------------------------------------
# S-box: AES SubBytes on each byte, then AES MixColumn (Rijndael field)


def _aes_sbox_table() -> list[int]:
    table = []
    for v in range(256):
        # multiplicative inverse (0 -> 0), then the AES affine transform
        # b ^ rotl(b, 1) ^ rotl(b, 2) ^ rotl(b, 3) ^ rotl(b, 4) ^ 0x63
        inv = _AES_EXP[255 - _AES_LOG[v]] if v else 0
        out = 0x63
        for r in range(5):
            out ^= ((inv << r) | (inv >> (8 - r))) & 0xFF
        table.append(out)
    return table


_SR = _aes_sbox_table()

# Combined SubBytes+MixColumn lookup per byte lane: lane k feeds MixColumn
# input position k (low byte = position 0 = first row of the matrix).
_MIX_ROWS = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_STAB = [
    [
        sum(
            _times(_MIX_ROWS[pos][lane], s, _AES_EXP, _AES_LOG) << (8 * pos)
            for pos in range(4)
        )
        for s in _SR
    ]
    for lane in range(4)
]


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


class CipherState:
    """The 16 LFSR words s_t..s_{t+15} (a list, oldest first), the FSM
    registers [R1, R2] and the active feedback configuration."""

    __slots__ = ("lfsr", "fsm", "cfg")

    def __init__(self, lfsr: list[int], fsm: list[int], cfg: SigmaConfig):
        if (cfg.m, cfg.b) != (32, 16):
            raise ValueError(
                f"cipher configuration is {cfg.m}x{cfg.b}, expected m=32, b=16"
            )
        _check_words(lfsr, 32, 16)
        if not (isinstance(fsm, list) and len(fsm) == 2
                and all(type(r) is int and 0 <= r <= MASK32 for r in fsm)):
            raise ValueError("FSM registers must be two 32-bit words")
        self.lfsr = list(lfsr)
        self.fsm = list(fsm)
        self.cfg = cfg


class KeyError32(ValueError):
    """Key/IV material has the wrong shape, or a word that is not a 32-bit int."""


def fsm_step(fsm: list[int], d5: int, d15: int) -> tuple[list[int], int]:
    """One FSM clock of [R1, R2]: returns (new registers, output F)."""
    r1, r2 = fsm
    return [boxplus(d5, r2), sbox_s(r1)], boxplus(d15, r1) ^ r2


def load_state_words(key: list[int], iv: list[int]) -> list[int]:
    """Key/IV schedule: returns s_0..s_15 (s_15 = newest block)."""
    if len(iv) != 4:
        raise KeyError32(f"IV must be 4 words, got {len(iv)}")
    for what, words in (("key", key), ("IV", iv)):
        for i, w in enumerate(words):
            if type(w) is not int:  # a bool is not a word either
                raise KeyError32(f"{what} word {i} is not an integer: {w!r}")
            if not 0 <= w <= MASK32:
                raise KeyError32(f"{what} word {i} is not a 32-bit word: {w:#x}")
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


#: the SNOW 2.0 configuration, built once per process and shared
_snow2_cfg = functools.cache(snow2_gains)


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
    if cfg is None:
        cfg = _snow2_cfg()
    state = CipherState(load_state_words(key, iv), [0, 0], cfg)
    return state, _clock(state, 32, True)


def snow2_keystream(state: CipherState, n: int) -> list[int]:
    """Produce n keystream words, advancing the state in place."""
    check_int("n", n, 0)
    return _clock(state, n, False)


def _clock(state: CipherState, n: int, init: bool) -> list[int]:
    """Clock state n times in place; returns the n words.

    With init set, F is xored into the new word and the words are the F
    values; otherwise the words are keystream F xor s_t.  seq holds
    s_t, s_{t+1}, ... and z the Galois state whose low word is s_{t+16}.
    """
    t0, t1, t2, t3 = state.cfg.byte_tables()
    s0, s1, s2, s3 = _STAB
    seq = list(state.lfsr)
    z = galois_state(state.cfg, seq)
    r1, r2 = state.fsm
    words = []
    emit, push = words.append, seq.append
    for t in range(n):
        f = ((seq[t + 15] + r1) & MASK32) ^ r2
        r1, r2 = (seq[t + 5] + r2) & MASK32, (
            s0[r1 & 0xFF] ^ s1[(r1 >> 8) & 0xFF] ^ s2[(r1 >> 16) & 0xFF] ^ s3[r1 >> 24]
        )
        x = z & MASK32
        if init:
            x ^= f
            emit(f)
        else:
            emit(f ^ seq[t])
        push(x)
        z = (z >> 32) ^ t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]
    state.lfsr = seq[-16:]
    state.fsm = [r1, r2]
    return words
