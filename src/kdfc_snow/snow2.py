"""SNOW 2.0 core: tower-field LFSR (as a sigma-LFSR), FSM, init, keystream.

Field tower.  Bytes live in F_{2^8} = F_2[beta] with
beta^8 = beta^7 + beta^5 + beta^3 + 1; 32-bit words encode elements of
F_{2^32} = F_{2^8}[alpha] with

    alpha^4 = beta^23 alpha^3 + beta^245 alpha^2 + beta^48 alpha + beta^239,

packed so that the most significant byte is the alpha^3 coefficient.  The
LFSR recurrence is s_{t+16} = alpha^{-1} s_{t+11} + s_{t+2} + alpha s_t,
realized here by gain matrices B_0 = mult-by-alpha, B_2 = I,
B_11 = mult-by-alpha^{-1} acting on row vectors.  The byte-field
constants and tables are built at import on the gf2.poly kernel.

FSM.  Two 32-bit registers, held as the list [R1, R2].
F = (s_{t+15} boxplus R1) xor R2; R1' = s_{t+5} boxplus R2;
R2' = S(R1), where S applies the AES S-box to each byte and then the AES
MixColumn matrix over the Rijndael byte field x^8 + x^4 + x^3 + x + 1
(low byte = first MixColumn row).  S is two lookups, one per 16-bit half
of R1, in tables of 65,536 native 32-bit words (512 KB in all) built at
import.

Initialization loads the key/IV schedule, then clocks 32 times with F
xored into the feedback and no output; the first keystream word is
produced by the very next clock.  Both phases, and KDFC-SNOW after its
configuration swap, run through one function, _clock.  It keeps the LFSR
in its Galois form (see sigma_lfsr): the next word is the low block of z,
and feeding it back is 4 lookups in the configuration's byte tables,
sparse SNOW 2.0 gains or dense KDFC-SNOW ones alike.  Beside z it keeps
the plain list of words, from which the FSM reads s_{t+5} and s_{t+15}
and the output reads s_t.  The init clocks run the FSM and the LFSR
interleaved, as F feeds back; a keystream call runs the LFSR for all its
words first, since there the LFSR never reads the FSM, and then the FSM.
A cipher state holds the last 16 words, so each call rebuilds z from them
(galois_state, 64 lookups).  The FSM and the 8-hex-digit output are
defined on 32-bit words and 16 blocks only, so CipherState refuses any
other configuration shape, and snow2_keystream re-checks the registers
before every call.
"""

from __future__ import annotations

import functools
import sys

from kdfc_snow.gf2.linalg import check_int
from kdfc_snow.gf2.poly import _barrett, _barrett_constants, _mulmod_int, inv_mod, powmod
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


def _check_word(name: str, w: int) -> None:
    """Refuse anything but a 32-bit int word (a bool is not one here)."""
    if type(w) is not int or not 0 <= w <= MASK32:
        raise ValueError(f"{name} must be a 32-bit int word, got {w!r}")


# ---------------------------------------------------------------------------
# byte fields: F_{2^8} = F_2[beta] / (x^8 + x^7 + x^5 + x^3 + 1) for the LFSR,
# the Rijndael field for the S-box, both on the gf2.poly kernel

_BETA_POLY = 0x1A9  # x^8 + x^7 + x^5 + x^3 + 1
_AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def _byte_products(coeffs: tuple[int, ...], poly: int) -> list[int]:
    """c * k for every byte c of F_2[x]/poly and every k of coeffs, one
    byte each, highest first: c -> c * k is GF(2)-linear, so the rows for
    c = x^j, j < 8, are doubled out over c's bits, one xor per entry.
    Each k * x^j = k << j has degree below 16, so one Barrett step on
    poly's constants, taken once, reduces it."""
    _, mu_shifts, low = _barrett_constants(poly)
    tab = [0]
    for j in range(8):
        row = 0
        for k in coeffs:
            row = row << 8 | _barrett(k << j, 8, mu_shifts, low, 0xFF)
        tab += [t ^ row for t in tab]
    return tab


# ---------------------------------------------------------------------------
# multiplication by alpha / alpha^{-1} on packed words

# alpha^4 coefficient row of G_S, highest power first: beta^23, ...
_G_COEFFS = tuple(powmod(2, e, _BETA_POLY) for e in (23, 245, 48, 239))
# c * alpha^4 reduced: c*(g3 a^3 + g2 a^2 + g1 a + g0)
_MUL_A = _byte_products(_G_COEFFS, _BETA_POLY)
# c * alpha^{-1} = c * g0^{-1} (alpha^3 + g3 alpha^2 + g2 alpha + g1)
_G0_INV = inv_mod(_G_COEFFS[3], _BETA_POLY)
_MUL_AINV = _byte_products(
    tuple(_mulmod_int(_G0_INV, g, _BETA_POLY) for g in (1, *_G_COEFFS[:3])), _BETA_POLY
)


def alpha_mul(w: int) -> int:
    """w * alpha in F_{2^32} (packed representation)."""
    _check_word("w", w)
    return ((w << 8) & MASK32) ^ _MUL_A[w >> 24]


def alpha_inv_mul(w: int) -> int:
    """w * alpha^{-1} in F_{2^32}."""
    _check_word("w", w)
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
    # multiplicative inverse (0 -> 0), then the AES affine transform
    # b ^ rotl(b, 1) ^ rotl(b, 2) ^ rotl(b, 3) ^ rotl(b, 4) ^ 0x63: the
    # shifts of b xored, their bits above 7 folded back down
    table = []
    for b in [0] + [inv_mod(c, _AES_POLY) for c in range(1, 256)]:
        t = b ^ b << 1 ^ b << 2 ^ b << 3 ^ b << 4
        table.append((t ^ t >> 8) & 0xFF ^ 0x63)
    return table


_SR = _aes_sbox_table()


def _sbox_halves() -> tuple[memoryview, memoryview]:
    """S as two tables over 16-bit halves: S(w) = lo[w & 0xFFFF] ^ hi[w >> 16].

    Byte k of w adds T_k[byte]: column k of MixColumn times s =
    SubBytes(byte), so lo[h << 8 | l] = T_0[l] ^ T_1[h] and
    hi[h << 8 | l] = T_2[l] ^ T_3[h].  Each table is 65,536 native 32-bit
    entries (256 KB).  T_0 is one int of 256 native 32-bit lanes, lane l
    for byte l, and lo is written in place one 256-entry row h at a time,
    T_0 xored with T_1[h] in every lane.  MixColumn is circulant, so T_2
    and T_3 are T_0 and T_1 rotated by 16 bits, and hi is lo with the two
    16-bit halves of every entry swapped: bytes 0, 1, 2, 3 of an entry
    become 2, 3, 0, 1 in either byte order.
    """
    order = sys.byteorder
    ones = int.from_bytes((1).to_bytes(4, order) * 256, order)  # 1 in every lane
    # byte j of T_k is s times the MixColumn entry at row j, column k
    col0 = _byte_products((3, 1, 1, 2), _AES_POLY)
    col1 = _byte_products((1, 1, 2, 3), _AES_POLY)
    t0 = int.from_bytes(b"".join(col0[s].to_bytes(4, order) for s in _SR), order)
    lo = bytearray(1 << 18)
    for h, s in enumerate(_SR):
        lo[h << 10 : h + 1 << 10] = (t0 ^ col1[s] * ones).to_bytes(1024, order)
    hi = bytearray(1 << 18)
    for k in range(4):
        hi[k::4] = lo[k ^ 2 :: 4]
    return memoryview(lo).cast("I"), memoryview(hi).cast("I")


_S_LO, _S_HI = _sbox_halves()


def sbox_s(w: int) -> int:
    """SNOW 2.0 32-bit S-box S(w)."""
    _check_word("w", w)
    return _S_LO[w & 0xFFFF] ^ _S_HI[w >> 16]


def boxplus(x: int, y: int) -> int:
    """Addition modulo 2^32."""
    _check_word("x", x)
    _check_word("y", y)
    return (x + y) & MASK32


# ---------------------------------------------------------------------------
# FSM / cipher state


class CipherState:
    """The 16 LFSR words s_t..s_{t+15} (a list, oldest first), the FSM
    registers [R1, R2] and the active feedback configuration."""

    __slots__ = ("lfsr", "fsm", "cfg")

    def __init__(self, lfsr: list[int], fsm: list[int], cfg: SigmaConfig):
        _check_state(lfsr, fsm, cfg)
        self.lfsr = list(lfsr)
        self.fsm = list(fsm)
        self.cfg = cfg


def _check_state(lfsr: list[int], fsm: list[int], cfg: SigmaConfig) -> None:
    """Refuse what the clock loops cannot run: a configuration other than a
    32x16 SigmaConfig, other than 16 LFSR words or other than two FSM
    registers, each word a 32-bit int.  CipherState runs it when it is
    built and snow2_keystream before every call, so registers mutated in
    between are refused, not truncated or read past."""
    if not isinstance(cfg, SigmaConfig):
        raise TypeError(
            f"cipher configuration must be a SigmaConfig, got {type(cfg).__name__}"
        )
    if (cfg.m, cfg.b) != (32, 16):
        raise ValueError(
            f"cipher configuration is {cfg.m}x{cfg.b}, expected m=32, b=16"
        )
    _check_words(lfsr, 32, 16)
    _check_fsm(fsm)


def _check_fsm(fsm: list[int]) -> None:
    """Refuse anything but a list of two 32-bit int words."""
    if not (isinstance(fsm, list) and len(fsm) == 2
            and all(type(r) is int and 0 <= r <= MASK32 for r in fsm)):
        raise ValueError("FSM registers must be two 32-bit words")


class KeyError32(ValueError):
    """Key/IV material has the wrong shape, or a word that is not a 32-bit int."""


def fsm_step(fsm: list[int], d5: int, d15: int) -> tuple[list[int], int]:
    """One FSM clock of [R1, R2]: returns (new registers, output F)."""
    _check_fsm(fsm)
    _check_word("d5", d5)
    _check_word("d15", d15)
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
    if len(key) == 8:
        low, high = inv, list(key)
    elif len(key) == 4:
        low = inv + list(key)
        high = low.copy()
    else:
        raise KeyError32(f"key must be 4 or 8 words, got {len(key)}")
    # the IV enters the newest 8 words at the same places for both key sizes
    high[1] ^= iv[3]
    high[2] ^= iv[2]
    high[4] ^= iv[1]
    high[7] ^= iv[0]
    return low + high


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
    _check_state(state.lfsr, state.fsm, state.cfg)
    return _clock(state, n, False)


def _clock(state: CipherState, n: int, init: bool) -> list[int]:
    """Clock state n times in place; returns the n words.

    seq holds s_t, s_{t+1}, ... and z the Galois state whose low word is
    the next word to push.  With init set, F is xored into that word, so
    the FSM and the LFSR run interleaved and the words are the F values.
    Otherwise the LFSR never reads the FSM: the Galois clock first runs
    all n words ahead, then the FSM reads s_{t+5} and s_{t+15} from seq in
    step and the words are keystream F xor s_t.
    """
    t0, t1, t2, t3 = state.cfg.byte_tables()
    s_lo, s_hi = _S_LO, _S_HI
    seq = list(state.lfsr)
    z = galois_state(state.cfg, seq)
    r1, r2 = state.fsm
    words = []
    emit, push = words.append, seq.append
    if init:
        for t in range(n):
            f = ((seq[t + 15] + r1) & MASK32) ^ r2
            r1, r2 = (seq[t + 5] + r2) & MASK32, s_lo[r1 & 0xFFFF] ^ s_hi[r1 >> 16]
            x = (z & MASK32) ^ f
            emit(f)
            push(x)
            z = (z >> 32) ^ t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]
    else:
        for _ in range(n):
            x = z & MASK32
            push(x)
            z = (z >> 32) ^ t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]
        for s, d5, d15 in zip(seq, seq[5 : 5 + n], seq[15 : 15 + n]):
            emit(((d15 + r1) & MASK32) ^ r2 ^ s)
            r1, r2 = (d5 + r2) & MASK32, s_lo[r1 & 0xFFFF] ^ s_hi[r1 >> 16]
    state.lfsr = seq[-16:]
    state.fsm = [r1, r2]
    return words
