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
LFSR state, by one of two routes:

* one step at a time: fsm_step and step_stacked per clock.  The init
  clocks take it (F feeds back, so the LFSR does not run on its own), as
  do keystream calls shorter than JUMP_MIN words on a configuration with
  no jump tables, and the n mod b tail of every call;
* b words per pass (_jump): while it streams, the LFSR runs on its own,
  so the next b words are v * T^b for the stacked state v.  One pass is
  mb/8 byte-lane lookups in the configuration's jump tables
  (SigmaConfig.jump_tables), then b FSM clocks on plain ints.

The first keystream call of at least JUMP_MIN words builds the jump
tables (about 1.7 MB at mb = 512, cached on the configuration), and every
later call on that configuration uses them.  So kdfc_init's discard and
other short calls never pay for the build.  One engine serves both
ciphers: at 16 words per pass the table route wins for SNOW 2.0's three
sparse gains as well as for KDFC-SNOW's sixteen dense ones.
"""

from __future__ import annotations

from kdfc_snow.gf2.linalg import BitMatrix
from kdfc_snow.gf2.poly import _mulmod_int
from kdfc_snow.sigma_lfsr import LfsrState, SigmaConfig, step_stacked

__all__ = [
    "FsmState",
    "CipherState",
    "KeyError32",
    "MASK32",
    "JUMP_MIN",
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

#: Keystream calls of at least this many words build the configuration's
#: jump tables (SigmaConfig.jump_tables) and stream b words per table pass.
#: Set from the break-even of SNOW 2.0, the cipher slower to pay the build
#: back because its one-step route is the cheaper one: measured on one
#: 2-CPU x86-64 host under CPython 3.11, a 2.6 ms build against 3.9 us per
#: word one step at a time and 1.25 us per word through the tables, about
#: 1,000 words (KDFC-SNOW: 7.8 ms, 9.5 us and 1.0 us, about 950 words).
JUMP_MIN = 1024

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
    F values; otherwise the words are keystream F xor s_t.  Keystream calls
    of at least JUMP_MIN words, and every keystream call on a configuration
    whose jump tables exist, go b words at a time through _jump; the rest
    (init clocks, short calls, the n mod b tail) clock one step at a time.
    """
    words = []
    if not init and n >= cfg.b and (n >= JUMP_MIN or cfg._jump_tables is not None):
        v, r1, r2 = _jump(cfg, v, fsm.r1, fsm.r2, n // cfg.b, words)
        fsm = FsmState(r1, r2)
        n -= len(words)
    # module globals, read per call so that wrappers installed on them apply
    fsm_clock, step = fsm_step, step_stacked
    m = cfg.m
    mask = (1 << m) - 1
    d5_shift = 5 * m
    top = (cfg.b - 1) * m
    for _ in range(n):
        fsm, f = fsm_clock(fsm, (v >> d5_shift) & mask, (v >> top) & mask)
        if init:
            words.append(f)
            v = step(cfg, v) ^ (f << top)
        else:
            words.append(f ^ (v & mask))
            v = step(cfg, v)
    return v, fsm, words


def _jump(cfg: SigmaConfig, v: int, r1: int, r2: int, passes: int, words: list[int]):
    """passes * b keystream clocks appended to words; returns (v, r1, r2).

    Each pass looks up the state b steps ahead, nv = v * T^b, in the jump
    tables (one lookup per byte of v), then runs the b FSM clocks on plain
    ints: clock t reads s_t, s_{t+5} and s_{t+b-1}, which are blocks t,
    t+5 and t+b-1 of v | nv << mb.  Block t+5 is read only when b > 5,
    because the one-step route reads block 5 of a b-block state, zero when
    there is none.  Same words as fsm_step and step_stacked per clock.
    """
    lanes = cfg.jump_tables()
    m, b = cfg.m, cfg.b
    mask = (1 << m) - 1
    shifts = range(0, m * b, m)
    nbytes = len(lanes)
    s0, s1, s2, s3 = _STAB
    cur = [(v >> sh) & mask for sh in shifts]
    zeros = [0] * b
    emit = words.append
    for _ in range(passes):
        nv = 0
        for table, byte in zip(lanes, v.to_bytes(nbytes, "little")):
            nv ^= table[byte]
        nxt = [(nv >> sh) & mask for sh in shifts]
        seq = cur + nxt
        d5s = seq[5 : 5 + b] if b > 5 else zeros
        for st, d5, d15 in zip(cur, d5s, seq[b - 1 :]):
            emit((((d15 + r1) & MASK32) ^ r2) ^ st)
            r1, r2 = (d5 + r2) & MASK32, (
                s0[r1 & 0xFF] ^ s1[(r1 >> 8) & 0xFF] ^ s2[(r1 >> 16) & 0xFF] ^ s3[r1 >> 24]
            )
        v, cur = nv, nxt
    return v, r1, r2
