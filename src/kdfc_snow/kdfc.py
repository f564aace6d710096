"""Key-dependent-configuration cipher: SNOW 2.0 FSM over a derived σ-LFSR.

Initialization runs the standard SNOW 2.0 key/IV schedule and its 32
init cycles with the fixed public configuration, capturing the FSM
output word of every cycle.  The last captured words supply the fill
bits for the online tail of the configuration pipeline (confgen); the
resulting feedback configuration — block-companion with characteristic
polynomial TARGET_POLY — replaces the public one, the register contents
are kept, and a fixed number of output vectors is discarded before
keystream starts.

The offline part of the pipeline does not depend on the key and is
shipped as a data file (see tools/gen_y_init.py), parsed once per
process.  The derivation is a function of key and IV over one Y-init
document, the shipped one unless another is given, the stage polynomials
of the active table and the fixed target polynomial.  A YInitDoc refuses a
matrix that is not m rows whose widest has m + k bits (as the last
active row, e_1, has), so the document's k is Y's own.  On every use,
KdfcParams.resolve checks the document's polynomial-table checksum
against the active table, its m and its k window.  The recorded seed and
fill label are kept for regeneration, not re-derived.  After the swap
the cipher clocks as SNOW 2.0 does, so kdfc_keystream is
snow2_keystream.

YInitDoc and KdfcParams are plain __slots__ classes, not dataclasses:
`dataclasses` and the inspect/ast chain it imports would cost every fresh
process several milliseconds of start-up.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from kdfc_snow.confgen import FillBits, generate_config
from kdfc_snow.gf2.linalg import (
    MATRIX_SHAPE, check_int, check_shape, matrix_from_json, matrix_to_json, width,
)
from kdfc_snow.gf2.poly import from_exponents
from kdfc_snow.gf2.primtable import default_table
from kdfc_snow.sigma_lfsr import SigmaConfig
from kdfc_snow.snow2 import (
    CipherState,
    init_with_captures,
    snow2_keystream,
)

__all__ = [
    "M",
    "B",
    "ONLINE_TOTAL",
    "DEFAULT_K",
    "MAX_DISCARD",
    "TARGET_POLY_EXPONENTS",
    "target_poly",
    "YInitDoc",
    "load_y_init",
    "ProvenanceError",
    "KdfcParams",
    "kdfc_init",
    "kdfc_keystream",
    "reconfigure",
]

M = 32
B = 16
#: total pipeline iterations mb - m; offline k plus the online remainder
ONLINE_TOTAL = M * B - M
#: offline iteration count of the shipped matrix
DEFAULT_K = 468

#: upper bound on KdfcParams.discard; the discarded words are produced,
#: and held, in one keystream call
MAX_DISCARD = 1 << 16

Y_INIT_FILE = "y_init_m32_k468.json"

#: Exponents of the canonical degree-512 target polynomial (weight 251).
#: Every derived configuration is similar to its companion matrix, hence
#: has exactly this characteristic polynomial.
TARGET_POLY_EXPONENTS: tuple[int, ...] = (
    512, 510, 504, 502, 501, 494, 493, 490, 486, 485, 483, 481, 480, 478,
    477, 471, 470, 469, 466, 462, 461, 459, 458, 452, 449, 446, 445, 444,
    441, 438, 437, 434, 433, 432, 431, 429, 427, 424, 423, 420, 419, 414,
    412, 411, 409, 405, 402, 400, 399, 398, 396, 395, 393, 392, 390, 388,
    387, 385, 375, 374, 372, 371, 366, 365, 363, 362, 359, 357, 356, 355,
    354, 353, 352, 351, 350, 347, 345, 344, 343, 341, 339, 338, 337, 336,
    333, 330, 329, 326, 324, 322, 319, 310, 307, 306, 305, 304, 303, 301,
    299, 298, 297, 296, 295, 294, 293, 292, 291, 289, 286, 285, 283, 282,
    281, 278, 276, 274, 271, 269, 264, 262, 259, 258, 257, 255, 253, 251,
    249, 248, 243, 240, 239, 238, 236, 235, 233, 232, 230, 229, 228, 227,
    226, 222, 217, 216, 215, 214, 213, 210, 208, 206, 203, 201, 199, 193,
    190, 184, 179, 178, 177, 175, 174, 173, 172, 171, 169, 165, 164, 163,
    158, 156, 155, 153, 152, 151, 149, 147, 146, 143, 141, 138, 136, 132,
    131, 129, 128, 126, 125, 124, 123, 121, 120, 119, 118, 117, 116, 115,
    113, 112, 111, 109, 105, 104, 103, 102, 98, 97, 94, 93, 89, 88, 87, 81,
    78, 76, 75, 73, 72, 70, 69, 68, 67, 66, 65, 63, 59, 58, 57, 56, 55, 53,
    51, 50, 49, 47, 46, 45, 44, 41, 39, 37, 36, 33, 30, 26, 25, 21, 20, 19,
    16, 5, 0,
)

@functools.cache
def target_poly() -> int:
    """The degree-512 target polynomial, packed (cached)."""
    return from_exponents(TARGET_POLY_EXPONENTS)


class ProvenanceError(ValueError):
    """A y_init document does not match the active polynomial table."""


_YINIT_SHAPE = {
    "m": int, "k": int, "seed": str, "fill_label": str,
    "poly_table_sha256": str, "y": MATRIX_SHAPE,
}


def _fields_eq(self, other):
    """Field-wise equality of two instances of one __slots__ class."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class YInitDoc:
    """An offline pipeline matrix Y, m rows of width m + k, and its provenance.

    Read-only; m and k are ints (m >= 1, k >= 0), seed, fill_label and
    poly_table_sha256 strs, and y a list of int rows.
    """

    __slots__ = tuple(_YINIT_SHAPE)

    def __init__(self, m: int, k: int, seed: str, fill_label: str,
                 poly_table_sha256: str, y: list[int]):
        check_int("m", m, 1)
        check_int("k", k, 0)
        for name, value in (("seed", seed), ("fill_label", fill_label),
                            ("poly_table_sha256", poly_table_sha256)):
            if type(value) is not str:
                raise ValueError(f"{name} must be a str, got {type(value).__name__}")
        w = width(y, "y")
        if len(y) != m or w != m + k:
            raise ValueError(f"y_init matrix is {len(y)}x{w}, expected {m}x{m + k}")
        for name, value in zip(self.__slots__, (m, k, seed, fill_label, poly_table_sha256, y)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"YInitDoc is read-only; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"YInitDoc is read-only; cannot delete {name!r}")

    __eq__ = _fields_eq
    __hash__ = None

    @classmethod
    def from_json(cls, obj) -> "YInitDoc":
        check_shape(obj, _YINIT_SHAPE, "y_init document")
        fields = {name: obj[name] for name in _YINIT_SHAPE}
        y = matrix_from_json(obj["y"], (obj["m"], obj["m"] + obj["k"]), "y_init matrix")
        return cls(**{**fields, "y": y})

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in _YINIT_SHAPE}
        return {**doc, "y": matrix_to_json(self.y, self.m + self.k)}


@functools.cache
def _shipped() -> YInitDoc:
    """The shipped y_init document, parsed once per process."""
    text = resources.files("kdfc_snow").joinpath("data").joinpath(Y_INIT_FILE).read_text()
    return YInitDoc.from_json(json.loads(text))


def load_y_init(path: str | None = None) -> YInitDoc:
    """Load a y_init document (default: the shipped file, parsed once)."""
    if path is None:
        return _shipped()
    with open(path, encoding="utf-8") as fh:
        return YInitDoc.from_json(json.load(fh))


class KdfcParams:
    """Everything that determines a keystream: key, IV and the Y-init document.

    y_init defaults to the shipped document.  Its k is the offline
    iteration count; the remaining ONLINE_TOTAL - k iterations draw their
    fill bits from captured FSM words, so they number at most 32.  discard
    output vectors (default 32, at most MAX_DISCARD) are dropped after the
    configuration swap.  verify_config (a bool, default on) checks that the
    derived configuration has the irreducible target_poly() as its
    characteristic polynomial, by one Horner pass of it through the
    Galois clock (sigma_lfsr.annihilates), and raises RankLossError if not.
    """

    __slots__ = ("key", "iv", "y_init", "discard", "verify_config")

    def __init__(self, key: list[int], iv: list[int], y_init: YInitDoc | None = None,
                 discard: int = 32, verify_config: bool = True):
        self.key = key
        self.iv = iv
        self.y_init = y_init
        self.discard = discard
        self.verify_config = verify_config

    __eq__ = _fields_eq
    __hash__ = None

    def resolve(self) -> YInitDoc:
        """The Y-init document to derive from, checked against this build.

        The one place a document is checked before a keyed derivation: its
        polynomial-table checksum against the active table, m against M
        and the k window; YInitDoc itself guarantees Y's shape.
        """
        doc = self.y_init if self.y_init is not None else load_y_init()
        if not isinstance(doc, YInitDoc):
            raise TypeError(f"y_init must be a YInitDoc, got {type(doc).__name__}")
        table = default_table()
        if doc.poly_table_sha256 != table.checksum:
            raise ProvenanceError(
                "y_init was built with polynomial table "
                f"{doc.poly_table_sha256[:12]}..., but the active table "
                f"is {table.checksum[:12]}..."
            )
        if doc.m != M:
            raise ValueError(f"y_init must have {M} rows, got {doc.m}")
        online = ONLINE_TOTAL - doc.k
        if not 0 <= online <= 32:
            raise ValueError(
                f"y_init k={doc.k} leaves {online} online iterations; "
                "need between 0 and 32"
            )
        check_int("discard", self.discard, None)
        if not 0 <= self.discard <= MAX_DISCARD:
            raise ValueError(f"discard must be in [0, {MAX_DISCARD}], got {self.discard}")
        if type(self.verify_config) is not bool:
            raise ValueError(
                f"verify_config must be a bool, got {type(self.verify_config).__name__}"
            )
        return doc


def kdfc_init(params: KdfcParams) -> CipherState:
    """Derive the key-dependent configuration and return a running state.

    Steps: (1) SNOW 2.0 key/IV load and 32 init cycles with the public
    configuration, capturing each cycle's FSM output word; (2) the last
    ONLINE_TOTAL - k words feed the online pipeline iterations, bit t of
    a word filling row t (the active row's bit is unused); (3) the
    pipeline emits a configuration with characteristic polynomial
    target_poly(); (4) the configuration is swapped in with register
    contents kept; (5) `discard` output vectors are dropped.
    """
    doc = params.resolve()
    online = ONLINE_TOTAL - doc.k
    state, captures = init_with_captures(params.key, params.iv)
    words = captures[len(captures) - online:] if online else []
    fill = FillBits.from_words(M, words, first_iteration=doc.k + 1)
    cfg = generate_config(
        M, B, target_poly(), doc.y, fill, verify=params.verify_config
    )
    state = reconfigure(state, cfg)
    if params.discard:
        snow2_keystream(state, params.discard)
    return state


kdfc_keystream = snow2_keystream


def reconfigure(state: CipherState, cfg: SigmaConfig) -> CipherState:
    """Swap the feedback configuration, keeping LFSR and FSM contents
    (CipherState copies the registers, so the states share no list)."""
    return CipherState(state.lfsr, state.fsm, cfg)
