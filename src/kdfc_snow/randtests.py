"""Statistical randomness battery (SP 800-22-style subset).

Implemented tests: monobit, block-frequency, runs, longest-run-of-ones,
binary-matrix-rank, cumulative-sums (forward and reverse), serial,
approximate-entropy, and linear-complexity.  Each returns a TestResult
whose ``passed`` is computed from its p-value, ``p_value >= 0.01``.

Bits are handled as numpy uint8 arrays of 0/1; an input of another
integer or bool type is checked for 0/1 before its cast.  Keystream
words map to bits most-significant-bit first (matching the hex the CLI
prints), by one ``np.unpackbits`` over the words' big-endian bytes; a
list of words goes through one typed 32-bit buffer after one pass over
its element types.  A test parameter (a block size, m, the matrix size)
is refused by gf2.poly.check_int before the input is read.  The
regularized upper incomplete gamma function is implemented here (series
plus continued fraction, 1e-12 relative target, for a up to 2^20, where
both converge) so the module needs no scientific-library dependency;
erfc comes from the stdlib.

The tests work on whole arrays or on packed bits, never one block or one
bit at a time:

* linear-complexity runs Berlekamp-Massey on every block at once,
  bit-sliced: bit i of 64 blocks shares one uint64 word, so each step's
  discrepancy is one xor-reduce over the connection polynomial's rows
  up to the largest length, and the blocks' lengths are Python-int lane
  masks grouped by length (``_linear_complexities``);
* binary-matrix-rank packs each matrix row into one unsigned word and
  runs a single Gaussian elimination over all matrices, one column step
  across every matrix (``_matrix_ranks``);
* longest-run-of-ones packs each block into uint64 words and ANDs them
  with themselves shifted by one bit, carried across words, once per run
  length up to the top class (``_longest_run_classes``);
* serial and approximate-entropy count every window that starts in a
  byte's 8 phases from one histogram of the (m+7)-bit words read at each
  byte offset of the packed bits (``_window_counts``);
* monobit counts the ones with np.count_nonzero, and block-frequency
  sums its blocks in the narrowest unsigned type;
* cumulative-sums reads the +-1 walk 16 steps at a time from the packed
  bits, through tables of each 16-bit chunk's net step and lowest and
  highest partial sum (``_excursion``), and its p-value sum leaves out
  the terms that are exactly 0.0 (``_cusum_p``);
* runs counts the transitions as the popcount of X ^ X >> 1, X the bits
  as one int.

These kernels pack bits into words and never widen one bit to an
integer, so none of their transient arrays is larger than the bit array,
and none copies the bits: cumulative-sums keeps one int32 per 16 bits,
serial and approximate-entropy one 16-bit word per 8 bits, widened to
intp 2^14 words at a time, and linear-complexity packs its lanes from
one byte per 8 blocks per bit position.  Traced peaks (tracemalloc) on
10^6 random bits, in bytes per bit: monobit 0.001, block-frequency
0.19, runs 0.53, longest-run-of-ones 0.51, binary-matrix-rank 0.52,
cumulative-sums 0.79, serial 0.52, approximate-entropy 0.52 and
linear-complexity 0.59.  Small transients also keep glibc's malloc
from trimming its heap between tests, which would make the next test's
arrays fault in afresh.  tests/oracles.py holds a per-block or per-bit
reference for each kernel.

serial and approximate-entropy count the overlapping m-bit windows once,
at the largest m each needs, and take every smaller m by merging
adjacent bins (``_fold``); both refuse 2^m > n before counting.

Class probabilities: the binary-matrix-rank and linear-complexity tests
use exact closed forms evaluated at run time (rank-distribution product
formula; 1/96, 1/32, 1/8, 1/2, 1/4, 1/16, 1/48).  The longest-run test
uses the standard published table for its run-length class
probabilities.
"""

from __future__ import annotations

import array
import functools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from kdfc_snow.gf2.poly import check_int

__all__ = [
    "TestResult",
    "InsufficientDataError",
    "ALPHA",
    "TEST_NAMES",
    "bits_from_hex",
    "bits_from_words",
    "igamc",
    "run_test",
    "run_battery",
    "monobit",
    "block_frequency",
    "runs_test",
    "longest_run",
    "binary_matrix_rank",
    "cumulative_sums",
    "serial_test",
    "approximate_entropy",
    "linear_complexity",
]

ALPHA = 0.01

@dataclass
class TestResult:
    """One test outcome; passed is p_value >= ALPHA."""

    name: str
    p_value: float
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:  # NaN fails this too
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA


def _result(name: str, p: float, stats: dict) -> TestResult:
    return TestResult(name, min(max(p, 0.0), 1.0), stats)


class InsufficientDataError(ValueError):
    """The input is shorter than the test's required minimum."""

    def __init__(self, name: str, required: int, got: int):
        super().__init__(
            f"{name}: need at least {required} bits, got {got}"
        )
        self.name = name
        self.required = required
        self.got = got


# ---------------------------------------------------------------------------
# bit-array helpers

def bits_from_hex(text: str) -> np.ndarray:
    """Hex digits to bits, most significant bit of each digit first."""
    digits = "".join(text.split())
    if not digits:
        return np.zeros(0, dtype=np.uint8)
    try:
        raw = bytes.fromhex(digits if len(digits) % 2 == 0 else digits + "0")
    except ValueError:
        # only on failure: name the first line with a non-hex character
        for number, line in enumerate(text.splitlines(), 1):
            if not set("".join(line.split())) <= set(string.hexdigits):
                raise ValueError(f"line {number} is not hexadecimal: {line.strip()!r}") from None
        raise
    vals = np.frombuffer(raw, dtype=np.uint8)
    bits = np.unpackbits(vals)
    return bits[: 4 * len(digits)].astype(np.uint8)


#: the array typecode of a C unsigned int of 32 bits
_U32 = next(code for code in "IL" if array.array(code).itemsize == 4)


def _word_list(words: list | tuple) -> np.ndarray:
    """A list or tuple of words as uint32: one pass over the element types,
    then one typed buffer, whose conversion refuses a word out of range."""
    for kind in set(map(type, words)) - {int}:
        if kind is bool or not issubclass(kind, (int, np.integer)):
            if issubclass(kind, (list, tuple, np.ndarray)):
                raise ValueError("words must be one-dimensional")
            raise TypeError(f"words must be integers, got {kind.__name__}")
    try:
        return np.frombuffer(array.array(_U32, words), np.uint32)
    except OverflowError:
        raise ValueError("every word must be in [0, 2**32)") from None


def bits_from_words(words) -> np.ndarray:
    """32-bit words to bits, most significant bit first within each word.

    Every word must be an integer in [0, 2**32); anything else raises
    ValueError (TypeError for a non-integer word, bools included) before
    any word is converted.  A numpy object array takes the rules of a list.
    """
    if isinstance(words, (list, tuple)):
        arr = _word_list(words)
    else:
        arr = np.asarray(words)
        if arr.ndim != 1:
            raise ValueError("words must be one-dimensional")
        if arr.dtype == object:
            arr = _word_list(arr.tolist())
        elif arr.size and arr.dtype.kind not in "iu":
            raise TypeError(f"words must be integers, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or int(arr.max()) >> 32):
            raise ValueError("every word must be in [0, 2**32)")
    return np.unpackbits(arr.astype(">u4").view(np.uint8))


def _pack_rows(bits: np.ndarray, itemsize: int) -> np.ndarray:
    """Pack each row of a 0/1 array into unsigned words of itemsize bytes.

    Column j is bit j % w of word j // w (w = 8 * itemsize), on any host.
    """
    nrows, ncols = bits.shape
    nwords = -(-ncols // (8 * itemsize))
    out = np.zeros((nrows, nwords * itemsize), dtype=np.uint8)
    out[:, : -(-ncols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(f"<u{itemsize}")


def _as_bits(bits) -> np.ndarray:
    """bits as a uint8 array, refused unless it holds integers or bools
    that are all 0 or 1 (checked before the cast, which would wrap them)."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.dtype.kind not in "biu":
        raise ValueError(f"bits must be 0/1 integers or bools, got {arr.dtype}")
    if arr.size and (arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0)):
        raise ValueError("bits must be 0/1")
    return arr.astype(np.uint8, copy=False)


def _at_least(bits, name: str, required: int) -> np.ndarray:
    """bits as a 0/1 array, refused if shorter than required."""
    x = _as_bits(bits)
    if x.size < required:
        raise InsufficientDataError(name, required, x.size)
    return x


# ---------------------------------------------------------------------------
# special functions

def _igamc_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(10000):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _igamc_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by continued fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


#: the largest a igamc takes: up to here both routes converge within their
#: 10,000 terms at every x (at most 7,900 series terms, at x near a + 1)
IGAMC_MAX_A = 2.0**20


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a).

    A NaN a or x is refused (every comparison below would pass it on), and
    so is an a above IGAMC_MAX_A, infinity included; Q(a, +inf) is 0.0, and
    so is Q where rounding takes the series' P(a, x) past 1 (a near 0).
    """
    if math.isnan(a) or math.isnan(x):
        raise ValueError(f"a and x must not be NaN, got a={a}, x={x}")
    if not 0 < a <= IGAMC_MAX_A:
        raise ValueError(f"need 0 < a <= 2^20, got a={a}")
    if x < 0:
        raise ValueError("need x >= 0")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _igamc_series(a, x))
    return _igamc_cf(a, x)


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# individual tests

def monobit(bits) -> TestResult:
    x = _at_least(bits, "monobit", 100)
    n = x.size
    s = 2 * int(np.count_nonzero(x)) - n
    s_obs = abs(s) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return _result("monobit", p, {"S_n": s, "s_obs": s_obs, "n": n})


def block_frequency(bits, block_size: int = 128) -> TestResult:
    check_int("block_size", block_size, 1)
    x = _at_least(bits, "block-frequency", 100)
    n = x.size
    nblocks = n // block_size
    if nblocks < 1:
        raise InsufficientDataError("block-frequency", block_size, n)
    trimmed = x[: nblocks * block_size].reshape(nblocks, block_size)
    # the counts are exact, so count / block_size is bit for bit the mean
    pi = trimmed.sum(axis=1, dtype=np.min_scalar_type(block_size)) / block_size
    chi2 = 4.0 * block_size * float(((pi - 0.5) ** 2).sum())
    p = igamc(nblocks / 2.0, chi2 / 2.0)
    return _result(
        "block-frequency",
        p,
        {"chi2": chi2, "blocks": nblocks, "block_size": block_size},
    )


def runs_test(bits) -> TestResult:
    x = _at_least(bits, "runs", 100)
    n = x.size
    # the n bits as one int, x[0] the most significant
    packed = int.from_bytes(np.packbits(x).tobytes(), "big") >> (-n % 8)
    pi = packed.bit_count() / n
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return _result("runs", 0.0, {"pi": pi, "skipped": "monobit precondition"})
    # bit t of packed ^ packed >> 1 is set where bits t and t + 1 differ
    v = ((packed ^ packed >> 1) & ((1 << (n - 1)) - 1)).bit_count() + 1
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(num / den)
    return _result("runs", p, {"V_n": v, "pi": pi})


#: longest-run class tables: block size -> (min bits, class lows, class
#: highs, class probabilities) per the standard parameterization
_LONGEST_RUN_TABLES = {
    8: (128, 1, 4, [0.2148, 0.3672, 0.2305, 0.1875]),
    128: (6272, 4, 9, [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]),
    10000: (
        750000,
        10,
        16,
        [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727],
    ),
}


def _longest_run_classes(blocks: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """min(max(longest run of ones, lo), hi) - lo for each row of blocks.

    The class counts the run lengths k in lo+1..hi that some run reaches.
    Each row packs into uint64 words, bit i of the row bit i % 64 of word
    i // 64; run_k, set at i where bits i..i+k-1 are all ones, is
    run_{k-1} & (run_{k-1} >> 1), with bit 0 of the next word carried
    into bit 63 (with lo = 0 and hi = row length the class is the longest
    run itself).
    """
    run = _pack_rows(blocks, 8)
    shifted = np.empty_like(run)
    classes = np.zeros(len(blocks), dtype=np.intp)
    for k in range(1, hi + 1):
        if k > 1:
            np.right_shift(run, 1, out=shifted)
            shifted[:, :-1] |= run[:, 1:] << 63
            run &= shifted
        if k > lo:
            reached = run.any(axis=1)
            if not reached.any():
                break
            classes += reached
    return classes


def longest_run(bits) -> TestResult:
    x = _as_bits(bits)
    n = x.size
    for m, (min_bits, lo, hi, pis) in reversed(_LONGEST_RUN_TABLES.items()):
        if n >= min_bits:
            break
    else:
        raise InsufficientDataError("longest-run-of-ones", min_bits, n)
    nblocks = n // m
    blocks = x[: nblocks * m].reshape(nblocks, m)
    classes = _longest_run_classes(blocks, lo, hi)
    counts = np.bincount(classes, minlength=len(pis)).tolist()
    chi2 = sum(
        (counts[i] - nblocks * pis[i]) ** 2 / (nblocks * pis[i])
        for i in range(len(pis))
    )
    p = igamc((len(pis) - 1) / 2.0, chi2 / 2.0)
    return _result(
        "longest-run-of-ones",
        p,
        {"chi2": chi2, "block_size": m, "blocks": nblocks, "counts": counts},
    )


def _rank_probability(n_rows: int, n_cols: int, r: int) -> float:
    """P(rank = r) of a uniform random GF(2) matrix (exact product form)."""
    log2p = float(r * (n_rows + n_cols - r) - n_rows * n_cols)
    prod = 1.0
    for i in range(r):
        prod *= (1 - 2.0 ** (i - n_rows)) * (1 - 2.0 ** (i - n_cols))
        prod /= 1 - 2.0 ** (i - r)
    return prod * 2.0**log2p


def _matrix_ranks(mats: np.ndarray) -> np.ndarray:
    """GF(2) rank of every matrix in a (count, rows, cols) 0/1 array, cols <= 64.

    Each row packs into one unsigned word; one Gaussian elimination then
    runs over all matrices, a column at a time: the first row with the
    column set is the pivot and is xored into every row that has it,
    itself included, so a pivot row is zero from then on and never
    pivots again.
    """
    count, nrows, ncols = mats.shape
    if not 1 <= ncols <= 64:
        raise ValueError(f"matrix width must be in 1..64, got {ncols}")
    itemsize = next(k for k in (1, 2, 4, 8) if 8 * k >= ncols)
    rows = _pack_rows(mats.reshape(count * nrows, ncols), itemsize)
    rows = rows.reshape(count, nrows)
    ranks = np.zeros(count, dtype=rows.dtype)
    at = np.arange(count)
    for col in range(ncols):
        cand = rows >> col & 1
        piv = cand.argmax(axis=1)
        ranks += cand[at, piv]
        rows ^= cand * rows[at, piv][:, None]
    return ranks.astype(np.intp)


def binary_matrix_rank(bits, size: int = 32) -> TestResult:
    check_int("size", size, 2)
    if size > 64:
        raise ValueError(f"need size <= 64, got size={size}")
    x = _at_least(bits, "binary-matrix-rank", 38 * size * size)
    n = x.size
    nmat = n // (size * size)
    full = _rank_probability(size, size, size)
    minus1 = _rank_probability(size, size, size - 1)
    rest = 1.0 - full - minus1
    flat = x[: nmat * size * size].reshape(nmat, size, size)
    deficit = np.minimum(size - _matrix_ranks(flat), 2)
    counts = np.bincount(deficit, minlength=3).tolist()  # size, size-1, <= size-2
    expect = [nmat * full, nmat * minus1, nmat * rest]
    chi2 = sum((counts[i] - expect[i]) ** 2 / expect[i] for i in range(3))
    p = math.exp(-chi2 / 2.0)
    return _result(
        "binary-matrix-rank",
        p,
        {"chi2": chi2, "matrices": nmat, "counts": counts,
         "probabilities": [full, minus1, rest]},
    )


@functools.cache
def _walk_steps(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net step, lowest and highest partial sum of the +-1 walk of every
    width-bit chunk (width a power of two), first step its top bit.

    A chunk is its top half's walk, then its bottom half's from the top
    half's net step, so each width's tables come from the next smaller's.
    """
    if width == 1:
        step = np.array([-1, 1], dtype=np.int8)
        return step, step, step
    net, lo, hi = _walk_steps(width // 2)
    top = net[:, None]
    return (
        (top + net).ravel(),
        np.minimum(lo[:, None], top + lo).ravel(),
        np.maximum(hi[:, None], top + hi).ravel(),
    )


def _excursion(x: np.ndarray) -> tuple[int, int, int]:
    """Lowest and highest of the partial sums S_1..S_n of the +-1 walk of
    the n >= 16 bits x, and S_n.

    The walk is read 16 steps at a time from np.packbits(x): a chunk's
    lowest (highest) partial sum is the sum before it plus its table
    entry.  The last n % 16 steps are taken one at a time.
    """
    net, lo, hi = _walk_steps(16)  # 192 KB, built on first use
    whole = x.size & -16
    chunks = np.packbits(x[:whole]).view(">u2")
    steps = net[chunks]
    # the partial sum before each chunk
    before = np.cumsum(steps, dtype=np.int32 if x.size < 1 << 31 else np.int64)
    before -= steps
    lowest = int((before + lo[chunks]).min())
    highest = int((before + hi[chunks]).max())
    total = int(before[-1]) + int(steps[-1])
    for bit in x[whole:].tolist():
        total += 2 * bit - 1
        lowest, highest = min(lowest, total), max(highest, total)
    return lowest, highest, total


#: beyond +-_PHI_EDGE the normal CDF is exactly 1.0 or 0.0 in a double
_PHI_EDGE = 40.0


def _cusum_p(n: int, z: int) -> float:
    """The cumulative-sums p-value of a walk of n steps with excursion z.

    The two sums run in order over the published k ranges, less the k
    whose two Phi arguments both lie beyond +-_PHI_EDGE: such a term is
    exactly 0.0, so leaving it out changes no bit of the total.
    """
    sqrt_n = math.sqrt(n)
    # an argument (4k + c) z / sqrt(n) lies beyond +-_PHI_EDGE where |4k + c| > edge
    edge = _PHI_EDGE * sqrt_n / z
    total = 1.0
    # past last, 4k - 1 > edge; before first, 4k + 1 < -edge
    first = max(((-n // z) + 1) // 4, math.ceil((-edge - 1) / 4))
    last = min(((n // z) - 1) // 4, math.floor((edge + 1) / 4))
    for k in range(first, last + 1):
        total -= _phi((4 * k + 1) * z / sqrt_n) - _phi((4 * k - 1) * z / sqrt_n)
    # past last, 4k + 1 > edge; before first, 4k + 3 < -edge
    first = max(((-n // z) - 3) // 4, math.ceil((-edge - 3) / 4))
    last = min(((n // z) - 1) // 4, math.floor((edge - 1) / 4))
    for k in range(first, last + 1):
        total += _phi((4 * k + 3) * z / sqrt_n) - _phi((4 * k + 1) * z / sqrt_n)
    return total


def cumulative_sums(bits, reverse: bool = False) -> TestResult:
    x = _at_least(bits, "cumulative-sums", 100)
    lo, hi, total = _excursion(x)
    if reverse:
        # the reversed walk's partial sums are total - S_k, k = 0..n-1
        z = max(total - min(0, lo), max(0, hi) - total)
    else:
        z = max(hi, -lo)
    name = "cumulative-sums-reverse" if reverse else "cumulative-sums-forward"
    return _result(name, _cusum_p(x.size, z), {"z": z})


def _window_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-bit windows of x (m <= x.size), with
    wraparound; window i is bits i..i+m-1, its first bit the most significant.

    The windows start at 8k + s, k a byte offset of np.packbits(x) and s
    one of 8 phases.  A group of q phases from s0 reads the m + q - 1 bits
    from 8k + s0 at every k whose 8 windows lie inside x, and counts those
    words in one histogram; phase s0 + t is bits t..t+m-1 of a word, so its
    counts are the histogram reshaped to (2^t, 2^m, 2^(q-1-t)) and summed
    over the outer axes.  With q = min(8, 17 - m), at least 1, no
    histogram has more than max(2^16, 2^m) bins.  The rest of the windows
    (at most 15, and the m - 1 that wrap around) are counted one at a time.
    """
    n = x.size
    counts = np.zeros(1 << m, dtype=np.intp)
    # byte offsets whose 8 windows lie inside x (a window starts inside it)
    offsets = max(0, (n - max(m, 1) - 7) // 8 + 1)
    if offsets:
        packed = np.packbits(x[: 8 * offsets + m + 6])
        phases = min(8, max(1, 17 - m))
        for s0 in range(0, 8, phases):
            q = min(phases, 8 - s0)
            width = m + q - 1
            nbytes = -(-(s0 + width) // 8)
            dtype = np.uint16 if nbytes <= 2 else np.uint32 if nbytes <= 4 else np.uint64
            words = packed[:offsets].astype(dtype)
            for j in range(1, nbytes):
                words <<= 8
                words |= packed[j : j + offsets]
            words >>= 8 * nbytes - s0 - width
            words &= dtype((1 << width) - 1)
            # bincount widens its input to intp: chunks of 2^14 words (128 KB
            # widened) unless the bins are more
            chunk = max(1 << 14, 1 << width)
            hist = np.bincount(words[:chunk], minlength=1 << width)
            for i in range(chunk, offsets, chunk):
                hist += np.bincount(words[i : i + chunk], minlength=1 << width)
            for t in range(q):
                counts += hist.reshape(1 << t, 1 << m, 1 << (q - 1 - t)).sum(axis=(0, 2))
    # the windows from bit 8 * offsets on, over the first m - 1 bits again
    rest = x[8 * offsets :].tolist() + x[: max(m - 1, 0)].tolist()
    value = int("".join(map(str, rest)) or "0", 2)
    for start in range(n - 8 * offsets):
        counts[value >> (len(rest) - m - start) & ((1 << m) - 1)] += 1
    return counts


def _fold(counts: np.ndarray) -> np.ndarray:
    """_window_counts(x, m - 1) from _window_counts(x, m), exactly.

    A window's first bit is its index's most significant, so bins 2v and
    2v + 1 differ only in the last bit, which the (m-1)-bit window drops.
    """
    return counts[0::2] + counts[1::2]


def _check_window_bits(m: int, n: int) -> None:
    """Refuse 2^m > n before any count: the bins would outnumber the bits."""
    if m > n.bit_length() - 1:
        raise ValueError(f"m must be at most {n.bit_length() - 1} for {n} bits, got {m}")


def _psi_sq(counts: np.ndarray, n: int) -> float:
    """psi^2_m from the 2^m window counts of n bits (0 for m = 0)."""
    if counts.size == 1:
        return 0.0
    return float(counts.size / n * (counts.astype(np.float64) ** 2).sum() - n)


def serial_test(bits, m: int = 2) -> TestResult:
    check_int("m", m, 2)
    x = _at_least(bits, "serial", 100)
    n = x.size
    _check_window_bits(m, n)
    counts_m = _window_counts(x, m)
    counts_m1 = _fold(counts_m)
    psi_m = _psi_sq(counts_m, n)
    psi_m1 = _psi_sq(counts_m1, n)
    psi_m2 = _psi_sq(_fold(counts_m1), n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2 * psi_m1 + psi_m2
    p1 = igamc(2.0 ** (m - 2), d1 / 2.0)
    p2 = igamc(2.0 ** (m - 3), d2 / 2.0)
    return _result(
        "serial",
        p1,
        {"m": m, "del1": d1, "del2": d2, "p_value2": p2},
    )


def approximate_entropy(bits, m: int = 2) -> TestResult:
    check_int("m", m, 0)
    x = _at_least(bits, "approximate-entropy", 100)
    n = x.size
    _check_window_bits(m, n)

    def phi(counts: np.ndarray) -> float:
        counts = counts.astype(np.float64)
        nz = counts[counts > 0] / n
        return float((nz * np.log(nz)).sum())

    counts = _window_counts(x, m + 1)
    apen = phi(_fold(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2.0 ** (m - 1), chi2 / 2.0)
    return _result(
        "approximate-entropy", p, {"m": m, "ApEn": apen, "chi2": chi2}
    )


#: linear-complexity class probabilities (exact): T <= -2.5, six bands, > 2.5
_LC_PI = [1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48]


def _linear_complexities(blocks: np.ndarray) -> np.ndarray:
    """Linear complexity of every row of a (count, length) 0/1 array.

    Berlekamp-Massey (Massey 1969) on all rows at once, bit-sliced: row j
    is lane j % 64 of word j // 64, and rev[length - 1 - i] holds bit i of
    every block, reversed once so that step n reads one forward slice.
    The lanes are packed without a copy of the blocks: blocks[k::8] << k,
    k = 0..7, is OR-ed into one byte per 8 blocks per bit position, and
    only that eighth-size array is reversed, transposed and read as
    uint64 words.
    C(D) and B(D)*D^gap are arrays of such words, one per coefficient;
    the gap grows by one in every branch, so B*D^gap is a window into a
    fixed buffer that moves down one row per step.  Where the discrepancy
    d is 1, C ^= B*D^gap; where also 2L <= n, L becomes n + 1 - L and
    B*D^gap the old C.

    A lane at length L has deg C <= L, and deg B*D^gap <= n + 1 - L: B is
    the C from before the change at step k to L = k + 1 - L', of degree
    at most L', and gap = n - k (B*D^gap = D^(n+1) before any change).
    So d reads rows 0..max L and the update rows 0..max(max L, n + 1 - min L).

    The lengths are Python ints: groups maps each L to its lanes as a bit
    mask, bit j for block j, and lo and hi are its least and largest L,
    kept up to date as lanes move.  d is read once into an int; the lanes
    that change length are d's lanes in the groups at L = lo..min(hi,
    n // 2), which the step visits in order; they move to group n + 1 - L,
    above n // 2, and their mask returns as one np.frombuffer.  A step
    with d = 0 in every lane does nothing more; one group per distinct
    length (a single 1 at every position) is the slowest input.
    """
    count, length = blocks.shape
    lanes = -(-count // 64)
    nbytes = 8 * lanes
    # packed[j // 8, i] holds bit i of block j as its bit j % 8
    packed = np.zeros((nbytes, length), dtype=np.uint8)
    for k in range(8):
        part = blocks[k::8]
        packed[: len(part)] |= part << k
    # rev[length - 1 - i] is bit i of every block
    rev = np.ascontiguousarray(packed.T[::-1]).view("<u8")
    del packed
    conn = np.zeros((length + 1, lanes), dtype=rev.dtype)
    conn[0] = ~np.uint64(0)
    # coefficient i of B*D^gap is shifted[length - n + i]; B = 1, gap = 1 at n = 0
    shifted = np.zeros((length + 2, lanes), dtype=rev.dtype)
    shifted[length + 1] = ~np.uint64(0)
    tmp = np.empty_like(shifted)
    d = np.empty(lanes, dtype=rev.dtype)
    groups = {0: (1 << count) - 1}  # length L -> lanes at L, bit j = block j
    lo = hi = 0  # the least and the largest L in groups
    for n in range(length):
        at = length - 1 - n
        np.bitwise_and(conn[: hi + 1], rev[at : at + hi + 1], out=tmp[: hi + 1])
        np.bitwise_xor.reduce(tmp[: hi + 1], axis=0, out=d)
        d_int = int.from_bytes(d.tobytes(), "little")
        if not d_int:
            continue
        rows = max(hi, n + 1 - lo) + 1
        b_gap = shifted[length - n : length - n + rows]
        t = tmp[:rows]
        np.bitwise_and(b_gap, d, out=t)
        conn[:rows] ^= t
        change = 0
        # a group reached here moves to n + 1 - size > n // 2, past the range
        for size in range(lo, min(hi, n // 2) + 1):
            moved = groups.get(size, 0) & d_int
            if moved:
                change |= moved
                groups[size] ^= moved
                if not groups[size]:
                    del groups[size]
                groups[n + 1 - size] = groups.get(n + 1 - size, 0) | moved
                hi = max(hi, n + 1 - size)
        if change:
            while lo not in groups:
                lo += 1
            # in the lanes that changed length, B*D^gap ^ new C = old C
            mask = np.frombuffer(change.to_bytes(nbytes, "little"), "<u8")
            np.bitwise_and(conn[:rows], mask, out=t)
            b_gap ^= t
    lc = np.zeros(count, dtype=np.intp)
    for size, lanes_at in groups.items():
        mask = np.frombuffer(lanes_at.to_bytes(nbytes, "little"), np.uint8)
        lc[np.unpackbits(mask, count=count, bitorder="little").view(bool)] = size
    return lc


def linear_complexity(bits, block_size: int = 500) -> TestResult:
    check_int("block_size", block_size, 1)
    x = _at_least(bits, "linear-complexity", 200 * block_size)
    n = x.size
    nblocks = n // block_size
    m = block_size
    sign = 1.0 if m % 2 == 0 else -1.0
    mu = (
        m / 2.0
        + (9.0 + (-1.0) ** (m + 1)) / 36.0
        - (m / 3.0 + 2.0 / 9.0) / 2.0**m
    )
    blocks = x[: nblocks * m].reshape(nblocks, m)
    t = sign * (_linear_complexities(blocks) - mu) + 2.0 / 9.0
    classes = np.where(
        t <= -2.5, 0, np.where(t > 2.5, 6, np.floor(t + 2.5).astype(np.intp) + 1)
    )
    counts = np.bincount(classes, minlength=7).tolist()
    chi2 = sum(
        (counts[i] - nblocks * _LC_PI[i]) ** 2 / (nblocks * _LC_PI[i])
        for i in range(7)
    )
    p = igamc(3.0, chi2 / 2.0)
    return _result(
        "linear-complexity",
        p,
        {"chi2": chi2, "blocks": nblocks, "block_size": m, "counts": counts},
    )


# ---------------------------------------------------------------------------
# battery

_DISPATCH = {
    "monobit": monobit,
    "block-frequency": block_frequency,
    "runs": runs_test,
    "longest-run-of-ones": longest_run,
    "binary-matrix-rank": binary_matrix_rank,
    "cumulative-sums-forward": lambda bits: cumulative_sums(bits, False),
    "cumulative-sums-reverse": lambda bits: cumulative_sums(bits, True),
    "serial": serial_test,
    "approximate-entropy": approximate_entropy,
    "linear-complexity": linear_complexity,
}


#: the battery's test names, in the order run_battery runs them
TEST_NAMES = list(_DISPATCH)


def run_test(name: str, bits) -> TestResult:
    """Run one test by battery name, with its default parameters."""
    if name not in _DISPATCH:
        raise KeyError(f"unknown test {name!r}; choose from {TEST_NAMES}")
    return _DISPATCH[name](bits)


def run_battery(bits) -> list[TestResult]:
    """Run every implemented test in fixed order."""
    x = _as_bits(bits)
    return [_DISPATCH[name](x) for name in TEST_NAMES]
