"""Univariate polynomial arithmetic over GF(2).

A polynomial is a non-negative Python int whose bit i is the coefficient
of x^i (Hankerson-Menezes-Vanstone, Guide to ECC, 2.3), everywhere in the
package: the table entries, the stage and target polynomials, the
characteristic polynomials and every function here take and return it.
Its degree is p.bit_length() - 1, so the zero polynomial has degree -1,
and its weight is p.bit_count().  from_exponents and exponents convert
from and to exponent lists; documents, the char-poly output and the
polynomial table write the descending list of exponent_list and read it
back through parse_exponents.

clmul, clsquare and _barrett are the package's one GF(2)[x] kernel
(multiply, square, reduce); the modular helpers, linalg.char_poly, the
pipeline in confgen and the byte fields of snow2 all build on them.
_barrett, one step for any product of degree below 2 deg p (Barrett,
CRYPTO '86), is the one reduction by a fixed modulus p, sparse or dense;
moduli that change from step to step (gcd, and inv_mod's first
reduction) take the one long division, _divmod_int.
inv_mod, the one inversion of the pipeline's field stages, keeps each
remainder of extended Euclid and its Bezout cofactor side by side in one
int, so one shifted xor per quotient term updates both.
check_int, the package's one check of an int parameter, lives here, at
the bottom of the import graph; gf2.linalg re-exports it.
"""

from __future__ import annotations

from typing import Iterable


def check_int(name: str, value: int, least: int | None) -> None:
    """Refuse a non-int (a bool is not one here) or a value below least (if given)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {name}={value}")


def from_exponents(exps: Iterable[int]) -> int:
    """The polynomial with a term x^e for each e in exps; a negative or a
    repeated exponent, which would cancel unseen, is refused, as
    parse_exponents refuses it."""
    c = 0
    for e in exps:
        if e < 0:
            raise ValueError("negative exponent")
        if c >> e & 1:
            raise ValueError(f"exponent {e} is repeated")
        c |= 1 << e
    return c


def _negative(what: str) -> ValueError:
    """The refusal of a negative operand or modulus: a polynomial is an int >= 0."""
    return ValueError(f"negative {what}: polynomials are ints >= 0")


def exponents(p: int) -> list[int]:
    """Ascending exponents of the nonzero terms of p (p >= 0)."""
    if p < 0:
        raise _negative("operand")
    out = []
    while p:
        low = p & -p
        out.append(low.bit_length() - 1)
        p ^= low
    return out


def exponent_list(p: int) -> list[int]:
    """Exponents of the nonzero terms, descending: the form the JSON
    documents, the char-poly output and the polynomial table write."""
    return exponents(p)[::-1]


class DegreeError(ValueError):
    """An exponent list whose top exponent ``got`` exceeds the degree asked for."""

    def __init__(self, got: int):
        super().__init__(f"degree {got}")
        self.got = got


def parse_exponents(text: str, degree: int) -> int:
    """The polynomial written as an exponent list, e.g. '8,4,3,2,0' (commas or
    blanks, any order); refuses an empty list, a term that is not a decimal
    integer >= 0, a repeated exponent, which would cancel unseen, and, with
    DegreeError, a top exponent above ``degree``, before any term is built."""
    exps: set[int] = set()
    for tok in text.replace(",", " ").split():
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"exponent {tok!r} is not a non-negative integer")
        if int(tok) in exps:
            raise ValueError(f"exponent {int(tok)} is repeated")
        exps.add(int(tok))
    if not exps:
        raise ValueError("empty exponent list")
    if max(exps) > degree:
        raise DegreeError(max(exps))
    return from_exponents(exps)


def gcd(a: int, b: int) -> int:
    """Euclidean GCD in GF(2)[x] (monic by construction); a negative a or b
    is refused with ValueError."""
    if (a | b) < 0:
        raise _negative("operand")
    while b:
        a, b = b, _divmod_int(a, b)[1]
    return a


# -- kernel ----------------------------------------------------------------


def clmul(a: int, b: int) -> int:
    """Carry-less product a * b, one shifted copy per term of the sparser
    factor; an operand that is not an int (a bool is not one here) or is
    negative is refused with ValueError."""
    check_int("a", a, None)
    check_int("b", b, None)
    if (a | b) < 0:
        raise _negative("operand")
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def clsquare(a: int) -> int:
    """a^2 by bit spreading: the binary digits of a, read in base 4."""
    if a < 0:
        raise _negative("operand")
    return int(format(a, "b"), 4)


def _divmod_int(a: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of a by d != 0, by long division."""
    dl = d.bit_length()
    q = 0
    while (al := a.bit_length()) >= dl:
        a ^= d << (al - dl)
        q |= 1 << (al - dl)
    return q, a


def _over_xw(shifts: list[int], u: int) -> int:
    """floor(c * u / x^w) for u of degree below w = deg c.

    (u * x^e) >> w = u >> (w - e), so given c's shifts w - e over its
    terms x^e, e > 0, this is one shift and xor per term, for c of any
    weight.  On packed rows it maps every slot at once: s <= w moves bits
    only into bits >= w of the slot below, which callers mask.
    """
    g = 0
    for s in shifts:
        g ^= u >> s
    return g


def _barrett_constants(p: int) -> tuple[list[int], list[int], list[int]]:
    """Barrett's constants for p of degree w >= 0: _over_xw's shifts of p
    and of mu = floor(x^2w / p), and the exponents of p - x^w.  Taken once
    per call by powmod and is_irreducible, once per process and stage
    polynomial by confgen.

    With p = x^w + t, x^2w = p^2 + t^2, so mu is p itself when
    deg t^2 < w, and one list serves both."""
    exps = exponents(p)
    w = exps[-1]
    shifts = [w - e for e in exps if e]
    if 2 * (p ^ (1 << w)).bit_length() <= w + 1:
        return shifts, shifts, exps[:-1]
    mu = _divmod_int(1 << 2 * w, p)[0]
    return shifts, [w - e for e in exponents(mu) if e], exps[:-1]


def _barrett(c: int, w: int, mu_shifts: list[int], low: list[int], mask: int) -> int:
    """c mod p for deg c < 2w = 2 deg p, given p's (_, mu_shifts, low):
    q = floor(mu * floor(c / x^w) / x^w) is floor(c / p), so c mod p is the
    low w bits of c + q * (p - x^w).  mask is (1 << w) - 1, or on packed
    rows the low w bits of every slot of at least 2w bits."""
    q = _over_xw(mu_shifts, c >> w & mask) & mask
    for e in low:
        c ^= q << e
    return c & mask


def _mulmod_int(a: int, b: int, m: int) -> int:
    """a * b mod m (m != 0) by one Barrett step; an operand of degree
    deg m or more is long-divided first, so the product stays below
    2 deg m, where the step is exact."""
    w = m.bit_length() - 1
    if (a | b) >> w:
        a, b = _divmod_int(a, m)[1], _divmod_int(b, m)[1]
    _, mu_shifts, low = _barrett_constants(m)
    return _barrett(clmul(a, b), w, mu_shifts, low, (1 << w) - 1)


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m by extended Euclid; raises if not coprime.

    Each remainder r and its Bezout cofactor s (r = s * a mod m) share one
    int, r << off | s with off = m.bit_length(), so one shifted xor per
    quotient term reduces the remainder and updates the cofactor together,
    and the int's bit length is deg r + off + 1 while r is nonzero
    (Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 2.48).  The cofactor
    stays below off: with a reduced first, s_k has degree
    deg(m) - deg(r_(k-1)) <= deg(m), and so has every partial sum on the
    way to it.  The same bound leaves the result, paired with the gcd 1,
    of degree below deg(m), with no final reduction.  A negative a or m
    is refused with ValueError."""
    if (a | m) < 0:
        raise _negative("operand" if a < 0 else "modulus")
    if m == 0:
        raise ZeroDivisionError("modulus is the zero polynomial")
    off = m.bit_length()
    u = m << off
    v = _divmod_int(a, m)[1] << off | 1
    ul = u.bit_length()
    vl = v.bit_length()
    # u and v take turns as dividend; the loops stop when the remainder
    # part of one runs out (bit length <= off), and the other holds the gcd
    while vl > off:
        while ul >= vl:
            u ^= v << (ul - vl)
            ul = u.bit_length()
        if ul <= off:
            u = v
            break
        while vl >= ul:
            v ^= u << (vl - ul)
            vl = v.bit_length()
    g = u >> off
    if g != 1:
        raise ZeroDivisionError(f"not invertible: gcd has degree {g.bit_length() - 1}")
    return u & ((1 << off) - 1)


def powmod(base: int, exp: int, m: int) -> int:
    """base^exp mod m by left-to-right square-and-multiply (exp is a
    plain integer, not a polynomial).  Every square and multiply is one
    Barrett step, on constants taken once per call; the multiplier stays
    the reduced base, so with base x each multiply is one shift.  A
    negative base or m, or an exp not an int >= 0, is refused (ValueError)."""
    if (base | m) < 0:
        raise _negative("operand" if base < 0 else "modulus")
    check_int("exp", exp, 0)
    if m == 0:
        raise ZeroDivisionError("modulus is the zero polynomial")
    w = m.bit_length() - 1
    _, mu_shifts, low = _barrett_constants(m)
    mask = (1 << w) - 1
    result = 1 & mask
    b = _divmod_int(base, m)[1]
    for bit in format(exp, "b"):
        result = _barrett(clsquare(result), w, mu_shifts, low, mask)
        if bit == "1":
            result = _barrett(clmul(result, b), w, mu_shifts, low, mask)
    return result


def is_irreducible(p: int) -> bool:
    """Rabin irreducibility test.

    p of degree d is irreducible over GF(2) iff x^(2^d) = x (mod p) and
    gcd(x^(2^(d/q)) - x, p) = 1 for every prime q dividing d.  A p that
    is not an int (a bool is not one here) is refused with ValueError.
    """
    check_int("p", p, None)
    d = p.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not (p & 1):
        return False  # divisible by x
    if p.bit_count() % 2 == 0:
        return False  # p(1) = 0, divisible by x + 1
    _, mu_shifts, low = _barrett_constants(p)
    mask = (1 << d) - 1
    checkpoints = {d // q for q in _prime_factors(d)}
    t = 2  # x
    for k in range(1, d + 1):
        t = _barrett(clsquare(t), d, mu_shifts, low, mask)
        if k in checkpoints and gcd(t ^ 2, p) != 1:
            return False
    return t == 2  # x^(2^d) == x (mod p)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FactorTableMissError(ValueError):
    """2^d - 1 has no shipped factorization (d outside [2, 64] and not 512)."""


def is_primitive(p: int) -> bool:
    """True iff p is primitive: irreducible with ord(x mod p) = 2^d - 1.

    Requires the shipped factorization of 2^d - 1, available for d <= 64
    and d = 512; raises FactorTableMissError at any other degree above 1
    (callers fall back to the certified PrimitiveTable entries).  At
    degree 1 only x + 1 is primitive: x is irreducible but no unit mod x.
    A p that is not an int is refused, as is_irreducible refuses it.
    """
    check_int("p", p, None)
    d = p.bit_length() - 1
    if d < 2:
        return p == 0b11
    from kdfc_snow.gf2.primtable import mersenne_factors

    factors = mersenne_factors(d)  # raises FactorTableMissError on a miss
    if not is_irreducible(p):
        return False
    order = (1 << d) - 1
    for q in sorted(set(factors)):
        if powmod(2, order // q, p) == 1:  # x^(order/q) = 1
            return False
    return True


def euler_phi_2n1(d: int) -> int:
    """Euler phi of 2^d - 1 via the shipped factor table (d <= 64 or 512)."""
    from kdfc_snow.gf2.primtable import mersenne_factors

    n = (1 << d) - 1
    phi = n
    for q in sorted(set(mersenne_factors(d))):
        phi = phi // q * (q - 1)
    return phi
