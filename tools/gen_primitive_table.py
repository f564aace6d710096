"""Regenerate data/primitive_polys.txt (one primitive polynomial per degree).

For every degree d in [2, 512] this script picks the first candidate, in
weight-then-lexicographic order (trinomials x^d + x^a + 1 with ascending a,
then pentanomials x^d + x^a + x^b + x^c + 1 with ascending (a, b, c)), that
passes:

* d <= 64  — full primitivity certification against the shipped
  factorization table for 2^d - 1;
* d > 64   — Rabin irreducibility plus order checks against every known
  prime factor q of 2^d - 1, i.e. x^((2^d - 1)/q) != 1 (mod p).  Known
  factors come from three sources: the d <= 64 table lifted along subfield
  divisibility (2^e - 1 | 2^d - 1 for e | d), a sweep for small prime
  factors below 10^6, and the prime cofactor left after stripping those
  (when the remainder passes a primality test the factorization is in fact
  complete and the certification is full).

Candidates refuted by any order check are skipped, so every shipped entry
is irreducible, has no known small-order witness, and is fully certified
wherever the factorization is complete.  The script prints per-degree
certification status.  The package pins the sha256 of the shipped table
(gf2.primtable.SHIPPED_POLY_SHA256) and skips per-process irreducibility
checks for it; a regenerated table with a new checksum has to pass the
test suite's certificate (tests/test_gf2_primtable.py) before that pin is
updated to it.  Run from the repository root:

    python tools/gen_primitive_table.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kdfc_snow.gf2.poly import is_irreducible, is_primitive, powmod
from kdfc_snow.gf2.primtable import mersenne_factors, table_line

OUT = Path(__file__).resolve().parent.parent / "src" / "kdfc_snow" / "data" / "primitive_polys.txt"

MAX_DEGREE = 512
CERTIFIED_MAX = 64
SMALL_PRIME_BOUND = 10**6


def known_prime_factors() -> tuple[dict[int, set[int]], dict[int, bool]]:
    """Prime factors of 2^d - 1 for d in [2, 512], plus completeness flags."""
    factors: dict[int, set[int]] = {d: set() for d in range(2, MAX_DEGREE + 1)}

    # The fully factored range, lifted along 2^e - 1 | 2^d - 1 for e | d.
    for e in range(2, CERTIFIED_MAX + 1):
        for q in mersenne_factors(e):
            for d in range(e, MAX_DEGREE + 1, e):
                factors[d].add(q)

    # Small primes: p | 2^d - 1 iff ord_p(2) | d; find the order by
    # stepping powers of 2 (it exceeds MAX_DEGREE for most primes).
    for p in sympy.primerange(3, SMALL_PRIME_BOUND):
        t = 2 % p
        for d in range(1, MAX_DEGREE + 1):
            if t == 1:
                for mult in range(d, MAX_DEGREE + 1, d):
                    factors[mult].add(p)
                break
            t = (t << 1) % p

    complete: dict[int, bool] = {}
    for d in range(2, MAX_DEGREE + 1):
        n = (1 << d) - 1
        for q in factors[d]:
            while n % q == 0:
                n //= q
        if n == 1:
            complete[d] = True
        elif sympy.isprime(n):
            factors[d].add(n)
            complete[d] = True
        else:
            complete[d] = False
    return factors, complete


def candidates(d: int):
    """Trinomials then pentanomials of degree d, lexicographic within weight."""
    top = (1 << d) | 1
    for a in range(1, d):
        yield top | (1 << a)
    for a in range(3, d):
        for b in range(2, a):
            for c in range(1, b):
                yield top | (1 << a) | (1 << b) | (1 << c)


def passes_order_checks(p: int, primes: set[int]) -> bool:
    order = (1 << (p.bit_length() - 1)) - 1
    return all(powmod(2, order // q, p) != 1 for q in primes)  # x^(order/q) != 1


def first_candidate(d: int, primes: set[int]) -> int:
    """The table entry of degree d: the first candidate that is_primitive
    accepts up to CERTIFIED_MAX, above it the first that is irreducible and
    passes the order checks against the known prime factors `primes`."""
    for cand in candidates(d):
        if d <= CERTIFIED_MAX:
            if is_primitive(cand):
                return cand
        elif is_irreducible(cand) and passes_order_checks(cand, primes):
            return cand
    raise RuntimeError(f"no candidate found for degree {d}")


def main() -> None:
    t0 = time.time()
    factors, complete = known_prime_factors()
    print(
        f"factor scan done in {time.time() - t0:.1f}s; fully factored: "
        f"{sum(complete.values())}/{len(complete)} degrees"
    )

    body = ["# one primitive polynomial per degree, 'degree: e1,e2,...,ek'"]
    for d in range(2, MAX_DEGREE + 1):
        found = first_candidate(d, factors[d])
        body.append(table_line(found))
        status = "certified" if (d <= CERTIFIED_MAX or complete[d]) else "partial"
        print(f"{body[-1]}  (weight {found.bit_count()}, {status})")

    text = "\n".join(body)
    digest = hashlib.sha256(text.encode()).hexdigest()
    OUT.write_text(f"# sha256: {digest}\n{text}\n")
    print(f"wrote {OUT} ({len(body) - 1} entries, {time.time() - t0:.1f}s total)")


if __name__ == "__main__":
    main()
