"""Regenerate data/factors_2_pow_d_minus_1.txt (factorizations of 2^d - 1).

Covers d in [2, 64], factored by sympy, and d = 512, from the 13 published
prime factors of 2^512 - 1 = F0 * F1 * ... * F8 (Fermat numbers; Brillhart
et al., Factorizations of b^n +- 1): F0..F4 are prime, F5 = 641 * 6700417
(Euler), F6 = 274177 * 67280421310721 (Landry), F7 and F8 as listed in
FACTORS_512 (Morrison & Brillhart 1975; Brent & Pollard 1981).  Every line
is re-verified (product check and primality of each factor) before the
checksummed table is written. Run from the repository root:

    python tools/gen_factor_table.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import sympy

OUT = Path(__file__).resolve().parent.parent / "src" / "kdfc_snow" / "data" / "factors_2_pow_d_minus_1.txt"

FERMAT = [(1 << (1 << k)) + 1 for k in range(9)]  # F_k = 2^(2^k) + 1
#: the 13 distinct prime factors of 2^512 - 1, Fermat number by Fermat number
FACTORS_512 = [
    *FERMAT[:5],
    641, 6700417,  # F5
    274177, 67280421310721,  # F6
    59649589127497217, 5704689200685129054721,  # F7
    1238926361552897, FERMAT[8] // 1238926361552897,  # F8
]


def main() -> None:
    body = ["# full factorization of 2^d - 1, one line per d: p1^e1 p2 ..."]
    for d in [*range(2, 65), 512]:
        n = (1 << d) - 1
        if d == 512:
            factors = dict.fromkeys(FACTORS_512, 1)
        else:
            factors = sympy.factorint(n)
        check = 1
        for p, e in factors.items():
            assert sympy.isprime(p), (d, p)
            check *= p**e
        assert check == n, d
        terms = " ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items())
        )
        body.append(f"{d}: {terms}")
    text = "\n".join(body)
    digest = hashlib.sha256(text.encode()).hexdigest()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(f"# sha256: {digest}\n{text}\n")
    print(f"wrote {OUT} ({len(body) - 1} entries)")


if __name__ == "__main__":
    main()
