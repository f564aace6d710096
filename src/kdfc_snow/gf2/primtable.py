"""Shipped data tables: primitive polynomials and factorizations of 2^d - 1.

Both tables are versioned text files with a sha256 checksum header line.
Formats:

* factor table — ``d: p1^e1 p2 p3 ...`` (full factorization of 2^d - 1);
* polynomial table — ``degree: e1,e2,...,ek`` (exponent list, descending;
  read by gf2.poly.parse_exponents, written by table_line).

The polynomial table covers every degree in [2, 512].  The shipped table
is certified once, by the test suite, not in every process: every entry
irreducible (Rabin), entries of degree <= 64 and 512 primitive against the
factor table, and the file's sha256 equal to SHIPPED_POLY_SHA256.  A
table with that checksum is used without further checks; any other table
(the KDFC_SNOW_POLY_TABLE override, a test's own) has each entry's
irreducibility verified lazily, on first lookup.  The committed generator
scripts under ``tools/`` reproduce both files from scratch.
"""

from __future__ import annotations

import functools
import hashlib
import os
from importlib import resources
from pathlib import Path

from kdfc_snow.gf2.poly import (
    DegreeError,
    FactorTableMissError,
    exponent_list,
    is_irreducible,
    parse_exponents,
)

POLY_TABLE_ENV = "KDFC_SNOW_POLY_TABLE"
_FACTOR_FILE = "factors_2_pow_d_minus_1.txt"
_POLY_FILE = "primitive_polys.txt"
#: sha256 of the shipped primitive_polys.txt, whose every entry the test
#: suite certifies; regenerating the table means re-certifying it and
#: updating this pin
SHIPPED_POLY_SHA256 = "6305887fe80a71d151a21a91315e73a3e4ec0687a6c9ac45a26d3a3b701ece0b"


class TableFormatError(ValueError):
    """A shipped data table is malformed or fails its checksum."""


def _default_data_text(filename: str) -> str:
    return (
        resources.files("kdfc_snow").joinpath("data").joinpath(filename).read_text()
    )


def parse_checksummed(text: str, what: str) -> tuple[str, list[str]]:
    """Verify the '# sha256: ...' header; return (checksum, body lines)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# sha256: "):
        raise TableFormatError(f"{what}: missing checksum header")
    stated = lines[0][len("# sha256: "):].strip()
    body = [ln for ln in lines[1:]]
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    if digest != stated:
        raise TableFormatError(f"{what}: checksum mismatch")
    return stated, [ln for ln in body if ln and not ln.startswith("#")]


@functools.cache
def _factor_table() -> dict[int, dict[int, int]]:
    """The shipped factor table, d -> {prime: multiplicity}, parsed once."""
    table: dict[int, dict[int, int]] = {}
    _, lines = parse_checksummed(_default_data_text(_FACTOR_FILE), _FACTOR_FILE)
    for line in lines:
        head, _, rest = line.partition(":")
        factors: dict[int, int] = {}
        for term in rest.split():
            p, _, e = term.partition("^")
            factors[int(p)] = int(e) if e else 1
        table[int(head)] = factors
    return table


def mersenne_factors(d: int) -> dict[int, int]:
    """Full factorization of 2^d - 1 as {prime: multiplicity}; d in [2, 64] or 512."""
    table = _factor_table()
    if d not in table:
        raise FactorTableMissError(
            f"no factorization of 2^{d} - 1 in the shipped table"
        )
    return table[d]


class PrimitiveTable:
    """Degree -> primitive polynomial, for every degree in [2, 512]."""

    def __init__(self, text: str):
        self._entries: dict[int, int] = {}
        self.checksum, lines = parse_checksummed(text, "primitive polynomial table")
        for line in lines:
            head, _, rest = line.partition(":")
            label = head.strip()
            decimal = label.isascii() and label.isdigit()
            if decimal and (len(label) > 3 or not 2 <= int(label) <= 512):
                raise TableFormatError(f"table entry {line!r}: label {label} is not in 2..512")
            # the label bounds the exponents before any term is built
            bound = int(label) if decimal else 0
            try:
                poly = parse_exponents(rest, bound)
                degree = poly.bit_length() - 1
                if label != str(degree):
                    raise DegreeError(degree)
            except DegreeError as e:
                raise TableFormatError(f"table entry {line!r} has degree {e.got}") from None
            except ValueError as e:
                raise TableFormatError(f"table entry {line!r}: {e}") from None
            if degree in self._entries:
                raise TableFormatError(f"table entry {line!r} repeats degree {degree}")
            self._entries[degree] = poly
        # the shipped table's entries are certified by the test suite
        pinned = self.checksum == SHIPPED_POLY_SHA256
        self._checked: set[int] = set(self._entries) if pinned else set()

    @classmethod
    def load_default(cls) -> "PrimitiveTable":
        override = os.environ.get(POLY_TABLE_ENV)
        if override:
            return cls(Path(override).read_text())
        return cls(_default_data_text(_POLY_FILE))

    def __contains__(self, degree: int) -> bool:
        return degree in self._entries

    def __getitem__(self, degree: int) -> int:
        if degree not in self._entries:
            raise KeyError(f"no table entry for degree {degree} (range is 2..512)")
        poly = self._entries[degree]
        if degree not in self._checked:
            if not is_irreducible(poly):
                raise TableFormatError(
                    f"table entry for degree {degree} is not irreducible"
                )
            self._checked.add(degree)
        return poly


def table_line(poly: int) -> str:
    """The polynomial table's line for poly, as PrimitiveTable reads it back."""
    exps = exponent_list(poly)
    return f"{exps[0]}: " + ",".join(map(str, exps))


@functools.cache
def default_table() -> PrimitiveTable:
    """The process's primitive polynomial table, loaded on first use."""
    return PrimitiveTable.load_default()


def primitive_poly(degree: int) -> int:
    """The shipped primitive polynomial of the given degree (2..512)."""
    if not 2 <= degree <= 512:
        raise ValueError(f"degree {degree} outside the table range 2..512")
    return default_table()[degree]
