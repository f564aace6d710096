"""Shipped polynomial/factor tables: integrity, certification, overrides."""

import hashlib
import importlib.util
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from kdfc_snow.gf2 import primtable
from kdfc_snow.gf2.poly import (
    FactorTableMissError,
    from_exponents,
    is_irreducible,
    is_primitive,
    parse_exponents,
)
from kdfc_snow.gf2.primtable import (
    POLY_TABLE_ENV,
    SHIPPED_POLY_SHA256,
    PrimitiveTable,
    TableFormatError,
    default_table,
    mersenne_factors,
    parse_checksummed,
    primitive_poly,
    table_line,
)

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "gen_primitive_table.py"


class TestFactorTable:
    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32, 64])
    def test_factorization_reconstructs(self, d):
        n = (1 << d) - 1
        prod = 1
        for p, e in mersenne_factors(d).items():
            prod *= p**e
        assert prod == n

    def test_missing_degree(self):
        with pytest.raises(FactorTableMissError):
            mersenne_factors(99)

    def test_known_small_factorization(self):
        assert mersenne_factors(4) == {3: 1, 5: 1}
        assert mersenne_factors(6) == {3: 2, 7: 1}


class TestPrimitiveTable:
    def test_covers_full_range(self):
        t = default_table()
        assert [d for d in range(-1, 600) if d in t] == list(range(2, 513))
        assert len(t.checksum) == 64

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 31, 64, 128, 257, 512])
    def test_entries_are_irreducible_of_right_degree(self, d):
        p = primitive_poly(d)
        assert p.bit_length() - 1 == d
        assert is_irreducible(p)

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 24, 36, 48, 64, 512])
    def test_entries_are_primitive_where_certifiable(self, d):
        # the factor table covers d <= 64 and 512, so order checks are exact there
        assert is_primitive(primitive_poly(d))

    @pytest.mark.parametrize("d", [0, 1, 513])
    def test_out_of_range(self, d):
        with pytest.raises(ValueError):
            primitive_poly(d)

    def test_missing_entry_keyerror(self):
        t = default_table()
        with pytest.raises(KeyError):
            t[1]

    def test_contains(self):
        t = default_table()
        assert 2 in t and 512 in t and 1 not in t


def _table_text(body: str) -> str:
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"# sha256: {digest}\n{body}"


class TestIntegrity:
    def test_checksum_verified(self):
        text = _table_text("2: 2 1 0")
        checksum, lines = parse_checksummed(text, "test table")
        assert lines == ["2: 2 1 0"]
        assert checksum == text.splitlines()[0].split()[-1]

    def test_corrupt_checksum_rejected(self):
        with pytest.raises(TableFormatError):
            parse_checksummed("# sha256: " + "0" * 64 + "\n2: 2 1 0", "t")

    def test_missing_header_rejected(self):
        with pytest.raises(TableFormatError):
            parse_checksummed("2: 2 1 0", "t")

    def test_wrong_degree_entry_rejected(self):
        with pytest.raises(TableFormatError):
            PrimitiveTable(_table_text("3: 2 1 0"))

    @pytest.mark.parametrize("line,message", [
        ("3: 3,1,1,0", "exponent 1 is repeated"),
        ("3: 3,x,0", "'x' is not a non-negative integer"),
        ("3:", "empty exponent list"),
        ("x: 2,1,0", "has degree 2"),
        ("2: 2,1,0\n2: 2,1,0", "repeats degree 2"),
        ("100000000: 100000000,0", "label 100000000 is not in 2..512"),
    ], ids=["repeated-exponent", "non-integer", "empty", "non-integer-degree",
            "repeated-degree", "label-out-of-range"])
    def test_malformed_entry_is_named(self, line, message):
        # 3,1,1,0 used to be read as x^3 + 1 and x: as an int() ValueError
        entry = line.splitlines()[-1]
        with pytest.raises(TableFormatError, match=message) as exc:
            PrimitiveTable(_table_text(line))
        assert f"table entry {entry!r}" in str(exc.value)

    def test_reducible_entry_rejected_lazily(self):
        # x^4 + 1 = (x + 1)^4 is reducible; construction succeeds, use fails
        t = PrimitiveTable(_table_text("4: 4 0"))
        with pytest.raises(TableFormatError):
            t[4]

    def test_env_override(self, monkeypatch, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(_table_text("2: 2 1 0"))
        monkeypatch.setenv(POLY_TABLE_ENV, str(path))
        t = PrimitiveTable.load_default()
        assert [d for d in range(2, 513) if d in t] == [2]
        assert t[2] == from_exponents([2, 1, 0])

    def test_huge_exponent_is_refused_before_it_is_built(self, monkeypatch, tmp_path):
        # x^100000000 is a 12.5 MB int; the line's label bounds the parser
        # first, and the table's range 2..512 bounds the label
        path = tmp_path / "table.txt"
        monkeypatch.setenv(POLY_TABLE_ENV, str(path))
        for line, message in [
            ("8: 100000000,0", "has degree 100000000"),
            ("100000000: 100000000,0", "label 100000000 is not in 2..512"),
        ]:
            path.write_text(_table_text(line))
            tracemalloc.start()
            try:
                with pytest.raises(TableFormatError, match=message):
                    PrimitiveTable.load_default()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20, line


def _shipped_text() -> str:
    return resources.files("kdfc_snow").joinpath("data", "primitive_polys.txt").read_text()


class TestShippedCertificate:
    """The proof behind SHIPPED_POLY_SHA256, which lets a process skip Rabin."""

    def test_shipped_table_is_certified_and_pinned(self):
        text = _shipped_text()
        checksum, _ = parse_checksummed(text, "shipped table")
        table = PrimitiveTable(text)
        for d in range(2, 513):
            assert is_irreducible(table[d]), f"degree {d} entry is reducible"
        for d in [*range(2, 65), 512]:  # where the factor table covers 2^d - 1
            assert is_primitive(table[d]), f"degree {d} entry is not primitive"
        assert checksum == SHIPPED_POLY_SHA256, (
            "primitive_polys.txt changed: once this test certifies it, "
            f"update primtable.SHIPPED_POLY_SHA256 to {checksum}"
        )

    def test_shipped_lines_round_trip_through_the_codec(self):
        # every line reads through parse_exponents and writes back through
        # table_line byte for byte, and the body rewritten by the writer
        # (as tools/gen_primitive_table.py writes it) has the pinned checksum
        _, lines = parse_checksummed(_shipped_text(), "shipped table")
        for line in lines:
            label, _, rest = line.partition(":")
            assert table_line(parse_exponents(rest, int(label))) == line
        comment = _shipped_text().splitlines()[1]
        table = PrimitiveTable(_shipped_text())
        body = "\n".join([comment, *(table_line(table[d]) for d in range(2, 513))])
        assert hashlib.sha256(body.encode()).hexdigest() == SHIPPED_POLY_SHA256

    def test_generator_picks_the_shipped_entries(self):
        """tools/gen_primitive_table.py chooses every entry of degree 2..64
        as the shipped table has it: the first candidate that is_primitive
        accepts.  Degrees above 64 are left out: their order checks need
        the tool's sweep over the primes below 10^6."""
        spec = importlib.util.spec_from_file_location("gen_primitive_table", GENERATOR)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        table = PrimitiveTable(_shipped_text())
        assert [tool.first_candidate(d, set()) for d in range(2, 65)] == [
            table[d] for d in range(2, 65)
        ]

    def test_pinned_table_skips_rabin(self, monkeypatch):
        def no_rabin(_):
            raise AssertionError("Rabin ran on the pinned table")

        monkeypatch.setattr(primtable, "is_irreducible", no_rabin)
        table = PrimitiveTable(_shipped_text())
        assert table.checksum == SHIPPED_POLY_SHA256
        assert all(table[d].bit_length() - 1 == d for d in range(2, 513))

    def test_changed_override_is_checked_lazily(self, monkeypatch, tmp_path):
        # one entry of the shipped table swapped for the reducible x^100 + 1
        body = _shipped_text().split("\n", 1)[1].rstrip("\n")
        assert "\n100: 100,37,0\n" in body
        path = tmp_path / "table.txt"
        body = body.replace("\n100: 100,37,0\n", "\n100: 100,0\n")
        path.write_text(_table_text(body))
        monkeypatch.setenv(POLY_TABLE_ENV, str(path))
        t = PrimitiveTable.load_default()
        assert t.checksum != SHIPPED_POLY_SHA256
        assert t[99] == primitive_poly(99)
        with pytest.raises(TableFormatError, match="degree 100"):
            t[100]


class TestDeterminism:
    def test_default_table_is_cached_singleton(self):
        assert default_table() is default_table()

    def test_pipeline_degrees_all_resolve(self):
        # every degree the generation pipeline can ask for must be present
        t = default_table()
        for d in (2, 33, 467, 499, 500, 511, 512):
            assert t[d].bit_length() - 1 == d
