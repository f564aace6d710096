"""Key-dependent configuration cipher: derivation, provenance, keystream."""

import hashlib
import importlib.util
import inspect
import json
from importlib import resources
from pathlib import Path

import pytest

from conftest import KAT_IV, KAT_KEY
from oracles import gain_tables, identity, lfsr_step, reciprocal

from kdfc_snow.confgen import FillBits, pipeline_poly, y_iterate, y_offline
from kdfc_snow.gf2.linalg import matrix_to_json, rank, width
from kdfc_snow.gf2.poly import exponents, is_irreducible, is_primitive
from kdfc_snow.gf2.primtable import default_table
from kdfc_snow.kdfc import (
    B,
    DEFAULT_K,
    M,
    ONLINE_TOTAL,
    TARGET_POLY_EXPONENTS,
    Y_INIT_FILE,
    KdfcParams,
    ProvenanceError,
    YInitDoc,
    kdfc_init,
    kdfc_keystream,
    load_y_init,
    reconfigure,
    target_poly,
)
from kdfc_snow.sigma_lfsr import config_char_poly
from kdfc_snow.snow2 import KeyError32, snow2_gains

# first 8 words after the default 32-vector discard, frozen from runs that
# were cross-checked against the list-based reference FSM/LFSR
ZERO_KAT = [
    0xEFE03F6E, 0x1E580FA2, 0x41389C1A, 0x410DD452,
    0xF336F6E4, 0xB5A42CA2, 0x553853A0, 0xC1695720,
]
KEYED_KAT = [
    0x4668F2B6, 0x8C1F8CC4, 0xB770CB47, 0x4CB1AF7A,
    0x99F903A7, 0x7DC2E350, 0xEB1F0C19, 0xEFE0DA38,
]


def doc_for(y, k, checksum=None):
    """A Y-init document for y, by default carrying the active table's checksum."""
    return YInitDoc(
        m=len(y),
        k=k,
        seed="test",
        fill_label="test",
        poly_table_sha256=checksum or default_table().checksum,
        y=y,
    )


def placeholder_y(m, k):
    """m rows of the identity, the last widened to e_1 of m + k bits: a Y
    with the width of k offline iterations, for checks made before rank."""
    return [1 << t for t in range(m - 1)] + [1 << (m + k - 1)]


class TestTargetPoly:
    def test_shape_and_fingerprint(self):
        e = sorted(TARGET_POLY_EXPONENTS)
        assert len(e) == 251
        assert e[0] == 0 and e[-1] == 512
        assert e[:8] == [0, 5, 16, 19, 20, 21, 25, 26]
        assert e[-8:] == [490, 493, 494, 501, 502, 504, 510, 512]
        digest = hashlib.sha256(",".join(map(str, e)).encode()).hexdigest()
        assert digest == (
            "57d8c202ee3c3862cd670e2df5682de62fd48f9c33fe0c954da4f06b50900e46"
        )

    def test_poly_object(self):
        p = target_poly()
        assert p.bit_length() - 1 == 512
        assert exponents(p) == sorted(TARGET_POLY_EXPONENTS)
        assert p is target_poly()  # cached

    def test_irreducible(self):
        assert is_irreducible(target_poly())

    def test_primitive(self):
        # the factor table holds the 13 prime factors of 2^512 - 1
        assert is_primitive(target_poly())

    def test_is_reciprocal_of_public_config_char_poly(self):
        assert reciprocal(config_char_poly(snow2_gains())) == target_poly()


class TestYInit:
    def test_shipped_document(self):
        doc = load_y_init()
        assert doc.m == M == 32 and doc.k == DEFAULT_K == 468
        assert doc.seed == "kdfc-snow-y-init-v1"
        assert doc.fill_label == "offline-fill"
        assert width(doc.y) == M + DEFAULT_K
        assert rank(doc.y) == M
        assert doc.poly_table_sha256 == default_table().checksum

    def test_json_roundtrip(self, tmp_path):
        doc = load_y_init()
        p = tmp_path / "y.json"
        p.write_text(json.dumps(doc.to_json()))
        again = load_y_init(str(p))
        assert again.y == doc.y and again.k == doc.k

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = load_y_init()
        obj = doc.to_json()
        obj["k"] = 400  # no longer matches the stored matrix width
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ValueError):
            load_y_init(str(p))

    def test_provenance_mismatch(self):
        doc = load_y_init()
        tampered = YInitDoc(
            m=doc.m,
            k=doc.k,
            seed=doc.seed,
            fill_label=doc.fill_label,
            poly_table_sha256="0" * 64,
            y=doc.y,
        )
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, y_init=tampered)
        with pytest.raises(ProvenanceError):
            params.resolve()

    def test_shipped_matrix_rebuilds_from_its_seed(self):
        doc = load_y_init()
        fill = FillBits.from_seed(M, DEFAULT_K, doc.seed, doc.fill_label)
        assert y_offline(M, B, DEFAULT_K, fill) == doc.y

    def test_generator_rewrites_the_shipped_file(self, tmp_path, monkeypatch, capsys):
        # tools/gen_y_init.py, run with its output redirected, writes the
        # shipped document byte for byte
        path = Path(__file__).resolve().parents[1] / "tools" / "gen_y_init.py"
        spec = importlib.util.spec_from_file_location("gen_y_init", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "OUT", tmp_path / "y_init.json")
        tool.main()
        shipped = resources.files("kdfc_snow").joinpath("data", Y_INIT_FILE).read_bytes()
        assert (tmp_path / "y_init.json").read_bytes() == shipped
        assert "y_init.json" in capsys.readouterr().out

    def test_shipped_document_read_once(self, monkeypatch):
        import types

        from kdfc_snow import kdfc

        reads = []
        real_files = kdfc.resources.files

        def files(package):
            reads.append(package)
            return real_files(package)

        kdfc._shipped.cache_clear()
        monkeypatch.setattr(kdfc, "resources", types.SimpleNamespace(files=files))
        a = kdfc_init(KdfcParams(key=[0] * 8, iv=[0] * 4, verify_config=False))
        b = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, verify_config=False))
        assert len(reads) == 1
        assert kdfc_keystream(a, 8) == ZERO_KAT
        assert kdfc_keystream(b, 8) == KEYED_KAT

    def test_provenance_checked_on_every_resolve(self, monkeypatch):
        from kdfc_snow import kdfc

        # the cached shipped document is still checked against the table
        assert load_y_init() is kdfc._shipped()
        monkeypatch.setattr(default_table(), "checksum", "0" * 64)
        with pytest.raises(ProvenanceError):
            KdfcParams(key=[0] * 8, iv=[0] * 4).resolve()

    def test_missing_and_ill_typed_fields(self):
        obj = load_y_init().to_json()
        for name in ("m", "k", "seed", "fill_label", "poly_table_sha256", "y"):
            short = {k: v for k, v in obj.items() if k != name}
            with pytest.raises(ValueError, match=f"field '{name}' missing"):
                YInitDoc.from_json(short)
        with pytest.raises(ValueError, match="field 'seed' is not a string"):
            YInitDoc.from_json({**obj, "seed": 3})
        with pytest.raises(ValueError, match="field 'm' is not an integer"):
            YInitDoc.from_json({**obj, "m": True})
        with pytest.raises(ValueError, match="field 'cols' missing from 'y'"):
            YInitDoc.from_json({**obj, "y": {"rows": 32}})
        with pytest.raises(ValueError, match="expected a JSON object"):
            YInitDoc.from_json([obj])

    def test_y_narrower_than_its_k_is_refused(self):
        # the declared 32 x 500 shape holds, but with the top column cleared
        # (e_1 in row 20, active at iteration 468, and the last fill bits)
        # no row has 500 bits
        doc = load_y_init()
        assert doc.y[DEFAULT_K % M] == 1 << (M + DEFAULT_K - 1)
        rows = [r & ((1 << (M + DEFAULT_K - 1)) - 1) for r in doc.y]
        narrow = width(rows)
        assert narrow < M + DEFAULT_K
        obj = {**doc.to_json(), "y": matrix_to_json(rows, M + DEFAULT_K)}
        with pytest.raises(ValueError, match=f"^y_init matrix is 32x{narrow}, expected 32x500$"):
            YInitDoc.from_json(obj)
        with pytest.raises(ValueError, match=f"^y_init matrix is 32x{narrow}, expected 32x500$"):
            doc_for(rows, DEFAULT_K)

    @pytest.mark.parametrize("change,message", [
        pytest.param(dict(k=468.0), "^k must be an int, got float$", id="float-k"),
        pytest.param(dict(k=-1), "^need k >= 0, got k=-1$", id="negative-k"),
        pytest.param(dict(m=True), "^m must be an int, got bool$", id="bool-m"),
        pytest.param(dict(m=0, k=0, y=[]), "^need m >= 1, got m=0$", id="zero-m"),
        pytest.param(dict(m=2, k=0, y=[1.0, 2]), r"^y\[0\] must be an int, got float$",
                     id="float-row"),
        pytest.param(dict(m=2, k=0, y=[1, True]), r"^y\[1\] must be an int, got bool$",
                     id="bool-row"),
        pytest.param(dict(poly_table_sha256=None),
                     "^poly_table_sha256 must be a str, got NoneType$", id="none-checksum"),
        pytest.param(dict(seed=3), "^seed must be a str, got int$", id="int-seed"),
        pytest.param(dict(fill_label=b"offline-fill"), "^fill_label must be a str, got bytes$",
                     id="bytes-label"),
    ])
    def test_ill_typed_field_is_refused_at_construction(self, change, message):
        # each was once accepted, or refused by a shape message only
        # (m=True read "expected Truex469"), and failed later in kdfc_init
        doc = load_y_init()
        fields = {name: getattr(doc, name) for name in YInitDoc.__slots__}
        with pytest.raises(ValueError, match=message):
            YInitDoc(**{**fields, **change})

    def test_negative_row_is_refused(self):
        with pytest.raises(ValueError, match="^row has bits beyond the column count$"):
            doc_for([1, -2], 0)


class TestDocumentClasses:
    """YInitDoc and KdfcParams: construction, read-only fields, equality."""

    def test_doc_is_read_only(self):
        doc = load_y_init()
        with pytest.raises(AttributeError):
            doc.k = 400
        with pytest.raises(AttributeError):
            del doc.seed
        with pytest.raises(AttributeError):
            doc.extra = 1
        assert doc.k == DEFAULT_K and doc.seed == "kdfc-snow-y-init-v1"

    def test_equality_is_field_wise(self):
        doc = load_y_init()
        fields = {name: getattr(doc, name) for name in YInitDoc.__slots__}
        copy = YInitDoc(**{**fields, "y": list(doc.y)})
        assert copy == doc and copy is not doc
        assert YInitDoc(**{**fields, "seed": "other"}) != doc
        assert doc != fields
        a = KdfcParams(key=[1] * 8, iv=[2] * 4, y_init=doc)
        assert a == KdfcParams(key=[1] * 8, iv=[2] * 4, y_init=copy)
        assert a != KdfcParams(key=[1] * 8, iv=[2] * 4, y_init=doc, discard=0)
        assert a != KdfcParams(key=[1] * 8, iv=[2] * 4)
        assert KdfcParams(key=[1] * 8, iv=[2] * 4) != (([1] * 8, [2] * 4))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(load_y_init())
        with pytest.raises(TypeError):
            hash(KdfcParams(key=[0] * 8, iv=[0] * 4))

    def test_positional_and_keyword_construction(self):
        doc = load_y_init()
        values = [getattr(doc, name) for name in YInitDoc.__slots__]
        assert YInitDoc(*values) == doc
        by_position = KdfcParams([1] * 8, [2] * 4, doc, 5, False)
        assert by_position == KdfcParams(
            key=[1] * 8, iv=[2] * 4, y_init=doc, discard=5, verify_config=False
        )
        params = KdfcParams([1] * 8, [2] * 4)
        assert (params.y_init, params.discard, params.verify_config) == (None, 32, True)
        params.discard = 0  # KdfcParams is not read-only
        assert params.discard == 0

    def test_repr_holds_no_key_word(self):
        key = [0x9E3779B9 + i for i in range(8)]
        iv = [0x7F4A7C15 + i for i in range(4)]
        text = repr(KdfcParams(key=key, iv=iv))
        for w in key + iv:
            assert f"{w:x}" not in text.lower() and str(w) not in text


class TestParams:
    def test_constants(self):
        assert (M, B) == (32, 16)
        assert ONLINE_TOTAL == 480
        assert DEFAULT_K == 468
        assert 0 <= ONLINE_TOTAL - DEFAULT_K <= 32

    def test_k_window(self):
        # resolve() checks the window before rank, so placeholder rows do
        ok = KdfcParams(
            key=[0] * 8, iv=[0] * 4, y_init=doc_for(placeholder_y(32, 480), 480)
        )
        ok.resolve()
        # fewer than 448 offline iterations would need more than the 32
        # captured words that exist
        bad = KdfcParams(
            key=[0] * 8, iv=[0] * 4, y_init=doc_for(placeholder_y(32, 447), 447)
        )
        with pytest.raises(ValueError):
            bad.resolve()

    def test_fields(self):
        params = inspect.signature(KdfcParams).parameters
        assert list(params) == ["key", "iv", "y_init", "discard", "verify_config"]
        empty = inspect.Parameter.empty
        assert [p.default for p in params.values()] == [empty, empty, None, 32, True]

    def test_bare_matrix_refused(self):
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, y_init=load_y_init().y)
        with pytest.raises(TypeError, match="YInitDoc"):
            kdfc_init(params)

    def test_document_dimensions_enforced(self):
        y = load_y_init().y
        with pytest.raises(ValueError, match="expected 32x499"):
            doc_for(y, DEFAULT_K - 1)
        rows = y[:31]
        with pytest.raises(ValueError, match="expected 31x499"):
            doc_for(rows, DEFAULT_K)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(dict(checksum="0" * 64), id="checksum"),
            pytest.param(dict(k=447), id="k-below-window"),
            pytest.param(dict(k=481), id="k-above-window"),
            pytest.param(dict(m=31), id="m"),
        ],
    )
    def test_unchecked_document_never_derives(self, monkeypatch, bad):
        from kdfc_snow import confgen, kdfc

        def unreachable(*args, **kwargs):
            raise AssertionError("generate_config reached")

        monkeypatch.setattr(kdfc, "generate_config", unreachable)
        monkeypatch.setattr(confgen, "generate_config", unreachable)
        m = bad.get("m", M)
        k = bad.get("k", DEFAULT_K)
        doc = doc_for(placeholder_y(m, k), k, checksum=bad.get("checksum"))
        with pytest.raises(ValueError):
            kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, y_init=doc))

    def test_negative_discard(self):
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, discard=-1)
        with pytest.raises(ValueError):
            params.resolve()

    @pytest.mark.parametrize("discard", [1.5, "3", True, None])
    def test_non_int_discard_is_refused_by_resolve(self, discard):
        # before the derivation: 1.5 used to fail in range() after it, and
        # True to discard one word
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, discard=discard)
        with pytest.raises(ValueError, match="^discard must be an int"):
            params.resolve()

    @pytest.mark.parametrize("verify", [None, 0, 1, [], "no"], ids=repr)
    def test_non_bool_verify_config_is_refused_by_resolve(self, verify):
        # None, 0 and [] switched the check off without a word, and "no"
        # left it on
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, verify_config=verify)
        with pytest.raises(ValueError, match="^verify_config must be a bool, got "):
            params.resolve()

    def test_discard_bound(self):
        from kdfc_snow.kdfc import MAX_DISCARD

        KdfcParams(key=[0] * 8, iv=[0] * 4, discard=MAX_DISCARD).resolve()
        params = KdfcParams(key=[0] * 8, iv=[0] * 4, discard=10**11)
        with pytest.raises(ValueError, match="discard"):
            params.resolve()


class TestInit:
    def test_zero_key_kat(self):
        st = kdfc_init(KdfcParams(key=[0] * 8, iv=[0] * 4))
        assert kdfc_keystream(st, 8) == ZERO_KAT

    def test_keyed_kat(self):
        st = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        assert kdfc_keystream(st, 8) == KEYED_KAT

    def test_deterministic(self):
        a = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        b = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        assert kdfc_keystream(a, 16) == kdfc_keystream(b, 16)

    def test_config_is_key_dependent(self):
        a = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, discard=0))
        other = list(KAT_KEY)
        other[0] ^= 1
        b = kdfc_init(KdfcParams(key=other, iv=KAT_IV, discard=0))
        assert a.cfg != b.cfg
        assert kdfc_keystream(a, 8) != kdfc_keystream(b, 8)

    def test_config_is_iv_dependent(self):
        a = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, discard=0))
        other = list(KAT_IV)
        other[0] ^= 1
        b = kdfc_init(KdfcParams(key=KAT_KEY, iv=other, discard=0))
        assert a.cfg != b.cfg

    @pytest.mark.parametrize("key", [[0] * 8, KAT_KEY])
    def test_char_poly_is_target(self, key):
        st = kdfc_init(KdfcParams(key=key, iv=KAT_IV, verify_config=False))
        assert config_char_poly(st.cfg) == target_poly()

    def test_discard_semantics(self):
        raw = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, discard=0))
        assert kdfc_keystream(raw, 40)[32:] == KEYED_KAT

    def test_continuation_is_seamless(self):
        a = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        b = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        assert kdfc_keystream(a, 5) + kdfc_keystream(a, 5) == kdfc_keystream(b, 10)

    def test_all_offline_config_ignores_key(self):
        doc = load_y_init()
        y = doc.y
        for i in range(469, 481):
            fill = FillBits.from_seed(M, 1, "w", f"x{i}").vectors[0]
            y = y_iterate(y, i, pipeline_poly(M + i - 1), fill)
        a_st = kdfc_init(KdfcParams(key=[0] * 8, iv=[0] * 4, y_init=doc_for(y, 480)))
        b_st = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV, y_init=doc_for(y, 480)))
        assert a_st.cfg == b_st.cfg
        assert kdfc_keystream(a_st, 4) != kdfc_keystream(b_st, 4)

    def test_bad_key_shape_propagates(self):
        with pytest.raises(KeyError32):
            kdfc_init(KdfcParams(key=[0] * 5, iv=[0] * 4))

    def test_128_bit_key_supported(self):
        st = kdfc_init(KdfcParams(key=KAT_KEY[:4], iv=KAT_IV))
        words = kdfc_keystream(st, 4)
        assert len(words) == 4 and any(words)


class TestReconfigure:
    def test_keeps_contents(self):
        st = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        swapped = reconfigure(st, snow2_gains())
        assert swapped.lfsr == st.lfsr and swapped.lfsr is not st.lfsr
        assert swapped.fsm == st.fsm and swapped.fsm is not st.fsm
        assert swapped.cfg == snow2_gains()

    def test_dimension_mismatch(self):
        from kdfc_snow.sigma_lfsr import SigmaConfig

        st = kdfc_init(KdfcParams(key=KAT_KEY, iv=KAT_IV))
        small = SigmaConfig.from_gains(2, 2, [identity(2)] * 2)
        with pytest.raises(ValueError):
            reconfigure(st, small)


class TestDetachedLfsr:
    def test_output_blocks_satisfy_target_recurrence(self):
        st = kdfc_init(
            KdfcParams(key=KAT_KEY, iv=KAT_IV, discard=0, verify_config=False)
        )
        s, tables = st.lfsr, gain_tables(st.cfg.gains())
        exps = exponents(target_poly())
        steps = 200
        words = []
        for _ in range(steps + 512):
            s, out = lfsr_step(tables, s)
            words.append(out)
        for t in range(steps):
            acc = 0
            for e in exps:
                acc ^= words[t + e]
            assert acc == 0
