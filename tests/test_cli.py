"""Command-line interface: outputs, exit codes, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import site
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KAT_IV, KAT_KEY

from kdfc_snow import cli
from kdfc_snow.cli import main
from kdfc_snow.confgen import count_configurations, pipeline_poly
from kdfc_snow.gf2.linalg import matrix_to_json
from kdfc_snow.kdfc import _YINIT_SHAPE, TARGET_POLY_EXPONENTS, load_y_init

REPO_ROOT = Path(__file__).resolve().parents[1]
ZERO_KEY = "0" * 64
ZERO_IV = "0" * 32
KAT_KEY_HEX = "".join(f"{w:08x}" for w in KAT_KEY)
KAT_IV_HEX = "".join(f"{w:08x}" for w in KAT_IV)

SNOW_ZERO_FIRST8 = [
    "b56f2d8e", "430e20bc", "444a4a78", "77a9788f",
    "4f060087", "fcedd8c2", "10daed5d", "42aa2c88",
]
KDFC_KEYED_FIRST8 = [
    "4668f2b6", "8c1f8cc4", "b770cb47", "4cb1af7a",
    "99f903a7", "7dc2e350", "eb1f0c19", "efe0da38",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSnow2Stream:
    def test_zero_key_words(self, capsys):
        code, out, _ = run(
            capsys, "snow2", "stream", "--key", ZERO_KEY, "--iv", ZERO_IV,
            "-n", "8",
        )
        assert code == 0
        assert out.splitlines() == SNOW_ZERO_FIRST8

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("snow2", "stream", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
                "-n", "16")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_n_zero_is_empty_success(self, capsys):
        code, out, err = run(
            capsys, "snow2", "stream", "--key", ZERO_KEY, "--iv", ZERO_IV,
            "-n", "0",
        )
        assert code == 0 and out == "" and err == ""

    def test_mixed_case_key_accepted(self, capsys):
        code, out, _ = run(
            capsys, "snow2", "stream", "--key", ZERO_KEY.upper(), "--iv",
            ZERO_IV, "-n", "1",
        )
        assert code == 0 and out.splitlines() == SNOW_ZERO_FIRST8[:1]

    def test_bad_key_length(self, capsys):
        code, out, err = run(
            capsys, "snow2", "stream", "--key", "ab", "--iv", ZERO_IV,
            "-n", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "64 hex digits" in err

    def test_bad_hex(self, capsys):
        code, _, err = run(
            capsys, "snow2", "stream", "--key", "zz" * 32, "--iv", ZERO_IV,
            "-n", "1",
        )
        assert code == 1 and "not valid hex" in err


class TestChunkedStream:
    """Streams are written STREAM_CHUNK words at a time, byte for byte as one."""

    @pytest.fixture(scope="class")
    def reference(self):
        from kdfc_snow import kdfc, snow2

        n = cli.STREAM_CHUNK + 17
        return {
            "snow2": snow2.snow2_keystream(snow2.snow2_init(KAT_KEY, KAT_IV), n),
            "kdfc": snow2.snow2_keystream(
                kdfc.kdfc_init(kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV)), n
            ),
        }

    def test_chunk_size(self, capsys, monkeypatch):
        # no keystream call asks for more than STREAM_CHUNK words
        calls = []
        real = cli.snow2_keystream
        monkeypatch.setattr(
            cli, "snow2_keystream", lambda st, n: calls.append(n) or real(st, n)
        )
        n = 2 * cli.STREAM_CHUNK + 5
        code, out, _ = run(capsys, "snow2", "stream", "--key", ZERO_KEY, "--iv",
                           ZERO_IV, "-n", str(n))
        assert code == 0 and len(out.splitlines()) == n
        assert calls == [cli.STREAM_CHUNK, cli.STREAM_CHUNK, 5]

    @pytest.mark.parametrize("cipher", ["snow2", "kdfc"])
    @pytest.mark.parametrize("n", [
        0, 1, 15, 16, 17,
        cli.STREAM_CHUNK - 1, cli.STREAM_CHUNK, cli.STREAM_CHUNK + 17,
    ])
    def test_stdout_and_out_file_match_one_call(
        self, capsys, tmp_path, reference, cipher, n
    ):
        want = "".join(f"{w:08x}\n" for w in reference[cipher][:n])
        args = (cipher, "stream", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
                "-n", str(n))
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, want, "")
        path = tmp_path / "ks.txt"
        code, out, _ = run(capsys, *args, "--out", str(path))
        assert (code, out) == (0, "")
        if n == 0:
            assert not path.exists()
        else:
            assert path.read_text() == want

    def test_negative_n(self, capsys):
        code, out, err = run(
            capsys, "snow2", "stream", "--key", ZERO_KEY, "--iv", ZERO_IV, "-n", "-1",
        )
        assert code == 1 and out == "" and err.startswith("error:")


class TestKdfc:
    def test_stream_kat(self, capsys):
        code, out, _ = run(
            capsys, "kdfc", "stream", "--key", KAT_KEY_HEX, "--iv",
            KAT_IV_HEX, "-n", "8",
        )
        assert code == 0
        assert out.splitlines() == KDFC_KEYED_FIRST8

    def test_init_document(self, capsys, tmp_path):
        out_path = tmp_path / "state.json"
        code, _, _ = run(
            capsys, "kdfc", "init", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["m"] == 32 and doc["b"] == 16
        assert doc["char_poly"] == sorted(TARGET_POLY_EXPONENTS, reverse=True)
        assert len(doc["lfsr"]) == 16
        assert set(doc["fsm"]) == {"r1", "r2"}

    def test_state_resume_matches_direct(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        run(
            capsys, "kdfc", "init", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
            "--out", str(state),
        )
        code, resumed, _ = run(
            capsys, "kdfc", "stream", "--state", str(state), "-n", "8"
        )
        assert code == 0
        _, direct, _ = run(
            capsys, "kdfc", "stream", "--key", KAT_KEY_HEX, "--iv",
            KAT_IV_HEX, "-n", "8",
        )
        assert resumed == direct

    def test_stream_needs_key_or_state(self, capsys):
        code, _, err = run(capsys, "kdfc", "stream", "-n", "4")
        assert code == 1 and "needs --key and --iv, or --state" in err

    def test_huge_discard_refused(self, capsys, monkeypatch):
        # refused before the key/IV set-up, so nothing runs for 10^11 words
        from kdfc_snow import kdfc

        def unreachable(*_):
            raise AssertionError("kdfc_init reached its set-up")

        monkeypatch.setattr(kdfc, "init_with_captures", unreachable)
        code, out, err = run(
            capsys, "kdfc", "stream", "--key", ZERO_KEY, "--iv", ZERO_IV,
            "-n", "2", "--discard", "100000000000",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(kdfc.MAX_DISCARD) in err

    def test_dump_config(self, capsys):
        code, out, _ = run(
            capsys, "kdfc", "dump-config", "--key", KAT_KEY_HEX, "--iv",
            KAT_IV_HEX,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["char_poly"] == sorted(TARGET_POLY_EXPONENTS, reverse=True)
        assert "lfsr" not in doc and "fsm" not in doc
        assert doc["config"]["m"] == 32


@pytest.fixture(scope="module")
def state_doc(tmp_path_factory):
    """The KAT state document that `kdfc init` writes."""
    path = tmp_path_factory.mktemp("state") / "state.json"
    assert main([
        "kdfc", "init", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
        "--out", str(path),
    ]) == 0
    return json.loads(path.read_text())


class TestStateDocument:
    """`kdfc stream --state` refuses bad documents and streams nothing."""

    def stream(self, capsys, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "kdfc", "stream", "--state", str(path), "-n", "4")

    @pytest.mark.parametrize("word", ["12", 1.5, None, [1]])
    def test_non_integer_lfsr_word(self, capsys, tmp_path, state_doc, word):
        doc = json.loads(json.dumps(state_doc))
        doc["lfsr"][3] = word
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not an integer" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda words: words.__setitem__(3, 1 << 32), "block 3 not an 32-bit word"),
        (lambda words: words.__setitem__(0, -1), "block 0 not an 32-bit word"),
        (lambda words: words.pop(), "does not match configuration dimensions"),
        (lambda words: words.append(0), "does not match configuration dimensions"),
    ], ids=["wide", "negative", "missing", "extra"])
    def test_lfsr_word_out_of_range_or_miscounted(
        self, capsys, tmp_path, state_doc, edit, message
    ):
        doc = json.loads(json.dumps(state_doc))
        edit(doc["lfsr"])
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_non_integer_fsm_register(self, capsys, tmp_path, state_doc):
        doc = json.loads(json.dumps(state_doc))
        doc["fsm"]["r2"] = "0"
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_zeroed_gains(self, capsys, tmp_path, monkeypatch, state_doc):
        # refused by the check against the target, never by the dense char poly
        from kdfc_snow import sigma_lfsr

        def dense(_):
            raise AssertionError("dense char_poly called")

        monkeypatch.setattr(sigma_lfsr, "char_poly", dense)
        doc = json.loads(json.dumps(state_doc))
        for gain in doc["config"]["gains"]:
            gain["data"] = ["0" * len(row) for row in gain["data"]]
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "target characteristic" in err

    def test_char_poly_field_mismatch(self, capsys, tmp_path, state_doc):
        doc = json.loads(json.dumps(state_doc))
        doc["char_poly"] = [512, 0]
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "char_poly" in err

    @pytest.mark.parametrize("field", ["config", "lfsr", "fsm"])
    def test_missing_field_is_named(self, capsys, tmp_path, state_doc, field):
        doc = json.loads(json.dumps(state_doc))
        del doc[field]
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"{field!r} missing" in err

    def test_missing_nested_field_is_named(self, capsys, tmp_path, state_doc):
        doc = json.loads(json.dumps(state_doc))
        del doc["fsm"]["r1"]
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'r1' missing" in err

    @pytest.mark.parametrize("m,b", [(64, 8), (16, 32), (32, 8)])
    def test_shape_other_than_32x16(self, capsys, tmp_path, monkeypatch, m, b):
        # refused before the char-poly check, whatever the gains are
        import random

        from kdfc_snow.sigma_lfsr import SigmaConfig

        rng = random.Random(f"{m}x{b}")
        gains = [[rng.getrandbits(m) for _ in range(m)] for _ in range(b)]
        doc = {
            "m": m,
            "b": b,
            "char_poly": [m * b, 0],
            "config": SigmaConfig.from_gains(m, b, gains).to_json(),
            "lfsr": [rng.getrandbits(m) for _ in range(b)],
            "fsm": {"r1": 1, "r2": 2},
        }

        def no_char_poly(_):
            raise AssertionError("char poly computed for a refused shape")

        monkeypatch.setattr(cli, "config_char_poly", no_char_poly)
        monkeypatch.setattr(cli, "annihilates", no_char_poly)
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"{m}x{b}" in err

    @pytest.mark.parametrize("doc", [[1], "state", 3, None])
    def test_not_a_json_object(self, capsys, tmp_path, doc):
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "expected a JSON object" in err

    @pytest.mark.parametrize("edit,field,expected", [
        (lambda d: d.update(fsm=[1, 2]), "'fsm'", "an object"),
        (lambda d: d["config"].update(gains=[[1]] * 16), "'config.gains[0]'", "an object"),
    ], ids=["fsm-array", "gains-arrays"])
    def test_ill_typed_nested_field_is_named(
        self, capsys, tmp_path, state_doc, edit, field, expected
    ):
        doc = json.loads(json.dumps(state_doc))
        edit(doc)
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"field {field} is not {expected}" in err
        assert "indices" not in err and "Traceback" not in err

    def test_malformed_config(self, capsys, tmp_path, state_doc):
        doc = json.loads(json.dumps(state_doc))
        doc["config"]["gains"][0] = 7
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "malformed" in err


class TestYInitDocument:
    """`--y-init` documents get the same checks as the shipped one."""

    def stream(self, capsys, tmp_path, doc):
        path = tmp_path / "y.json"
        path.write_text(json.dumps(doc))
        return run(
            capsys, "kdfc", "stream", "--key", KAT_KEY_HEX, "--iv",
            KAT_IV_HEX, "--y-init", str(path), "-n", "4",
        )

    def test_copy_of_shipped_document_streams(self, capsys, tmp_path):
        code, out, _ = self.stream(capsys, tmp_path, load_y_init().to_json())
        assert code == 0 and out.splitlines() == KDFC_KEYED_FIRST8[:4]

    def test_tampered_table_checksum(self, capsys, tmp_path):
        doc = load_y_init().to_json()
        doc["poly_table_sha256"] = "0" * 64
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "polynomial table" in err

    def test_missing_field_is_named(self, capsys, tmp_path):
        code, out, err = self.stream(capsys, tmp_path, {"m": 32})
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'k' missing" in err

    def test_ill_typed_field_is_named(self, capsys, tmp_path):
        doc = load_y_init().to_json()
        doc["k"] = "468"
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "field 'k' is not an integer (got a string)" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda y: y["data"].__setitem__(0, 1), "field 'y.data[0]' is not a string"),
        (lambda y: y.pop("data"), "field 'data' missing from 'y'"),
        (lambda y: y.update(cols=True), "field 'y.cols' is not an integer (got a boolean)"),
        (lambda y: y.update(rows="32"), "field 'y.rows' is not an integer (got a string)"),
        (lambda y: y.update(cols=-3, data=[""] * 32), "negative column count"),
    ], ids=["int-row", "no-data", "bool-cols", "str-rows", "negative-cols"])
    def test_ill_typed_matrix_field_is_named(self, capsys, tmp_path, edit, message):
        doc = load_y_init().to_json()
        edit(doc["y"])
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert "Error(" not in err and "Traceback" not in err

    def test_bad_digit_in_a_long_row_is_named_briefly(self, capsys, tmp_path):
        # one non-hex digit in a 100,000-digit row: the error line names the
        # row by its first 32 characters and its length, not in full
        doc = load_y_init().to_json()
        doc["y"] = {"rows": 1, "cols": 400_000, "data": ["0" * 99_999 + "g"]}
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not a hex string" in err
        assert "(100000 characters)" in err
        assert len(err.encode()) < 200 and "Traceback" not in err

    def test_k_outside_the_online_window(self, capsys, tmp_path):
        # the document's k is the only k; 447 would need 33 captured words
        doc = load_y_init().to_json()
        doc["k"] = 447
        # placeholder rows with the width of 447 offline iterations: e_1 of 479 bits
        doc["y"] = matrix_to_json([1 << t for t in range(31)] + [1 << 478], 479)
        code, out, err = self.stream(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "k=447" in err

    def test_rank_deficient_y_init_is_refused(self, capsys, tmp_path):
        # row 21 is active at iteration 469; a copy of row 0 there is dependent
        doc = load_y_init()
        rows = list(doc.y)
        rows[(doc.k + 1) % doc.m] = rows[0]
        path = tmp_path / "y.json"
        path.write_text(json.dumps({**doc.to_json(), "y": matrix_to_json(rows, 500)}))
        code, out, err = run(
            capsys, "kdfc", "init", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX,
            "--y-init", str(path),
        )
        assert code == 1 and out == ""
        assert err == "error: rank dropped below 32 at iteration 469\n"

    @pytest.mark.parametrize("sub", ["init", "stream", "dump-config"])
    def test_kdfc_commands_take_no_k(self, capsys, sub):
        argv = ["kdfc", sub, "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX, "--k", "468"]
        if sub == "stream":
            argv += ["-n", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: one value of each JSON type, keyed by the name refusals give it
JSON_SAMPLES = {
    "an object": {}, "an array": [], "an integer": 7, "a number": 1.5,
    "a string": "7", "a boolean": True, "null": None,
}


def shape_paths(value, shape, path=()):
    """Every field path below the root that `shape` declares in `value`."""
    if isinstance(shape, dict):
        items = list(shape.items())
    elif isinstance(shape, list):
        items = [(i, shape[0]) for i in range(len(value))]
    else:
        return
    for key, sub in items:
        yield path + (key,)
        yield from shape_paths(value[key], sub, path + (key,))


def path_name(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def stream_doc(doc, tmp, flag):
    """Run `kdfc stream` on doc given as --state or --y-init; (code, out, err)."""
    path = tmp / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["kdfc", "stream", flag, str(path), "-n", "4"]
    if flag == "--y-init":
        argv += ["--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDocumentFieldTypes:
    """One field of a document, at any depth, replaced by each other JSON type."""

    @pytest.mark.parametrize("flag", ["--state", "--y-init"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ill_typed_field_is_refused_by_path(
        self, tmp_path_factory, state_doc, flag, data
    ):
        if flag == "--state":
            base, shape = state_doc, cli._STATE_SHAPE
        else:
            base, shape = load_y_init().to_json(), _YINIT_SHAPE
        path = data.draw(st.sampled_from(list(shape_paths(base, shape))))
        doc = json.loads(json.dumps(base))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = data.draw(st.sampled_from([
            name for name, v in JSON_SAMPLES.items() if type(v) is not type(parent[path[-1]])
        ]))
        parent[path[-1]] = JSON_SAMPLES[kind]
        code, out, err = stream_doc(doc, tmp_path_factory.mktemp("doc"), flag)
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert f"field {path_name(path)!r} is not" in err and f"(got {kind})" in err
        assert "Traceback" not in err and "Error(" not in err


GOLDEN_ARGV = {
    "kdfc-init": ["kdfc", "init", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX],
    "kdfc-dump-config": ["kdfc", "dump-config", "--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX],
    "gen-config-4x4-k3": ["gen-config", "--m", "4", "--b", "4", "--k", "3", "--seed", "x"],
    "gen-config-32x16": ["gen-config", "--m", "32", "--b", "16", "--seed", "x"],
    "gen-config-poly": [
        "gen-config", "--m", "2", "--b", "4", "--seed", "s", "--poly", "8,4,3,2,0",
    ],
    "char-poly-seeded": ["char-poly", "--m", "4", "--b", "4", "--k", "3", "--seed", "x"],
    "char-poly-snow2": ["char-poly", "--snow2"],
    "char-poly-target": ["char-poly", "--target"],
}
#: sha256 of each command's stdout, recorded before the document writers
#: were merged into one; the outputs must stay byte-identical
GOLDEN_SHA256 = {
    "kdfc-init": "b37310702c5ed9e8a54f58e535a54dfc591f733754655adfa501459b704ce4c9",
    "kdfc-dump-config": "399f03949a33c39cda9f91f65cab4e4b8df7c4ba471dcc0c37469610b497d0ee",
    "gen-config-4x4-k3": "49b473492bdba879448e5a496a07d1ad93adb53a2f44a30e23dbea3ec027bfcc",
    "gen-config-32x16": "f6bfac4d6000bff4fc36e2db2a38a91d2bc369478a2ff3f305e836a51e3fdf9c",
    "gen-config-poly": "f83faf45bb1e161680a82ebca733d899ccbfd635a0b9fa1fff22013d34788837",
    "char-poly-seeded": "0485cd8fcc239a13b0fe3054cb7688706e88c735f4ad929c5901a3673a122822",
    "char-poly-snow2": "2ec993b907b068dc3b726a57646684f3ce040848ce83dfa445db7641abf132b0",
    "char-poly-target": "7fc367c2e489e180f985b223d0706acf619e3cc3d2d7d4e16ae42ef7acd6f5ed",
    "kdfc-stream-state": "b4a7a911ec9b2a00ff99cebb1e87e1a19f2ee395016a5ccc929fc811ccc2126f",
}


#: the symbolic analyses' outputs, recorded before theorem1_check read its
#: entry as one replaced-row determinant and AnfPoly monomials became ints
SYMBOLIC_GOLDEN_ARGV = {
    "lemmas-2x2": ["verify", "lemmas", "--m", "2", "--b", "2", "--json"],
    "lemmas-2x4": ["verify", "lemmas", "--m", "2", "--b", "4", "--json"],
    "lemmas-3x2": ["verify", "lemmas", "--m", "3", "--b", "2", "--json"],
    "lemmas-2x5": ["verify", "lemmas", "--m", "2", "--b", "5", "--json"],
    "lemmas-3x3": ["verify", "lemmas", "--m", "3", "--b", "3", "--json"],
    "lemmas-4x2": ["verify", "lemmas", "--m", "4", "--b", "2", "--json"],
    "theorem1-2x4-poly": ["verify", "theorem1", "--m", "2", "--b", "4", "--poly", "8,4,3,2,0"],
    "theorem1-3x2": ["verify", "theorem1", "--m", "3", "--b", "2"],
    "theorem1-4x2": ["verify", "theorem1", "--m", "4", "--b", "2"],
}
SYMBOLIC_GOLDEN_SHA256 = {
    "lemmas-2x2": "a96f2b3d140730bd3e77b3a8ee136632e9c8b46d40ee6b52a4cd5acee95eb7a7",
    "lemmas-2x4": "e2194aada40dd7310b475ddf5d0ce0cf992f9a60003679a326179a33e075b6b6",
    "lemmas-3x2": "105917061ffb8b4d08d8fba9e29483d3ce5e3b132c6cc0001a6cde4d67fefb2e",
    "lemmas-2x5": "6ec705b86492ff9a2e859129244e74954edf377d9fffcd9df2400de29b6f670f",
    "lemmas-3x3": "47992b222c5349962593638f83db2c3e31a60150e16217cc8c7a83269e8a1cad",
    "lemmas-4x2": "e589a7e7734ba4063cf1d2827c2c6a05709cd683e8af9fd013817c9a4f690a2b",
    "theorem1-2x4-poly": "4b216ae95b43d6b3ab87370613d082986612974888dde3b076c96015c5aa30c2",
    "theorem1-3x2": "4b216ae95b43d6b3ab87370613d082986612974888dde3b076c96015c5aa30c2",
    "theorem1-4x2": "9a7fca2ae782b5e4ed996ff89de93acc0d180e9fb6a82e381f607a6bdb24c0b2",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", list(GOLDEN_ARGV))
    def test_output_is_byte_identical(self, capsys, name):
        code, out, _ = run(capsys, *GOLDEN_ARGV[name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]

    def test_stream_from_state_is_byte_identical(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        run(capsys, *GOLDEN_ARGV["kdfc-init"], "--out", str(state))
        code, out, _ = run(capsys, "kdfc", "stream", "--state", str(state), "-n", "64")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256["kdfc-stream-state"]

    @pytest.mark.parametrize("name", list(SYMBOLIC_GOLDEN_ARGV))
    def test_symbolic_output_is_byte_identical(self, capsys, name):
        code, out, _ = run(capsys, *SYMBOLIC_GOLDEN_ARGV[name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SYMBOLIC_GOLDEN_SHA256[name]

    def test_writers_do_not_recompute_the_char_poly(self, capsys, monkeypatch):
        # the written char_poly is the one generate_config(verify=True)
        # checked, by one annihilates call; config_char_poly never runs
        from kdfc_snow import confgen, sigma_lfsr

        checks, computed = [], []
        real = sigma_lfsr.annihilates
        monkeypatch.setattr(
            confgen, "annihilates", lambda cfg, p: checks.append(cfg) or real(cfg, p)
        )
        for module in (cli, confgen, sigma_lfsr):
            monkeypatch.setattr(module, "config_char_poly", computed.append, raising=False)
        for name in ("kdfc-init", "kdfc-dump-config", "gen-config-4x4-k3", "char-poly-seeded"):
            checks.clear()
            code, out, _ = run(capsys, *GOLDEN_ARGV[name])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]
            assert len(checks) == 1  # the verify inside generate_config
        assert computed == []


class TestGenConfig:
    def test_char_poly_is_prescribed(self, capsys):
        code, out, _ = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "demo",
        )
        assert code == 0
        doc = json.loads(out)
        want = [e for e in range(8, -1, -1) if pipeline_poly(8) >> e & 1]
        assert doc["polynomial"] == want
        assert doc["char_poly"] == want
        assert doc["m"] == 2 and doc["b"] == 4 and doc["seed"] == "demo"

    def test_deterministic(self, capsys):
        args = ("gen-config", "--m", "4", "--b", "4", "--k", "3", "--seed", "x")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_poly_override(self, capsys):
        code, out, _ = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s",
            "--poly", "8,4,3,2,0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["polynomial"] == [8, 4, 3, 2, 0]
        assert doc["char_poly"] == [8, 4, 3, 2, 0]

    def test_poly_runs_rabin_once(self, capsys, monkeypatch):
        # is_primitive runs Rabin's test itself; a second is_irreducible
        # call on --poly is spent only to word a refusal
        from kdfc_snow.gf2 import poly

        real, calls = poly.is_irreducible, []

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poly, "is_irreducible", counted)
        monkeypatch.setattr(cli, "is_irreducible", counted)
        code, _, _ = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s",
            "--poly", "8,4,3,2,0",
        )
        assert code == 0
        assert calls == [0x11D]  # x^8 + x^4 + x^3 + x^2 + 1

    def test_poly_degree_mismatch(self, capsys):
        code, _, err = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s",
            "--poly", "4,1,0",
        )
        assert code == 1 and "degree" in err

    @pytest.mark.parametrize("poly", ["16,0", "16,1,0", "16,8,0"])
    def test_poly_reducible(self, capsys, poly):
        # x^16 + 1 = (x + 1)^16 and x^16 + x^8 + 1 = (x^8 + x^4 + 1)^2; the
        # trinomial x^16 + x + 1 has no root but factors too
        code, out, err = run(
            capsys, "gen-config", "--m", "4", "--b", "4", "--seed", "x",
            "--poly", poly,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "reducible" in err

    def test_poly_not_primitive(self, capsys):
        # x^8 + x^4 + x^3 + x + 1 is irreducible, but x has order 51 mod it
        code, out, err = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s",
            "--poly", "8,4,3,1,0",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not primitive" in err

    def test_degree_one(self, capsys):
        # x is irreducible but not primitive; x + 1 is primitive
        code, out, err = run(
            capsys, "gen-config", "--m", "1", "--b", "1", "--seed", "s", "--poly", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not primitive" in err
        code, out, _ = run(
            capsys, "gen-config", "--m", "1", "--b", "1", "--seed", "s", "--poly", "1,0",
        )
        assert code == 0 and json.loads(out)["char_poly"] == [1, 0]

    @pytest.mark.parametrize("poly,message", [
        ("8,8,4,3,2,0", "exponent 8 is repeated"),
        ("8,4,3,2,0,0", "exponent 0 is repeated"),
        ("8,4,x,2,0", "exponent 'x' is not a non-negative integer"),
        ("8,4,3,2,-1", "exponent '-1' is not a non-negative integer"),
        (",", "empty exponent list"),
        ("", "empty exponent list"),  # not the table's polynomial
    ])
    def test_poly_is_refused_not_folded(self, capsys, poly, message):
        # a repeated term used to be ORed away: 8,8,4,3,2,0 read as x^8+x^4+x^3+x^2+1
        code, out, err = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s", "--poly", poly,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"--poly {poly}: {message}" in err

    def test_poly_degree_mismatch_comes_first(self, capsys):
        code, _, err = run(
            capsys, "gen-config", "--m", "4", "--b", "4", "--seed", "x",
            "--poly", "15,0",
        )
        assert code == 1 and "degree 16, got 15" in err

    def test_huge_exponent_is_refused_before_it_is_built(self, capsys):
        # x^100000000 is a 12.5 MB int; the degree m*b bounds the parser first
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "gen-config", "--m", "2", "--b", "4", "--seed", "s",
                "--poly", "100000000,0",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == "error: --poly must have degree 8, got 100000000\n"
        assert peak < 2 << 20

    @pytest.mark.parametrize("argv", [
        ["gen-config", "--seed", "s"],
        ["char-poly", "--seed", "s"],
        ["verify", "lemmas"],
        ["verify", "theorem1"],
        ["verify", "period", "--seed", "s"],
    ], ids=["gen-config", "char-poly", "verify-lemmas", "verify-theorem1", "verify-period"])
    def test_poly_degree_above_the_table_is_refused_first(self, capsys, monkeypatch, argv):
        # m*b = 100000 used to reach Rabin's test on a degree-100000 --poly
        for name in ("parse_exponents", "is_irreducible"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        code, out, err = run(
            capsys, *argv, "--m", "1000", "--b", "100", "--poly", "100000,1,0",
        )
        assert code == 1 and out == ""
        assert err == "error: m*b = 100000 is above 513, the largest the table serves\n"

    def test_k_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "gen-config", "--m", "2", "--b", "4", "--k", "7",
            "--seed", "s",
        )
        assert code == 1 and "--k must be in [0, 6]" in err


class TestCharPoly:
    def test_target_listing(self, capsys):
        code, out, _ = run(capsys, "char-poly", "--target")
        assert code == 0
        got = [int(t) for t in out.split()]
        assert got == sorted(TARGET_POLY_EXPONENTS, reverse=True)

    def test_snow2_computed_is_reciprocal_of_target(self, capsys):
        code, out, _ = run(capsys, "char-poly", "--snow2")
        assert code == 0
        got = [int(t) for t in out.split()]
        assert got == sorted((512 - e for e in TARGET_POLY_EXPONENTS),
                             reverse=True)

    def test_seeded_route(self, capsys):
        code, out, _ = run(
            capsys, "char-poly", "--m", "2", "--b", "2", "--seed", "s",
        )
        assert code == 0
        want = [e for e in range(4, -1, -1) if pipeline_poly(4) >> e & 1]
        assert [int(t) for t in out.split()] == want

    def test_needs_a_mode(self, capsys):
        code, _, err = run(capsys, "char-poly")
        assert code == 1 and "char-poly needs" in err


class TestAnalyze:
    def test_bias_output(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "bias", "--eps-log2", "-27.61", "--taps", "250",
        )
        assert code == 0
        assert out == "eps_final_log2 = -6653.5\nkeystream_log2 = 13307.0\n"

    @pytest.mark.parametrize("eps", ["nan", "-inf"])
    def test_bias_rejects_non_finite(self, capsys, eps):
        code, out, err = run(
            capsys, "analyze", "bias", f"--eps-log2={eps}", "--taps", "250",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_bias_rejects_taps_beyond_float_range(self, capsys):
        code, out, err = run(
            capsys, "analyze", "bias", "--eps-log2", "-1", "--taps", "1" + "0" * 400,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too large" in err

    def test_linearization_work_is_bounded(self):
        # in a child process, so that an unbounded count fails on the timeout
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "kdfc_snow.cli", "analyze", "linearization",
             "--n", "100000000", "--degree", "50000000"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "too large" in proc.stderr

    def test_linearization_exact(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "linearization", "--n", "544", "--degree", "2",
            "--exact",
        )
        assert code == 0
        lines = dict(l.split(" = ") for l in out.splitlines())
        assert lines["monomials"] == "148241"
        assert abs(float(lines["monomials_log2"]) - 17.1776) < 1e-3

    def test_gd_snow2_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "gd", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["basis"] == [39, 8, 6, 22, 10, 2, 7, 9, 12]
        assert doc["basis_size"] == 9
        assert doc["guess_complexity_log2"] == 288

    def test_gd_kdfc_no_cover(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "gd", "--cipher", "kdfc", "--max-stages", "1",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is False
        assert doc["eliminated"] == 1
        assert doc["node_count"] == 1542

    def test_gd_text_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "gd")
        assert code == 0 and "found = True" in out

    def test_gd_work_is_bounded(self):
        # in a child process, so that an unbounded search fails on the timeout:
        # four stages over 1,542 nodes would score 7.1 M paths
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "kdfc_snow.cli", "analyze", "gd",
             "--cipher", "kdfc", "--max-stages", "4"],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "guard" in proc.stderr


def _hex_stream(nbits, seed=20260825):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=nbits // 8, dtype=np.uint8)
    return bytes(data.tolist()).hex()


class TestRandtest:
    def test_passing_stream_text(self, capsys, tmp_path):
        path = tmp_path / "ks.hex"
        path.write_text(_hex_stream(1_000_000))
        code, out, _ = run(capsys, "randtest", "--in", str(path))
        assert code == 0
        assert "all tests passed" in out
        assert out.count("PASS") == 10

    def test_zero_stream_fails(self, capsys, tmp_path):
        path = tmp_path / "zeros.hex"
        path.write_text("0" * 250_000)
        code, out, _ = run(capsys, "randtest", "--in", str(path))
        assert code == 1
        assert "some tests FAILED" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "ks.hex"
        path.write_text(_hex_stream(1_000_000))
        code, out, _ = run(
            capsys, "randtest", "--in", str(path), "--report", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["bits"] == 1_000_000
        assert len(doc["results"]) == 10

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(_hex_stream(1_000_000)))
        code, out, _ = run(capsys, "randtest", "--in", "-")
        assert code == 0 and "all tests passed" in out

    def test_too_short_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.hex"
        path.write_text("ab" * 100)
        code, _, err = run(capsys, "randtest", "--in", str(path))
        assert code == 1 and err.startswith("error:")

    def test_non_hex_line_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0000000a\nzz\n"))
        code, out, err = run(capsys, "randtest", "--in", "-")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "line 2" in err and "'zz'" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "randtest", "--in", "/nonexistent.hex")
        assert code == 1 and err.startswith("error:")

    @given(st.lists(st.sampled_from([
        b"0", b"7", b"a", b"F", b" ", b"\t", b"\n", b"\r\n", b"g", b"z", b"-",
        b"0x", b"\x00", b"\xff", "\u00e9".encode(), "\u0663".encode(),
    ]), max_size=40))
    @settings(max_examples=60)
    def test_short_text_is_refused_cleanly(self, tmp_path_factory, pieces):
        # too short for the battery, or not hex, or not UTF-8: each one an
        # error line and exit 1
        path = tmp_path_factory.mktemp("hex") / "in.hex"
        path.write_bytes(b"".join(pieces))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["randtest", "--in", str(path)])
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().splitlines()[0].startswith("error:")
        assert "Traceback" not in err.getvalue()


class TestVerify:
    def test_lemmas_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "lemmas", "--m", "2", "--b", "2")
        assert code == 0 and "all claims hold" in out

    def test_lemmas_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "lemmas", "--m", "2", "--b", "2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_hold"] is True

    def test_theorem1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "theorem1", "--m", "2", "--b", "4", "--poly",
            "8,4,3,2,0",
        )
        assert code == 0
        assert "corner entry degree = 4" in out and "PASS" in out

    def test_count(self, capsys):
        code, out, _ = run(capsys, "verify", "count", "--m", "2", "--b", "2")
        assert code == 0
        assert "formula     = 16" in out and "PASS" in out

    def test_count_guard(self, capsys):
        # 2^27 gain tuples are beyond enumeration: the formula alone, exit 0
        code, out, err = run(capsys, "verify", "count", "--m", "3", "--b", "3")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "formula     = 4718592",
            "enumeration skipped: 2^27 gain tuples exceed the limit of 2^20",
        ]

    def test_count_at_full_scale(self, capsys):
        # the KDFC-SNOW configuration count has 4,929 decimal digits, more
        # than the interpreter converts to str by default
        code, out, err = run(capsys, "verify", "count", "--m", "32", "--b", "16")
        assert code == 0 and err == ""
        formula, skipped = out.splitlines()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(count_configurations(32, 16))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) == 4929
        assert formula == f"formula     = {want}"
        assert skipped.startswith("enumeration skipped: 2^16384 gain tuples")

    @pytest.mark.parametrize("m,b,bad", [
        ("0", "0", "m=0"), ("-1", "2", "m=-1"), ("2", "0", "b=0"), ("3", "-4", "b=-4"),
    ])
    def test_count_refuses_non_positive_dims(self, capsys, m, b, bad):
        code, out, err = run(capsys, "verify", "count", "--m", m, "--b", b)
        assert code == 1 and out == ""
        assert err.startswith("error:") and bad in err
        assert "Traceback" not in err

    def test_period(self, capsys):
        code, out, _ = run(
            capsys, "verify", "period", "--m", "2", "--b", "2", "--seed", "s",
        )
        assert code == 0
        assert "period   = 15" in out and "PASS" in out


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["snow2", "stream", "--key", ZERO_KEY, "-n", "1"])
        assert exc.value.code == 2


def leaves(parser, path=()):
    """(command words, parser) of every command that takes no subcommand."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from leaves(sub, path + (name,))


#: the options that more than one command takes
SHARED_FLAGS = ["--key", "--iv", "-n", "--discard", "--y-init", "--m", "--b",
                "--k", "--seed", "--poly", "--json", "--out"]


class TestParser:
    def test_every_command_refuses_abbreviations(self):
        found = dict(leaves(cli.build_parser()))
        assert len(found) == 14
        assert [" ".join(path) for path, p in found.items() if p.allow_abbrev] == []

    def test_one_help_text_per_shared_flag(self):
        helps = {flag: [] for flag in SHARED_FLAGS}
        for _, parser in leaves(cli.build_parser()):
            for action in parser._actions:
                for flag in set(action.option_strings) & helps.keys():
                    helps[flag].append(action.help)
        for flag, texts in helps.items():
            assert len(texts) >= 2, flag
            assert None not in texts and len(set(texts)) == 1, (flag, texts)

    def test_k_is_not_read_as_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["snow2", "stream", "--k", ZERO_KEY, "--iv", ZERO_IV, "-n", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestDimensions:
    """m or b below 1 gets one message, before any table lookup."""

    @pytest.mark.parametrize("argv", [
        ["gen-config", "--seed", "s"],
        ["char-poly", "--seed", "s"],
        ["verify", "lemmas"],
        ["verify", "theorem1"],
        ["verify", "period", "--seed", "s"],
    ], ids=["gen-config", "char-poly", "verify-lemmas", "verify-theorem1", "verify-period"])
    @pytest.mark.parametrize("m,b,bad", [
        ("0", "4", "m=0"), ("2", "0", "b=0"), ("-2", "-2", "m=-2"),
    ])
    def test_non_positive_dims_refused_first(self, capsys, monkeypatch, argv, m, b, bad):
        monkeypatch.setattr(cli, "pipeline_poly", lambda *a: pytest.fail("table lookup"))
        code, out, err = run(capsys, *argv, "--m", m, "--b", b)
        assert code == 1 and out == ""
        assert err == f"error: need {bad[0]} >= 1, got {bad}\n"


class TestDeclaredColumnCount:
    """A matrix's declared column count is not allocated before it is checked."""

    def test_y_init_document(self, capsys, tmp_path):
        doc = load_y_init().to_json()
        doc["y"] = {"rows": 0, "cols": 10**8, "data": []}
        self.refused(capsys, tmp_path, doc, "--y-init", "y_init matrix is 0x100000000")

    def test_state_document(self, capsys, tmp_path, state_doc):
        doc = json.loads(json.dumps(state_doc))
        doc["config"]["gains"][0] = {"rows": 0, "cols": 10**8, "data": []}
        self.refused(capsys, tmp_path, doc, "--state", "gain B_0 is 0x100000000")

    @staticmethod
    def refused(capsys, tmp_path, doc, flag, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["kdfc", "stream", flag, str(path), "-n", "4"]
        if flag == "--y-init":
            argv += ["--key", KAT_KEY_HEX, "--iv", KAT_IV_HEX]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert peak < 2 << 20


class TestImports:
    def test_only_randtest_imports_numpy(self):
        # in a child interpreter, whose modules this test run cannot preload
        script = "\n".join([
            "import contextlib, io, sys",
            "from kdfc_snow.cli import main",
            "key, iv = '00' * 32, '00' * 16",
            "for argv in (",
            "    ['kdfc', 'init', '--key', key, '--iv', iv],",
            "    ['kdfc', 'stream', '--key', key, '--iv', iv, '-n', '4'],",
            "    ['snow2', 'stream', '--key', key, '--iv', iv, '-n', '4'],",
            "    ['gen-config', '--m', '4', '--b', '4', '--k', '3', '--seed', 'x'],",
            "):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
        ])
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_start_up_path_imports_no_unused_module(self):
        # perfbench's set-up path, then `kdfc init`, in one fresh child; the
        # modules present before its first import are a bare interpreter's
        script = "\n".join([
            "import sys",
            "bare = set(sys.modules)",
            "import contextlib, io",
            "import kdfc_snow",
            "from kdfc_snow import cli, kdfc",
            "from kdfc_snow.gf2.primtable import default_table",
            "default_table(), kdfc.load_y_init(), kdfc.target_poly()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['kdfc', 'init', '--key', '00' * 32, '--iv', '00' * 16]) == 0",
            "print(' '.join(sorted(set(sys.modules) - bare)))",
        ])
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "kdfc_snow.cli" in loaded
        unused = {"dataclasses", "inspect", "numpy", "kdfc_snow.attacks",
                  "kdfc_snow.symbolic", "kdfc_snow.randtests"}
        assert not loaded & unused


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        """Install this checkout into a throwaway venv and run its script."""
        pytest.importorskip("setuptools")
        # The build reads only these; copying them keeps the checkout clean.
        shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path)
        shutil.copy(REPO_ROOT / "README.md", tmp_path)
        shutil.copytree(
            REPO_ROOT / "src", tmp_path / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

        def step(*argv):
            return subprocess.run(
                argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120,
            )

        venv = tmp_path / "venv"
        made = step(sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv))
        assert made.returncode == 0, made.stderr
        # --system-site-packages reaches the base interpreter only; when the
        # tests run inside a venv, its site-packages (numpy, setuptools) must
        # be visible too.
        purelib = sysconfig.get_path(
            "purelib", vars={"base": str(venv), "platbase": str(venv)}
        )
        Path(purelib, "outer_site.pth").write_text(
            "\n".join(site.getsitepackages()) + "\n"
        )
        bindir = venv / "bin"
        # setuptools' own `develop` needs neither the `wheel` package nor a
        # network, unlike `pip install -e` below setuptools 70.1. It is
        # deprecated, and from setuptools 80 on it hands the install to pip.
        installed = step(
            str(bindir / "python"), "-c", "from setuptools import setup; setup()",
            "develop", "--no-deps",
        )
        assert installed.returncode == 0, installed.stderr
        script = bindir / "kdfc-snow"
        assert script.is_file(), installed.stdout
        proc = step(
            str(script),
            "analyze", "bias", "--eps-log2", "-15.496", "--taps", "250",
        )
        assert proc.returncode == 0
        assert proc.stdout == "eps_final_log2 = -3625.0\nkeystream_log2 = 7250.0\n"


class TestOutFlag:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, streamed, _ = run(capsys, "char-poly", "--target")
        path = tmp_path / "poly.txt"
        code, out, _ = run(capsys, "char-poly", "--target", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == streamed
