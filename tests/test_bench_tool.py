"""tools/bench.py's verdict rules and its src/ line count, without running perfbench."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"unit": "s", "better": "lower", "bound": 0.1}
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.1}


@pytest.mark.parametrize("spec,base,change,verdict", [
    # better in every pair, by more than the base quartile spread
    (LOWER, [10.0] * 10, [8.0] * 10, "gain"),
    (HIGHER, [10.0] * 10, [12.0] * 10, "gain"),
    # worse in the median by more than the bound (10 % of the base median)
    (LOWER, [10.0] * 10, [11.5] * 10, "worse"),
    (HIGHER, [10.0] * 10, [8.5] * 10, "worse"),
    # base runs spread wider than the bound, change not clearly better
    (LOWER, [5.0, 15.0] * 5, [5.0, 15.0] * 5, "unresolved"),
    # within the bound either way
    (LOWER, [10.0] * 10, [10.5] * 10, "same"),
    (LOWER, [10.0] * 10, [9.5] * 10, "gain"),
    # the same spread, but every change run beats every base run: not a
    # gain (the median moved less than the base IQR), yet not unresolved
    (LOWER, [5.0, 15.0] * 5, [4.0] * 10, "same"),
    (HIGHER, [5.0, 15.0] * 5, [16.0] * 10, "same"),
])
def test_summarize_verdicts(bench, spec, base, change, verdict):
    s = bench.summarize(spec, base, change)
    assert s["verdict"] == verdict
    assert s["pairs"] == len(base)


def test_gain_needs_nine_pairs_in_ten(bench):
    # a median well below base, but won in only 8 of 10 pairs
    base = [10.0] * 10
    change = [8.0] * 8 + [12.0] * 2
    s = bench.summarize(LOWER, base, change)
    assert s["pairs_won"] == 8 and s["verdict"] == "same"
    s = bench.summarize(LOWER, base, [8.0] * 9 + [12.0])
    assert s["pairs_won"] == 9 and s["verdict"] == "gain"


def test_gain_needs_more_than_the_base_spread(bench):
    # every pair won, but by less than the base runs' interquartile range
    base = [9.6, 10.4] * 5
    change = [b - 0.5 for b in base]
    s = bench.summarize(LOWER, base, change)
    assert s["pairs_won"] == 10 and s["base"]["iqr"] == pytest.approx(0.8)
    assert s["verdict"] == "same"


def test_gain_needs_a_tenth_of_the_bound(bench):
    # BENCH_22.json, config-gen peak_rss_mb: 9 of 10 pairs won and a median
    # 0.05 MB lower, above the base IQR of 0.02 MB, but below a tenth of the
    # 10 % bound (0.40 MB)
    spec = {"unit": "MB", "better": "lower", "bound": 0.1}
    base = [39.85546875, 39.94921875, 39.828125, 39.8515625, 39.95703125,
            39.87109375, 39.86328125, 39.875, 39.86328125, 39.78515625]
    change = [39.8203125, 39.85546875, 39.82421875, 39.8359375, 39.84765625,
              39.77734375, 39.6796875, 39.75, 39.80078125, 39.80859375]
    s = bench.summarize(spec, base, change)
    assert s["pairs_won"] == 9 and s["base"]["iqr"] == pytest.approx(0.0215, abs=1e-4)
    assert s["base"]["median"] - s["change"]["median"] == pytest.approx(0.0488, abs=1e-4)
    assert s["verdict"] == "same"


def test_src_lines_skip_blanks_and_comments(bench, tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\n\n# comment\nx = 1  # trailing\n    # indented\n')
    (pkg / "b.py").write_text("def f():\n\n    return 2\n")
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    assert bench.src_lines(tmp_path) == 4


def test_untracked_perfbench_file_marks_the_benchmark_changed(bench, tmp_path, monkeypatch):
    # git diff does not see an untracked file, but copy_working_tree copies it
    def git(*args):
        subprocess.run(["git", "-c", "user.name=b", "-c", "user.email=b@b",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "perfbench" / "results").mkdir(parents=True)
    (tmp_path / "perfbench" / "run.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("perfbench/results/\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "base")
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    base = bench.git("rev-parse", "HEAD")
    (tmp_path / "perfbench" / "results" / "r.json").write_text("{}\n")  # ignored
    (tmp_path / "notes.txt").write_text("outside perfbench/\n")
    assert not bench.perfbench_differs(base)
    (tmp_path / "perfbench" / "extra.py").write_text("y = 2\n")
    assert bench.perfbench_differs(base)
    (tmp_path / "perfbench" / "extra.py").unlink()
    (tmp_path / "perfbench" / "run.py").write_text("x = 2\n")
    assert bench.perfbench_differs(base)


def test_records_whether_the_runs_write_bytecode(bench, monkeypatch):
    # the runs inherit this process's environment; with no bytecode written,
    # every fresh perfbench process compiles the package inside setup_s
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.runs_dont_write_bytecode() is True
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench.runs_dont_write_bytecode() is False
