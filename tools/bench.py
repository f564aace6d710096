#!/usr/bin/env python3
"""Paired before/after runs of perfbench/run.py: HEAD against the working tree.

    python3 tools/bench.py --out BENCH_N.json --seed SEED [--pairs 10]

Exports HEAD, the parent of the uncommitted change, with `git archive`, and
copies the working tree's files (tracked and untracked, less what
.gitignore lists), each into a new temporary directory, so that neither
side starts with compiled bytecode or results the other lacks.  Then it
runs `perfbench/run.py --workload W --seed SEED` untraced, for every
workload of BENCHMARK.json and for its run_seconds, alternately in the two
copies, --pairs times per workload.  Pair i runs the base first
when i is even and the working tree first when i is odd.  Both sides run
the benchmark files of their own tree; a claim is fair only when
perfbench/ is the same in both (the tool records whether it is: a change
to a tracked file, or an untracked file that the copy takes along).

The output file holds, for each workload and each end-to-end metric of
BENCHMARK.json: both sides' per-run values, medians and quartiles, the
distance between the quartiles (IQR), the number of pairs the working tree
won (ties count for neither side), the ratio of the medians, and a verdict:

* gain: the working tree won at least 9 of every 10 pairs and its median
  is better than the base median by more than the base IQR and by more
  than a tenth of the metric's bound times the base median;
* worse: its median is worse than the base median by more than the
  metric's bound;
* unresolved: neither, and the base runs spread wider than the bound,
  unless every working-tree run is better than every base run;
* same: otherwise.

It also records the seed, the run length, the Python version, the CPU
count and model, whether the runs write no bytecode (`dont_write_bytecode`:
then every fresh perfbench process compiles the package, and setup_s
includes that compilation), the base commit, whether the working tree
had changes, and the size of `src/` on both sides: its non-blank lines that are not
comments (`src_lines`, comment lines start with `#`) and the difference,
change minus base (`src_lines_net`), so that net lines sit next to speed.
Each run's own failed checks are kept; a run with failures makes the tool
exit 1 after writing the file.  Runs one process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit rev under dest, from `git archive`."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and untracked files, less ignored ones, under dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench_differs(base_sha: str) -> bool:
    """Whether the working tree's perfbench/ or BENCHMARK.json differs from
    base_sha: a tracked change, or an untracked, non-ignored file, which
    copy_working_tree copies into the change tree."""
    paths = ("perfbench", "BENCHMARK.json")
    return bool(
        git("diff", base_sha, "--", *paths)
        or git("ls-files", "--others", "--exclude-standard", "--", *paths)
    )


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree; returns its result document."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(result.read_text())


def src_lines(tree: Path) -> int:
    """Non-blank lines of tree/src/**/*.py that are not `#` comments."""
    return sum(
        1
        for path in (tree / "src").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, base: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    beats_all = max(change) < min(base) if lower else min(change) > max(base)
    gain = (bmed - cmed) if lower else (cmed - bmed)
    if won * 10 >= 9 * len(base) and gain > max(b3 - b1, spec["bound"] / 10 * bmed):
        verdict = "gain"
    elif -gain > spec["bound"] * bmed:
        verdict = "worse"
    elif b3 - b1 > spec["bound"] * bmed and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "base": {"median": bmed, "q1": b1, "q3": b3, "iqr": b3 - b1, "runs": base},
        "change": {"median": cmed, "q1": c1, "q3": c3, "iqr": c3 - c1, "runs": change},
        "pairs_won": won,
        "pairs": len(base),
        "ratio": cmed / bmed if bmed else None,
        "verdict": verdict,
    }


def runs_dont_write_bytecode() -> bool:
    """sys.flags.dont_write_bytecode of a child started as run_once starts
    its runs: the same interpreter in the environment this process passes on."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys; print(int(sys.flags.dont_write_bytecode))"],
        check=True, capture_output=True, text=True,
    )
    return out.stdout.strip() == "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output JSON file")
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; use one not used while writing the change")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]

    base_sha = git("rev-parse", "HEAD")
    doc = {
        "base": {"rev": "HEAD", "commit": base_sha},
        "change": {
            "tree": "working tree copy",
            "head": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain")),
            "perfbench_differs_from_base": perfbench_differs(base_sha),
        },
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "dont_write_bytecode": runs_dont_write_bytecode(),
        "workloads": {},
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(base_sha, trees["base"])
        copy_working_tree(trees["change"])
        for side, tree in trees.items():
            doc[side]["src_lines"] = src_lines(tree)
        doc["src_lines_net"] = doc["change"]["src_lines"] - doc["base"]["src_lines"]
        for workload in names:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    result = run_once(trees[side], workload, args.seed, seconds)
                    runs[side].append(result)
                    failures += [f"{workload} {side} pair {i}: {what}"
                                 for what in result["failures"]]
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    ), flush=True)
            doc["workloads"][workload] = {
                "metrics": {
                    m["name"]: summarize(
                        m,
                        [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    )
                    for m in spec["end_to_end"]
                },
                "failed_checks": {
                    side: sum(r["failed"] for r in rs) for side, rs in runs.items()
                },
                "attempted_checks": {
                    side: sum(r["attempted"] for r in rs) for side, rs in runs.items()
                },
            }
    doc["failures"] = failures
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:13s} {name:12s} base {s['base']['median']:10.4g} "
                  f"change {s['change']['median']:10.4g} won {s['pairs_won']}/"
                  f"{s['pairs']} {s['verdict']}")
    print(f"src lines: base {doc['base']['src_lines']}, change "
          f"{doc['change']['src_lines']}, net {doc['src_lines_net']:+d}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
