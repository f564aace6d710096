#!/usr/bin/env python3
"""Smoke test: every workload, untraced and traced, at a tiny size.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload it runs
perfbench/run.py for one second, on the seed whose output digests are
pinned, with --trace 0 and --trace 1 in fresh processes, and
asserts that the printed metric names and units equal those listed in
BENCHMARK.json, that every output check passed, and that the traced run
gave the same output digest as the untraced one.  It prints each run's
metric lines, so it is also the one command that shows every metric of
every workload.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from known_answers import DIGEST_SEED  # noqa: E402

SECONDS = "1"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(DIGEST_SEED),
                "--seconds", SECONDS, "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return fail(f"{workload} trace={trace}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                return fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                return fail(f"{workload} trace={trace}: metrics differ from "
                            f"BENCHMARK.json (missing {missing}, extra {extra}, "
                            "or a unit differs)")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                return fail(f"{workload} trace={trace}: output checks failed")
            doc = HERE / "results" / f"{workload}-seed{DIGEST_SEED}-trace{trace}.json"
            digests.add(json.loads(doc.read_text())["digest"])
        if len(digests) != 1:
            return fail(f"{workload}: traced and untraced digests differ")
    print("smoke: ok")
    return 0


def fail(msg: str) -> int:
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
