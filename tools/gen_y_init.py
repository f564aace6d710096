#!/usr/bin/env python3
"""Generate the shipped offline pipeline matrix for the full-scale profile.

Runs the k = 468 offline iterations at m = 32 from the identity start,
with fill bits drawn deterministically from a recorded seed, and writes
src/kdfc_snow/data/y_init_m32_k468.json with provenance fields (seed,
fill label, polynomial-table checksum) so the file can be regenerated
and audited.  Runtime is about 0.3 s (three runs) with Python 3.11 on a
2-CPU x86-64 machine.  The shipped polynomial table is certified by the
test suite, so no irreducibility check runs here; with an override table
(KDFC_SNOW_POLY_TABLE) each of the 467 polynomials drawn is checked on
first use, about 0.8 s more.

    python3 tools/gen_y_init.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from kdfc_snow.confgen import FillBits, y_offline
from kdfc_snow.gf2.linalg import rank, width
from kdfc_snow.gf2.primtable import default_table
from kdfc_snow.kdfc import YInitDoc

M = 32
B = 16
K = 468
SEED = "kdfc-snow-y-init-v1"
LABEL = "offline-fill"
OUT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src"
    / "kdfc_snow"
    / "data"
    / "y_init_m32_k468.json"
)


def main() -> None:
    t0 = time.time()
    fill = FillBits.from_seed(M, K, SEED, label=LABEL)
    y = y_offline(M, B, K, fill)
    assert width(y) == M + K == 500
    assert rank(y) == M
    doc = YInitDoc(m=M, k=K, seed=SEED, fill_label=LABEL,
                   poly_table_sha256=default_table().checksum, y=y)
    OUT.write_text(json.dumps(doc.to_json(), indent=1) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes) in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
