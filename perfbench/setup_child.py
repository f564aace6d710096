"""Fresh-interpreter set-up and first cipher start, timed for perfbench/run.py.

    python3 perfbench/setup_child.py SRC_DIR [kdfc|snow2 KEY_HEX IV_HEX N_WORDS]

Imports the package from SRC_DIR, loads the primitive-polynomial table,
the shipped y_init matrix and the target polynomial, then prints "ready";
the parent times the interval from spawning this process to reading that
line.  Given a cipher, key, IV and word count, it then times the
process's first kdfc_init (default params; it pays the lazy table
checks) or snow2_init, plus N_WORDS keystream words.  For kdfc it checks,
after the timed region, that the derived configuration has the target
characteristic polynomial.  Its last line is one JSON object with the
speed factors (refloop.py) sampled over the set-up and the cipher start
and, given a cipher, the start time, the words and the check.
"""

import json
import sys
from time import perf_counter

from refloop import SpeedSampler

speed = SpeedSampler()
speed.start()
t_start = perf_counter()

sys.path.insert(0, sys.argv[1])

from kdfc_snow import kdfc, snow2  # noqa: E402
from kdfc_snow.gf2.primtable import default_table  # noqa: E402
from kdfc_snow.sigma_lfsr import config_char_poly  # noqa: E402

default_table()
kdfc.load_y_init()
target = kdfc.target_poly()
t_ready = perf_counter()
print("ready", flush=True)
report = {"setup_factor": speed.factor(t_start, t_ready)}

if len(sys.argv) == 6:
    cipher = sys.argv[2]
    key = [int(sys.argv[3][i:i + 8], 16) for i in range(0, 64, 8)]
    iv = [int(sys.argv[4][i:i + 8], 16) for i in range(0, 32, 8)]
    t0 = perf_counter()
    if cipher == "kdfc":
        state = kdfc.kdfc_init(kdfc.KdfcParams(key=key, iv=iv))
    else:
        state = snow2.snow2_init(key, iv)
    words = snow2.snow2_keystream(state, int(sys.argv[5]))
    t1 = perf_counter()
    speed.stop()
    report.update(
        cold_s=t1 - t0,
        cold_factor=speed.factor(t0, t1),
        words=words,
        config_ok=cipher != "kdfc" or config_char_poly(state.cfg) == target,
    )
speed.stop()
print(json.dumps(report), flush=True)
