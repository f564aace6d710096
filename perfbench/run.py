#!/usr/bin/env python3
"""kdfc-snow benchmark: one workload per run, one caller, closed loop.

    python3 perfbench/run.py --workload keyed-init --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Each run is one single-threaded process, pinned to one CPU, that drives
the public API (kdfc_snow.kdfc, snow2, confgen, randtests) with inputs
made from --seed and checks every output outside the timed regions.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller result document (provenance,
workload-specific metrics, output digest, trace summary) is written under
perfbench/results/.

Workloads (perfbench/README.md says what each metric means on each):

  keyed-init    distinct seeded (key, IV) pairs -> kdfc_init -> 8 words
                each; then a few inits with verify_config=False
  snow2-stream  one SNOW 2.0 state streamed in 4096-word chunks; then
                groups of 64 SNOW 2.0 key/IV set-ups
  kdfc-stream   one KDFC-SNOW state streamed in 4096-word chunks; then
                the randomness battery on the first 10^6 bits
  config-gen    a full-scale seeded gen-config (cold), the y_init rebuild,
                warm full-scale configs, then groups of 4x4 configs

Times are scaled to a reference speed.  The CPUs this was built on swing
between a fast and a slow state, because other machines' work shares
their cores.  So while a run is timed, a 50 Hz interval timer times a
short reference loop of the benchmark's own, and each interval is scaled
by the mean reference speed sampled during it (perfbench/refloop.py).
The result document keeps the run's reference samples' median.

With --trace 1 the library's functions are wrapped with span recorders
(perfbench/spans.py), the op loop runs its fixed core only, and the
per-layer metrics are printed, their times scaled by the speed sampled
over the whole traced run; the core is then replayed untraced to measure
the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from importlib import resources
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import known_answers as ka  # noqa: E402
import refloop  # noqa: E402
from spans import Tracer  # noqa: E402

FRESH_PROCESSES = 7
#: ops whose outputs enter the digest; a traced run runs exactly these
CORE_OPS = {"keyed-init": 8, "snow2-stream": 8, "kdfc-stream": 8, "config-gen": 8}
UNVERIFIED_INITS = 8  # keyed-init batch: kdfc_init with verify_config=False
CHUNK_WORDS = 4096
SETUP_GROUP = 64  # SNOW 2.0 key/IV set-ups per snow2-stream batch
SETUP_BATCHES = 16
SMALL_GROUP = 256  # 4x4 configs per config-gen op
BATTERY_WORDS = 31250  # 10^6 bits
BATTERY_REPEATS = 3
WARM_CONFIGS = 3
Y_INIT_SEED = "kdfc-snow-y-init-v1"
Y_INIT_LABEL = "offline-fill"


def import_library():
    """Import kdfc_snow from ./src of this checkout, and nowhere else."""
    if not (SRC / "kdfc_snow" / "__init__.py").is_file():
        sys.exit(f"error: no kdfc_snow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kdfc_snow
    from kdfc_snow import confgen, kdfc, randtests, sigma_lfsr, snow2
    from kdfc_snow.gf2 import primtable

    if Path(kdfc_snow.__file__).resolve().parent != SRC / "kdfc_snow":
        sys.exit(f"error: imported kdfc_snow from {kdfc_snow.__file__}")
    return argparse.Namespace(
        pkg=kdfc_snow, confgen=confgen, kdfc=kdfc, randtests=randtests,
        sigma_lfsr=sigma_lfsr, snow2=snow2, primtable=primtable,
    )


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Bench:
    """State shared by one run: inputs, timing, checks, digest, tracer."""

    def __init__(self, args, lib, tracer: Tracer):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.lib = lib
        self.tracer = tracer
        self.core = CORE_OPS[args.workload]
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failures: list[str] = []
        self.named: dict[str, tuple[float, str]] = {}
        self.y_init_doc = None
        self.battery_kat_p: dict[str, float] = {}
        self.setup: list[float] = []
        self.speed = refloop.SpeedSampler()

    # -- inputs, checks, digest ---------------------------------------------

    def key_iv(self, tag) -> tuple[list[int], list[int]]:
        rng = random.Random(f"{self.workload}:{self.seed}:{tag}")
        return (
            [rng.getrandbits(32) for _ in range(8)],
            [rng.getrandbits(32) for _ in range(4)],
        )

    def fill_seed(self, tag) -> str:
        return f"perfbench:{self.seed}:{tag}"

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_config(self, what: str, cfg, poly) -> None:
        self.check(what, self.lib.sigma_lfsr.config_char_poly(cfg) == poly)

    def feed_words(self, words) -> None:
        self.digest.update(b"".join(w.to_bytes(4, "little") for w in words))

    def feed_config(self, cfg) -> None:
        self.digest.update(json.dumps(cfg.to_json(), sort_keys=True).encode())

    def op(self, op_id: str) -> None:
        self.tracer.set_op(op_id)

    # -- timing ------------------------------------------------------------

    def timed(self, fn):
        """(seconds scaled to the reference speed, result) of fn()."""
        t0 = perf_counter()
        out = fn()
        t1 = perf_counter()
        return (t1 - t0) * self.speed.factor(t0, t1), out

    def keep_going(self, done: int, start: float) -> bool:
        """Traced runs stop after the core; untraced ones fill --seconds."""
        if done < self.core:
            return True
        return not self.traced and perf_counter() - start < self.seconds

    # -- fresh processes -----------------------------------------------------

    def fresh(self, start: list[str] | None = None) -> list[dict]:
        """Spawn fresh interpreters one after another (perfbench/setup_child.py).

        Keeps each one's set-up time, measured here from spawn to its
        "ready" line and scaled by the speed the child sampled, and returns
        each one's report on its first cipher start when `start` (the
        child's cipher, key, IV and word-count arguments) is given.  This
        process samples nothing meanwhile.  Traced runs skip this.
        """
        if self.traced:
            return []
        cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC)] + (start or [])
        reports = []
        self.speed.stop()
        for _ in range(FRESH_PROCESSES):
            t0 = perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                rest = proc.stdout.read()
            if proc.returncode != 0 or line.strip() != "ready":
                sys.exit(f"error: fresh-process child failed (exit {proc.returncode})")
            report = json.loads(rest)
            self.setup.append(elapsed * report["setup_factor"])
            reports.append(report)
        self.speed.start()
        return reports

    def cold_start(self, cipher: str, n_words: int):
        """First start of `cipher` + n_words words, fresh and in this process.

        Returns (cold seconds, state): the median over the fresh processes
        (this process's own time when traced), and this process's state,
        which has already produced the n_words words.
        """
        kdfc, snow2 = self.lib.kdfc, self.lib.snow2
        key, iv = self.key_iv("cold")
        reports = self.fresh([
            cipher, "".join(f"{w:08x}" for w in key),
            "".join(f"{w:08x}" for w in iv), str(n_words),
        ])
        self.op("cold")
        t0 = perf_counter()
        if cipher == "kdfc":
            state = kdfc.kdfc_init(kdfc.KdfcParams(key=key, iv=iv))
        else:
            state = snow2.snow2_init(key, iv)
        words = snow2.snow2_keystream(state, n_words)
        cold = perf_counter() - t0
        self.op("check")
        if cipher == "kdfc":
            self.check_config("first kdfc_init config char poly", state.cfg,
                              kdfc.target_poly())
            self.feed_config(state.cfg)
        self.feed_words(words)
        for r in reports:
            if cipher == "kdfc":
                self.check("fresh-process kdfc_init config char poly", r["config_ok"])
            self.check(f"fresh-process {cipher} words equal this process's",
                       r["words"] == words)
        if reports:
            cold = statistics.median(r["cold_s"] * r["cold_factor"] for r in reports)
        return cold, state


def copy_state(state):
    """An independent copy of a running cipher state."""
    return type(state)(state.lfsr.copy(), state.fsm.copy(), state.cfg)


# ---------------------------------------------------------------------------
# workloads.  Each returns (cold seconds, op seconds, batch seconds, core
# outputs, replay), all times scaled to the reference speed; replay() reruns
# the core ops and returns their outputs.


def keyed_init(b: Bench):
    kdfc = b.lib.kdfc
    target = kdfc.target_poly()

    def derive(tag, verify=True):
        key, iv = b.key_iv(tag)
        state = kdfc.kdfc_init(kdfc.KdfcParams(key=key, iv=iv, verify_config=verify))
        return state.cfg, kdfc.kdfc_keystream(state, 8)

    cold, _ = b.cold_start("kdfc", 8)

    ops: list[float] = []
    core: list = []
    start = perf_counter()
    while b.keep_going(len(ops), start):
        i = len(ops)
        b.op(f"op-{i}")
        dt, (cfg, words) = b.timed(lambda: derive(i))
        ops.append(dt)
        b.op("check")
        b.check_config("kdfc_init config char poly", cfg, target)
        if i < b.core:
            core.append((cfg, words))
            b.feed_config(cfg)
            b.feed_words(words)

    batch: list[float] = []
    for r in range(UNVERIFIED_INITS):
        b.op(f"batch-{r}")
        dt, (cfg, words) = b.timed(lambda: derive(f"unverified-{r}", verify=False))
        batch.append(dt)
        b.op("check")
        b.check_config("kdfc_init (verify_config=False) config char poly", cfg, target)
        b.feed_config(cfg)
        b.feed_words(words)

    b.named["init_cold_s"] = (cold, "s")
    b.named["init_ms.p50"] = (1e3 * statistics.median(ops), "ms")
    b.named["init_ms.p90"] = (1e3 * p90(ops), "ms")
    b.named["init_ms.samples"] = (len(ops), "count")
    b.named["init_unverified_s.p50"] = (statistics.median(batch), "s")

    def replay():
        return [derive(i) for i in range(b.core)]

    return cold, ops, batch, core, replay


def stream_chunks(b: Bench, state):
    """Closed loop of CHUNK_WORDS-word chunks from one state.

    Returns (chunk seconds, core chunks, replay); replay() streams the
    core chunks again from a copy of the starting state.
    """
    keystream = b.lib.snow2.snow2_keystream
    saved = copy_state(state)
    ops: list[float] = []
    core: list = []
    start = perf_counter()
    while b.keep_going(len(ops), start):
        i = len(ops)
        b.op(f"op-{i}")
        dt, words = b.timed(lambda: keystream(state, CHUNK_WORDS))
        ops.append(dt)
        if i < b.core:
            core.append(words)
            b.feed_words(words)

    def replay():
        again = copy_state(saved)
        return [keystream(again, CHUNK_WORDS) for _ in range(b.core)]

    return ops, core, replay


def snow2_stream(b: Bench):
    snow2 = b.lib.snow2

    cold, state = b.cold_start("snow2", CHUNK_WORDS)
    ops, core, replay = stream_chunks(b, state)

    batch: list[float] = []
    for r in range(SETUP_BATCHES):
        pairs = [b.key_iv(f"setup-{r}-{j}") for j in range(SETUP_GROUP)]
        b.op(f"batch-{r}")
        dt, states = b.timed(lambda: [snow2.snow2_init(key, iv) for key, iv in pairs])
        batch.append(dt)
        b.op("check")
        b.feed_words([snow2.snow2_keystream(st, 1)[0] for st in states])

    b.named["snow2_words_per_s"] = (CHUNK_WORDS / statistics.median(ops), "1/s")
    b.named["snow2_cold_s"] = (cold, "s")
    b.named["snow2_setups_per_s"] = (SETUP_GROUP / statistics.median(batch), "1/s")
    b.named["chunks"] = (len(ops), "count")
    return cold, ops, batch, core, replay


def kdfc_stream(b: Bench):
    rt = b.lib.randtests

    cold, state = b.cold_start("kdfc", CHUNK_WORDS)
    ops, core, replay = stream_chunks(b, state)

    words = [w for chunk in core for w in chunk][:BATTERY_WORDS]

    def battery():
        bits = rt.bits_from_words(words)
        results = []
        for name in rt.TEST_NAMES:
            with b.tracer.span(f"randtests.{name}"):
                results.append(rt.run_test(name, bits))
        return results

    batch: list[float] = []
    first = None
    for r in range(BATTERY_REPEATS):
        b.op(f"batch-{r}")
        dt, results = b.timed(battery)
        batch.append(dt)
        b.op("check")
        pvals = [res.p_value for res in results]
        if first is None:
            first = results
            b.digest.update(repr(pvals).encode())
        else:
            b.check("battery repeat p-values", pvals == [f.p_value for f in first])

    b.named["kdfc_words_per_s"] = (CHUNK_WORDS / statistics.median(ops), "1/s")
    b.named["kdfc_cold_s"] = (cold, "s")
    b.named["battery_s"] = (statistics.median(batch), "s")
    b.named["battery_tests_below_alpha"] = (
        sum(not res.passed for res in first), "count",
    )
    b.named["chunks"] = (len(ops), "count")
    return cold, ops, batch, core, replay


def config_gen(b: Bench):
    confgen = b.lib.confgen

    def seeded(m, nb, tag, poly):
        """What `kdfc-snow gen-config --m m --b nb --seed ...` runs (k = 0)."""
        seed = b.fill_seed(tag)
        offline = confgen.FillBits.from_seed(m, 0, seed, "offline-fill")
        online = confgen.FillBits.from_seed(m, m * nb - m, seed, "online-fill")
        y = confgen.y_offline(m, nb, 0, offline)
        return confgen.generate_config(m, nb, poly, y, online)

    def first_config():
        p512 = confgen.pipeline_poly(512)
        return p512, seeded(32, 16, "cold", p512)

    b.fresh()
    b.op("cold")
    cold, (p512, cfg) = b.timed(first_config)
    b.op("check")
    b.check_config("first full-scale config char poly", cfg, p512)
    b.feed_config(cfg)

    b.op("rebuild")
    rebuild, y = b.timed(lambda: confgen.y_offline(
        32, 16, 468, confgen.FillBits.from_seed(32, 468, Y_INIT_SEED, Y_INIT_LABEL)
    ))
    b.op("check")
    b.check("y_init rebuild equals the shipped matrix", y == b.y_init_doc.y)

    batch: list[float] = []
    for r in range(WARM_CONFIGS):
        b.op(f"batch-{r}")
        dt, cfg = b.timed(lambda: seeded(32, 16, f"warm-{r}", p512))
        batch.append(dt)
        b.op("check")
        b.check_config("warm full-scale config char poly", cfg, p512)
        b.feed_config(cfg)

    p16 = confgen.pipeline_poly(16)

    def small_group(i):
        return [seeded(4, 4, f"small-{i}-{j}", p16) for j in range(SMALL_GROUP)]

    ops: list[float] = []
    core: list = []
    start = perf_counter()
    while b.keep_going(len(ops), start):
        b.op(f"op-{len(ops)}")
        i = len(ops)
        dt, cfgs = b.timed(lambda: small_group(i))
        ops.append(dt)
        b.op("check")
        for cfg in cfgs:
            b.check_config("4x4 config char poly", cfg, p16)
        if len(core) < b.core:
            core.append(cfgs)
            for cfg in cfgs:
                b.feed_config(cfg)

    b.named["config_cold_s"] = (cold, "s")
    b.named["config_s.p50"] = (statistics.median(batch), "s")
    b.named["yinit_rebuild_s"] = (rebuild, "s")
    b.named["small_configs_per_s"] = (SMALL_GROUP / statistics.median(ops), "1/s")
    b.named["small_configs"] = (SMALL_GROUP * len(ops), "count")

    def replay():
        return [small_group(i) for i in range(b.core)]

    return cold, ops, batch, core, replay


RUNNERS = {
    "keyed-init": keyed_init,
    "snow2-stream": snow2_stream,
    "kdfc-stream": kdfc_stream,
    "config-gen": config_gen,
}


# ---------------------------------------------------------------------------
# checks shared by every workload


def known_answer_checks(b: Bench) -> None:
    """Keystream KATs and the battery's known p-values, outside all timing."""
    kdfc, snow2, rt = b.lib.kdfc, b.lib.snow2, b.lib.randtests
    b.op("check")
    for label, key, iv, words in ka.SNOW2_KATS:
        b.check(label, snow2.snow2_keystream(snow2.snow2_init(key, iv), 8) == words)
    for label, key, iv, words in ka.KDFC_KATS:
        state = kdfc.kdfc_init(kdfc.KdfcParams(key=key, iv=iv))
        b.check(label, kdfc.kdfc_keystream(state, 8) == words)
    stream = snow2.snow2_keystream(snow2.snow2_init([0] * 8, [0] * 4), ka.BATTERY_KAT_WORDS)
    bits = rt.bits_from_words(stream)
    pvals = {name: rt.run_test(name, bits).p_value for name in rt.TEST_NAMES}
    b.check("battery known p-values", set(pvals) == set(ka.BATTERY_KAT_P) and all(
        abs(pvals[n] - ka.BATTERY_KAT_P[n]) <= ka.BATTERY_KAT_TOLERANCE for n in pvals
    ))
    b.battery_kat_p = pvals


# ---------------------------------------------------------------------------
# reporting


def provenance(b: Bench, nproc: int) -> dict:
    import numpy

    lib = b.lib
    y_file = resources.files("kdfc_snow").joinpath("data", lib.kdfc.Y_INIT_FILE)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": b.workload,
        "seed": b.seed,
        "seconds": b.seconds,
        "package_version": lib.pkg.__version__,
        "y_init_sha256": hashlib.sha256(y_file.read_bytes()).hexdigest(),
        "poly_table_sha256": lib.primtable.default_table().checksum,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
    }


def per_layer_metrics(t: Tracer, factor: float, overhead_s: float) -> dict:
    """Per-layer counts, and times scaled by the traced run's speed factor."""
    from kdfc_snow.randtests import TEST_NAMES

    m = {
        "gf2.primtable.load_s": (t.total_s("gf2.primtable.load"), "s"),
        "gf2.primtable.lookups": (t.calls("gf2.primtable.lookup"), "count"),
        "gf2.primtable.checks": (
            t.edges.get(("gf2.primtable.lookup", "gf2.poly.is_irreducible"), 0), "count",
        ),
        "gf2.poly.is_irreducible_s": (t.total_s("gf2.poly.is_irreducible"), "s"),
        "gf2.poly.inv_mod_calls": (t.calls("gf2.poly.inv_mod"), "count"),
        "gf2.poly.inv_mod_s": (t.total_s("gf2.poly.inv_mod"), "s"),
        "gf2.linalg.rank_calls": (t.calls("gf2.linalg.rank"), "count"),
        "gf2.linalg.rank_s": (t.total_s("gf2.linalg.rank"), "s"),
        "gf2.linalg.determinant_s": (t.total_s("gf2.linalg.determinant"), "s"),
        "gf2.linalg.mat_inverse_s": (t.total_s("gf2.linalg.mat_inverse"), "s"),
        "gf2.linalg.mat_mul_s": (t.total_s("gf2.linalg.mat_mul"), "s"),
        "gf2.linalg.char_poly_s": (t.total_s("gf2.linalg.char_poly"), "s"),
        "confgen.y_iterate_calls": (t.calls("confgen.y_iterate"), "count"),
        "confgen.y_iterate_self_s": (t.self_s("confgen.y_iterate"), "s"),
        "confgen.build_q_self_s": (t.self_s("confgen.build_q"), "s"),
        "confgen.assemble_config_self_s": (t.self_s("confgen.assemble_config"), "s"),
        "confgen.fill_s": (t.total_s("confgen.fill"), "s"),
        "sigma_lfsr.step_stacked_calls": (t.calls("sigma_lfsr.step_stacked"), "count"),
        "sigma_lfsr.step_stacked_s": (t.total_s("sigma_lfsr.step_stacked"), "s"),
        "sigma_lfsr.byte_tables_s": (t.total_s("sigma_lfsr.byte_tables"), "s"),
        "snow2.init_with_captures_s": (t.total_s("snow2.init_with_captures"), "s"),
        "snow2.fsm_step_s": (t.total_s("snow2.fsm_step"), "s"),
        "snow2.keystream_self_s": (t.self_s("snow2.keystream"), "s"),
        "kdfc.load_y_init_s": (t.total_s("kdfc.load_y_init"), "s"),
        "kdfc.resolve_s": (t.total_s("kdfc.resolve"), "s"),
        "kdfc.kdfc_init_self_s": (t.self_s("kdfc.kdfc_init"), "s"),
        "randtests.bits_from_words_s": (t.total_s("randtests.bits_from_words"), "s"),
    }
    for name in TEST_NAMES:
        m[f"randtests.{name}_s"] = (t.total_s(f"randtests.{name}"), "s")
    m = {k: (v * factor if u == "s" else v, u) for k, (v, u) in m.items()}
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(RUNNERS))
    ap.add_argument("--seed", type=int, default=ka.DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = import_library()
    # one CPU for this process and its children, so that the reference
    # loop runs on the core whose speed it stands for
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    tracer = Tracer()
    b = Bench(args, lib, tracer)

    if b.traced:
        tracer.install()
    b.speed.start()
    run_start = perf_counter()
    b.op("setup")
    lib.primtable.default_table()
    b.y_init_doc = lib.kdfc.load_y_init()
    lib.kdfc.target_poly()

    cold, ops, batch, core, replay = RUNNERS[b.workload](b)
    known_answer_checks(b)
    run_factor = b.speed.factor(run_start, perf_counter())

    trace_doc = None
    overhead = 0.0
    if b.traced:
        tracer.uninstall()
        traced_core = sum(ops[: b.core])
        untraced_core, replayed = b.timed(replay)
        overhead = traced_core - untraced_core
        b.check("traced and untraced core outputs agree", replayed == core)
        RESULTS.mkdir(exist_ok=True)
        span_file = RESULTS / f"{b.workload}-seed{b.seed}-spans.jsonl"
        tracer.write_spans(span_file)
        trace_doc = {
            "traced_core_s": traced_core,
            "untraced_core_s": untraced_core,
            "overhead_s": overhead,
            "overhead_ratio": overhead / untraced_core,
            "layer_self_s_by_op_kind": tracer.layer_self_s(),
            "spans_logged": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "span_file": str(span_file.relative_to(ROOT)),
        }

    b.speed.stop()
    digest = b.digest.hexdigest()
    if b.seed == ka.DIGEST_SEED:
        b.check("output digest matches the pinned value", digest == ka.DIGESTS.get(b.workload))

    if b.traced:
        metrics = per_layer_metrics(tracer, run_factor, overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(b.setup), "s"),
            "cold_s": (cold, "s"),
            "op_ms.p50": (1e3 * statistics.median(ops), "ms"),
            "op_ms.p90": (1e3 * p90(ops), "ms"),
            "batch_s": (statistics.median(batch), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failed = len(b.failures)
    doc = {
        "provenance": provenance(b, len(cpus)),
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "fail_ratio": failed / b.attempted,
        "failures": b.failures,
        "digest": digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in b.named.items()},
        "samples": {"setup": len(b.setup), "ops": len(ops), "batch": len(batch)},
        "reference": {
            "nominal_s": refloop.NOMINAL_S,
            "median_s": statistics.median(b.speed.refs) if b.speed.refs else None,
            "samples": len(b.speed.refs),
        },
        "battery_kat_p": b.battery_kat_p,
        "trace": trace_doc,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{b.workload}-seed{b.seed}-trace{int(b.traced)}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"perfbench {b.workload} seed={b.seed} trace={int(b.traced)} digest={digest[:16]}")
    for name, (value, unit) in list(metrics.items()) + list(b.named.items()):
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {doc['fail_ratio']:14.6g} ({failed}/{b.attempted})")
    for what in b.failures:
        print(f"  FAILED: {what}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": b.attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
