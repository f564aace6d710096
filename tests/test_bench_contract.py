"""The library surface that perfbench/ drives, checked without timing.

perfbench/spans.py wraps library functions by module and attribute path,
reads SigmaConfig's byte-table cache slot, and perfbench/run.py copies
cipher states through their constructors.  A refactor that breaks any of
these breaks `perfbench/run.py --trace 1`; these tests make it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import KAT_IV, KAT_KEY

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's spans and run modules, with sys.path restored afterwards,
    and every traced module imported, as Tracer.install needs them loaded."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for modname, _, _ in spans.TRACED:
        importlib.import_module(modname)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py"
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return spans, run


def test_every_traced_name_resolves(bench):
    spans, _ = bench
    assert spans.TRACED
    for modname, path, _ in spans.TRACED:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{modname}.{path} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{path} is not callable"


def test_byte_table_cache_slot():
    from kdfc_snow.sigma_lfsr import SigmaConfig
    from kdfc_snow.snow2 import snow2_gains

    # one table cache: the Galois lane tables that every stepping route uses
    assert SigmaConfig.__slots__ == ("m", "b", "rows", "_byte_tables")
    cfg = snow2_gains()
    assert cfg._byte_tables is None
    cfg.byte_tables()
    assert cfg._byte_tables is not None


def test_copy_state_gives_an_independent_state(bench):
    _, run = bench
    from kdfc_snow.snow2 import CipherState, snow2_init, snow2_keystream

    state = snow2_init(KAT_KEY, KAT_IV)
    copy = run.copy_state(state)
    assert isinstance(copy, CipherState) and copy.cfg is state.cfg
    assert snow2_keystream(copy, 4) == snow2_keystream(state, 4)
    assert copy.lfsr is not state.lfsr and copy.fsm is not state.fsm
    fsm = state.fsm.copy()
    snow2_keystream(copy, 1)
    assert copy.lfsr != state.lfsr
    assert state.fsm == fsm and copy.fsm != fsm


def test_traced_run_records_the_engine_spans(bench):
    spans, _ = bench
    from kdfc_snow import kdfc, snow2

    # the first set-up in a process builds the shared SNOW 2.0 config
    snow2._snow2_cfg.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = snow2.snow2_init(KAT_KEY, KAT_IV)
        words = kdfc.kdfc_keystream(state, 4) + snow2.snow2_keystream(state, 4)
        again = snow2.snow2_init(KAT_KEY, KAT_IV)
    finally:
        tracer.uninstall()
    assert len(words) == 8
    assert again.cfg is state.cfg
    assert tracer.calls("snow2.init_with_captures") == 2
    assert tracer.calls("snow2.keystream") == 2
    assert tracer.calls("sigma_lfsr.byte_tables") == 1
    # the clock runs the FSM and the Galois feedback on plain ints
    assert tracer.calls("snow2.fsm_step") == 0
    assert tracer.calls("sigma_lfsr.step_stacked") == 0
    from kdfc_snow import sigma_lfsr

    assert not hasattr(sigma_lfsr.step_stacked, "__wrapped__")
    assert not hasattr(snow2.fsm_step, "__wrapped__")


def test_init_paths_build_the_tables_once(bench):
    # a verified and an unverified kdfc_init plus keyed-init's 8 words, and
    # SNOW 2.0 set-ups on a new configuration: one lane-table build per
    # configuration, the shared SNOW 2.0 one included
    spans, _ = bench
    from oracles import clock_oracle

    from kdfc_snow import kdfc, snow2

    snow2._snow2_cfg.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for verify in (True, False):
            params = kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV, verify_config=verify)
            assert len(kdfc.kdfc_keystream(kdfc.kdfc_init(params), 8)) == 8
        cfg = snow2.snow2_gains()
        words = [
            snow2.snow2_keystream(snow2.snow2_init(KAT_KEY, [i, 0, 0, 0], cfg=cfg), 8)
            for i in range(4)
        ]
    finally:
        tracer.uninstall()
    assert tracer.calls("sigma_lfsr.byte_tables") == 4
    assert words == [clock_oracle(KAT_KEY, [i, 0, 0, 0], cfg, 8)[1] for i in range(4)]


def test_verified_init_builds_its_row_tables_once(bench, monkeypatch):
    # the verify check builds the derived configuration's lane tables, and
    # the discard clocks reuse them; nothing steps through step_stacked or
    # fsm_step
    spans, _ = bench
    from kdfc_snow import confgen, kdfc, snow2, sigma_lfsr

    snow2.snow2_init(KAT_KEY, KAT_IV)  # the shared SNOW 2.0 tables exist
    certified = []
    real = sigma_lfsr.annihilates

    def certify(cfg, p):
        ok = real(cfg, p)
        certified.append(cfg._byte_tables)
        return ok

    # generate_config's verify looks the name up in confgen
    monkeypatch.setattr(confgen, "annihilates", certify)
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = kdfc.kdfc_init(kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV))
    finally:
        tracer.uninstall()
    assert len(certified) == 1 and certified[0] is not None
    assert state.cfg._byte_tables is certified[0]
    assert tracer.calls("sigma_lfsr.byte_tables") == 1
    assert tracer.calls("sigma_lfsr.step_stacked") == 0
    assert tracer.calls("snow2.fsm_step") == 0


def test_stream_chunks_reuse_the_tables(bench):
    # perfbench's 4,096-word chunks build nothing: the tables come with the
    # state, and the words equal one call of twice the length
    spans, run = bench
    from kdfc_snow import kdfc, snow2

    state = kdfc.kdfc_init(kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV))
    tables = state.cfg._byte_tables
    again = run.copy_state(state)
    tracer = spans.Tracer()
    tracer.install()
    try:
        first = snow2.snow2_keystream(state, run.CHUNK_WORDS)
        second = snow2.snow2_keystream(state, run.CHUNK_WORDS)
    finally:
        tracer.uninstall()
    assert tables is not None and state.cfg._byte_tables is tables
    assert tracer.calls("sigma_lfsr.byte_tables") == 0
    assert tracer.calls("sigma_lfsr.step_stacked") == 0
    assert tracer.calls("snow2.fsm_step") == 0
    assert first + second == snow2.snow2_keystream(again, 2 * run.CHUNK_WORDS)


def test_every_stage_inversion_and_table_lookup_is_traced(bench):
    # the gf2.primtable.lookup span sees one table polynomial per pipeline
    # stage, 12 in a 4x4 gen-config (k = 0) and 12 in a keyed init (the
    # online iterations); gf2.poly.inv_mod sees one inversion per stage
    # wider than confgen.LOG_TABLE_MAX_WIDTH = 16: none of the 4x4 stages
    # (widths 4..15, all on the log tables), and every keyed stage
    # (widths 500..511)
    spans, _ = bench
    from kdfc_snow import confgen, kdfc

    p16 = confgen.pipeline_poly(16)
    y = confgen.y_offline(4, 4, 0, confgen.FillBits(4, []))
    online = confgen.FillBits.from_seed(4, 12, "spans", "online-fill")
    params = kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV)
    kdfc.kdfc_init(params)  # y_init and the shared SNOW 2.0 tables exist
    for run, inversions in (
        (lambda: confgen.generate_config(4, 4, p16, y, online), 0),
        (lambda: kdfc.kdfc_init(params), 12),
    ):
        tracer = spans.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        assert tracer.calls("gf2.poly.inv_mod") == inversions
        assert tracer.calls("gf2.primtable.lookup") == 12


def test_perfbench_call_shapes():
    """The library calls perfbench/run.py makes, with its argument shapes."""
    from kdfc_snow import confgen, kdfc
    from kdfc_snow.sigma_lfsr import config_char_poly

    # config-gen's seeded(): what `kdfc-snow gen-config` runs with k = 0
    m, nb, seed = 4, 4, "shapes"
    offline = confgen.FillBits.from_seed(m, 0, seed, "offline-fill")
    online = confgen.FillBits.from_seed(m, m * nb - m, seed, "online-fill")
    y = confgen.y_offline(m, nb, 0, offline)
    poly = confgen.pipeline_poly(m * nb)
    cfg = confgen.generate_config(m, nb, poly, y, online)
    assert config_char_poly(cfg) == poly

    # the y_init rebuild is compared with `==` against the shipped matrix,
    # so both must be of one type (a list of row ints)
    rebuilt = confgen.y_offline(m, nb, 3, confgen.FillBits.from_seed(m, 3, seed, "x"))
    assert type(rebuilt) is type(kdfc.load_y_init().y)

    # keyed-init's derive(), with the library verify off
    state = kdfc.kdfc_init(kdfc.KdfcParams(key=KAT_KEY, iv=KAT_IV, verify_config=False))
    assert config_char_poly(state.cfg) == kdfc.target_poly()
    assert len(kdfc.kdfc_keystream(state, 8)) == 8
