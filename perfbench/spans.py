"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: `Tracer.install`
replaces each listed library function with a timing wrapper in every
``kdfc_snow`` module that holds a reference to it, so calls are caught
where the caller looks the name up (``snow2`` imports ``step_stacked``,
``primtable`` imports ``is_irreducible``, and so on).  Nothing inside
``src/`` knows about tracing.

Each span has a name, start, end, parent span and op id.  While the op
is "check" (the benchmark's own output checks) nothing is recorded, so
the totals count only the workload's work.  Per-name
totals (calls, inclusive time, self time) are always exact; the span log
itself is capped so that a long keystream run stays small in memory.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, span name).  The attribute path may name a
#: method or classmethod as "Class.method".
TRACED = [
    ("kdfc_snow.gf2.primtable", "PrimitiveTable.load_default", "gf2.primtable.load"),
    ("kdfc_snow.gf2.primtable", "PrimitiveTable.__getitem__", "gf2.primtable.lookup"),
    ("kdfc_snow.gf2.poly", "is_irreducible", "gf2.poly.is_irreducible"),
    ("kdfc_snow.gf2.poly", "inv_mod", "gf2.poly.inv_mod"),
    ("kdfc_snow.gf2.linalg", "rank", "gf2.linalg.rank"),
    ("kdfc_snow.gf2.linalg", "determinant", "gf2.linalg.determinant"),
    ("kdfc_snow.gf2.linalg", "mat_inverse", "gf2.linalg.mat_inverse"),
    ("kdfc_snow.gf2.linalg", "mat_mul", "gf2.linalg.mat_mul"),
    ("kdfc_snow.gf2.linalg", "char_poly", "gf2.linalg.char_poly"),
    ("kdfc_snow.confgen", "FillBits.from_seed", "confgen.fill"),
    ("kdfc_snow.confgen", "FillBits.from_words", "confgen.fill"),
    ("kdfc_snow.confgen", "y_iterate", "confgen.y_iterate"),
    ("kdfc_snow.confgen", "y_offline", "confgen.y_offline"),
    ("kdfc_snow.confgen", "build_q", "confgen.build_q"),
    ("kdfc_snow.confgen", "assemble_config", "confgen.assemble_config"),
    ("kdfc_snow.confgen", "generate_config", "confgen.generate_config"),
    ("kdfc_snow.sigma_lfsr", "step_stacked", "sigma_lfsr.step_stacked"),
    ("kdfc_snow.sigma_lfsr", "SigmaConfig.byte_tables", "sigma_lfsr.byte_tables"),
    ("kdfc_snow.sigma_lfsr", "config_char_poly", "sigma_lfsr.config_char_poly"),
    ("kdfc_snow.snow2", "init_with_captures", "snow2.init_with_captures"),
    ("kdfc_snow.snow2", "fsm_step", "snow2.fsm_step"),
    ("kdfc_snow.snow2", "snow2_keystream", "snow2.keystream"),
    ("kdfc_snow.kdfc", "load_y_init", "kdfc.load_y_init"),
    ("kdfc_snow.kdfc", "KdfcParams.resolve", "kdfc.resolve"),
    ("kdfc_snow.kdfc", "kdfc_init", "kdfc.kdfc_init"),
    ("kdfc_snow.randtests", "bits_from_words", "randtests.bits_from_words"),
]

LAYERS = (
    "gf2.primtable", "gf2.poly", "gf2.linalg", "confgen",
    "sigma_lfsr", "snow2", "kdfc", "randtests",
)

SPAN_LOG_CAP = 200_000


def layer_of(name: str) -> str:
    return next(layer for layer in LAYERS if name.startswith(layer + "."))


class Tracer:
    """Span stack, per-name totals and a capped span log."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = ""
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.op_self: dict[tuple[str, str], float] = {}  # (op prefix, layer) -> self_s
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self._stack: list[list] = []  # [name, start, child_s, span index]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def set_op(self, op_id: str) -> None:
        """Name the op that later spans belong to; checks are not traced."""
        self.op = op_id
        if self._patched:
            self.enabled = op_id != "check"

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        index = -1
        if len(self.spans) < SPAN_LOG_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, index])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child_s, index = self._stack.pop()
        dur = end - start
        own = dur - child_s
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += own
        key = (self.op.split("-")[0], layer_of(name))
        self.op_self[key] = self.op_self.get(key, 0.0) + own
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if index >= 0:
            self.spans[index] = (
                name, start, end, parent[3] if parent else -1, self.op,
            )

    @contextmanager
    def span(self, name: str):
        """Record a span around a call made by the benchmark itself."""
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn, when=None):
        def traced(*args, **kwargs):
            if not self.enabled or (when is not None and not when(*args)):
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever a kdfc_snow module holds it."""
        for modname, path, name in TRACED:
            owner = sys.modules[modname]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    # byte_tables is cached on the config: only a build is work
                    when = (
                        (lambda cfg: cfg._byte_tables is None)
                        if path == "SigmaConfig.byte_tables" else None
                    )
                    wrapped = self._wrap(name, raw, when)
                self._patch(cls, attr, raw, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("kdfc_snow"):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, fn, wrapped)
        self.enabled = True

    def _patch(self, obj, attr, original, wrapped) -> None:
        setattr(obj, attr, wrapped)
        self._patched.append((obj, attr, original))

    def uninstall(self) -> None:
        """Put every original function back; later calls cost nothing extra."""
        self.enabled = False
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self) -> dict[str, dict[str, float]]:
        """Self time per layer, split by op kind (the op id before '-')."""
        out: dict[str, dict[str, float]] = {}
        for (kind, layer), own in sorted(self.op_self.items()):
            out.setdefault(kind, {})[layer] = own
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
