"""Attack-surface arithmetic and the guess-and-determine basis search.

Three quantitative tools:

* bias propagation for linear distinguishers (piling-up of a tap-count
  XOR of biased approximations) and the keystream length they need;
* exact linearization-size counting, sum of binomials C(n, i) up to the
  monomial-degree bound, with the exponent reported in log2;
* index tables over "node" variables (consecutive LFSR output words
  followed by consecutive FSM register words), closure of a known set
  under rows with a single unknown, and a stage-wise best-path search
  for a small basis of guesses that eliminates every node.

Tables for the fixed 16-block cipher use nodes 0..34 (LFSR outputs) and
35..55 (register words), three families of 19 rows.  For the derived
512-order recurrence the same construction yields 514-row families over
1542 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from kdfc_snow.gf2.linalg import check_int

__all__ = [
    "IndexTables",
    "GdPath",
    "NoCoverError",
    "pileup_bias",
    "keystream_needed",
    "linearization_size",
    "linearization_log2",
    "recurrence_row_tables",
    "build_snow2_tables",
    "build_kdfc_tables",
    "gd_search",
]


#: bound on (terms x bits) for the exact linearization count
LINEARIZATION_GUARD = 1 << 32
#: bound on the paths gd_search scores: 2^20 two-node paths over the 56-node
#: SNOW 2.0 tables take about 8 s (CPython 3.11, x86-64); the 1,542-node
#: KDFC tables fit one stage, a second would score 2.4 M paths
GD_GUARD = 1 << 20


def pileup_bias(eps_log2: float, taps: int) -> float:
    """log2 of the combined bias of an XOR of ``taps`` biased terms.

    Piling-up: eps_final = 2^(taps-1) * eps^taps, all in log2.  A taps
    that is not an int (a bool is not one here) is refused.
    """
    check_int("taps", taps, 1)
    if not math.isfinite(eps_log2) or eps_log2 > 0:
        raise ValueError("eps_log2 is a bias exponent, must be finite and <= 0")
    try:
        return (taps - 1) + taps * eps_log2
    except OverflowError:
        raise ValueError(f"taps is too large for a float ({taps.bit_length()} bits)") from None


def keystream_needed(eps_final_log2: float) -> float:
    """log2 keystream length to distinguish at the given combined bias."""
    if not math.isfinite(eps_final_log2) or eps_final_log2 >= 0:
        raise ValueError("need a finite negative log2 bias")
    return -2.0 * eps_final_log2


def linearization_size(nvars: int, max_deg: int) -> int:
    """Number of monomials of degree <= max_deg in nvars variables (exact).

    The exact sum costs max_deg steps on binomials of at most
    min(nvars, max_deg * bits(nvars)) bits; that product is refused above
    LINEARIZATION_GUARD (about a second of work).  A count that is not an
    int (a bool is not one here) is refused.
    """
    check_int("nvars", nvars, None)
    check_int("max_deg", max_deg, None)
    if not 0 <= max_deg <= nvars:
        raise ValueError("need 0 <= max_deg <= nvars")
    work = (max_deg + 1) * min(nvars, max_deg * nvars.bit_length())
    if work > LINEARIZATION_GUARD:
        raise ValueError(
            f"exact count for n={nvars}, degree={max_deg} is too large "
            f"(work {work} exceeds the 2^{LINEARIZATION_GUARD.bit_length() - 1} guard)"
        )
    term = total = 1
    for i in range(max_deg):
        term = term * (nvars - i) // (i + 1)  # C(n, i + 1) from C(n, i)
        total += term
    return total


def linearization_log2(nvars: int, max_deg: int) -> float:
    """log2 of linearization_size (handles values far beyond float range)."""
    return _log2_int(linearization_size(nvars, max_deg))


def _log2_int(n: int) -> float:
    if n <= 0:
        raise ValueError("log2 of a non-positive count")
    bits = n.bit_length()
    if bits <= 53:
        return math.log2(n)
    return math.log2(n >> (bits - 53)) + (bits - 53)


@dataclass(frozen=True)
class IndexTables:
    """Rows of node indices; a row is solvable once all but one are known."""

    rows: list[list[int]]
    node_count: int

    def __post_init__(self):
        check_int("node_count", self.node_count, 1)
        for r in self.rows:
            if not r:
                raise ValueError("rows must be nonempty")
            for idx in r:
                if not 0 <= idx < self.node_count:
                    raise ValueError(
                        f"index {idx} outside 0..{self.node_count - 1}"
                    )


@dataclass(frozen=True)
class GdPath:
    """An ordered list of guessed nodes (the candidate basis)."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path nodes must be distinct")

    def __len__(self) -> int:
        return len(self.nodes)

    def guess_complexity_log2(self) -> int:
        """log2 of the guessing work: 32 bits per guessed node."""
        return 32 * len(self.nodes)


class NoCoverError(RuntimeError):
    """gd_search exhausted max_stages without eliminating every node."""

    def __init__(self, msg: str, best: GdPath, eliminated: int):
        super().__init__(msg)
        self.best = best
        self.eliminated = eliminated


def recurrence_row_tables(
    exponents: list[int], stages: int, fsm_stages: int | None = None
) -> IndexTables:
    """Index tables from a recurrence support plus the two FSM families.

    The first family slides the recurrence support: row t is
    {e + t for e in exponents}, t = 0..stages-1, so LFSR output nodes run
    0..deg+stages-1.  Register nodes follow; with base r = deg+stages the
    FSM families are rows {4+t, r+t, r+2+t} and {t, 15+t, r+1+t, r+2+t}
    for t = 0..fsm_stages-1 (default: same as stages), using fsm_stages+2
    register nodes.
    """
    check_int("stages", stages, 1)
    if fsm_stages is None:
        fsm_stages = stages
    check_int("fsm_stages", fsm_stages, 0)
    deg = max(exponents)
    if min(exponents) != 0:
        raise ValueError("recurrence support must include 0")
    lfsr_nodes = deg + stages
    r = lfsr_nodes
    node_count = lfsr_nodes + fsm_stages + 2
    fam1 = [[e + t for e in exponents] for t in range(stages)]
    fam2 = [[4 + t, r + t, r + 2 + t] for t in range(fsm_stages)]
    fam3 = [[t, 15 + t, r + 1 + t, r + 2 + t] for t in range(fsm_stages)]
    return IndexTables(rows=fam1 + fam2 + fam3, node_count=node_count)


def build_snow2_tables() -> IndexTables:
    """The 56-node tables: three 19-row families over taps {0, 2, 11, 16}."""
    return recurrence_row_tables([0, 2, 11, 16], stages=19)


def build_kdfc_tables() -> IndexTables:
    """The 1542-node tables for the degree-512 recurrence (514-row families)."""
    from kdfc_snow.gf2.poly import exponent_list
    from kdfc_snow.kdfc import target_poly

    return recurrence_row_tables(exponent_list(target_poly()), stages=514)


class _Solver:
    """Worklist closure engine with per-row unknown counts.

    Keeps, for each row, the number of entries not yet known and the sum
    of their indices; when a row drops to one unknown, that sum names
    the determined node.  A closure touches each incident row once per
    newly known node, so the cost scales with the closure size, not the
    table size.
    """

    def __init__(self, tables: IndexTables):
        self.node_count = tables.node_count
        rows = [list(dict.fromkeys(r)) for r in tables.rows]
        self.base_counts = [len(r) for r in rows]
        self.base_sums = [sum(r) for r in rows]
        self.incidence: list[list[int]] = [[] for _ in range(self.node_count)]
        for ri, r in enumerate(rows):
            for v in r:
                self.incidence[v].append(ri)
        self.width = max(self.base_counts)

    def run(self, known) -> tuple[bytearray, int, list[int]]:
        """Returns (membership bytes, closure size, per-row unknown counts)."""
        counts = self.base_counts[:]
        sums = self.base_sums[:]
        member = bytearray(self.node_count)
        stack = []
        for v in known:
            if not member[v]:
                member[v] = 1
                stack.append(v)
        size = len(stack)
        incidence = self.incidence
        while stack:
            v = stack.pop()
            for ri in incidence[v]:
                counts[ri] -= 1
                sums[ri] -= v
                if counts[ri] == 1:
                    u = sums[ri]
                    if not member[u]:
                        member[u] = 1
                        size += 1
                        stack.append(u)
        return member, size, counts

    def score(self, known) -> tuple[tuple, int]:
        """((eliminated, rows with 2 unknowns, rows with 3, ...), size)."""
        _, size, counts = self.run(known)
        hist = [0] * (self.width + 1)
        for c in counts:
            hist[c] += 1
        return (size, *hist[2:]), size


def gd_search(tables: IndexTables, max_stages: int) -> GdPath:
    """Stage-wise best-path basis search.

    Stage i keeps, for every node, the best path of i guesses ending at
    that node, scored by nodes eliminated and, on ties, lexicographically
    by the count of rows left with 2 unknowns, then 3, and so on.  Ties
    after that resolve to the lowest node index (candidates are scanned
    in ascending node order and replacement requires strict improvement).
    Returns the first path whose closure covers every node; raises
    NoCoverError with the best path found if max_stages is not enough.
    A search that could score more than GD_GUARD paths, n for stage 1
    and n^2 for each later stage over n nodes, is refused before any work.
    """
    check_int("max_stages", max_stages, 1)
    n = tables.node_count
    paths = n + (max_stages - 1) * n * n
    if paths > GD_GUARD:
        raise ValueError(
            f"search over {n} nodes in {max_stages} stages is too large "
            f"({paths} paths exceed the 2^{GD_GUARD.bit_length() - 1} guard)"
        )
    solver = _Solver(tables)
    # stage 1 extends the empty path; stage i extends stage i-1's best paths
    best: list[tuple[tuple, tuple[int, ...]]] = [((), ())]
    overall = None
    for _stage in range(max_stages):
        nxt = []
        covering = []
        for k in range(n):
            incumbent = None
            for _, prev_path in best:
                if k in prev_path:
                    continue
                path = prev_path + (k,)
                score, size = solver.score(path)
                if incumbent is None or score > incumbent[0]:
                    incumbent = (score, path)
                    if size == n:
                        covering.append((score, path))
            if incumbent is not None:
                nxt.append(incumbent)
                if overall is None or incumbent[0] > overall[0]:
                    overall = incumbent
        if covering:
            covering.sort(key=lambda sp: (tuple(-x for x in sp[0]), sp[1]))
            return GdPath(covering[0][1])
        best = nxt
    assert overall is not None
    raise NoCoverError(
        f"no covering basis within {max_stages} stages "
        f"(best eliminates {overall[0][0]} of {n})",
        GdPath(overall[1]),
        overall[0][0],
    )
