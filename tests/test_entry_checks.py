"""Counts, states and polynomials of the wrong kind are refused at the entry."""

import numpy as np
import pytest

from kdfc_snow.attacks import (
    IndexTables, gd_search, linearization_size, pileup_bias, recurrence_row_tables,
)
from kdfc_snow.gf2 import linalg, poly
from kdfc_snow.gf2.poly import is_irreducible, is_primitive, powmod
from kdfc_snow.randtests import binary_matrix_rank
from kdfc_snow.sigma_lfsr import SigmaConfig, step_stacked

CFG_2X2 = SigmaConfig(2, 2, [0b0110, 0b1011])
TABLES = IndexTables(rows=[[0, 1], [1, 2]], node_count=3)


@pytest.mark.parametrize("call,match", [
    (lambda: step_stacked(CFG_2X2, -1), "need v >= 0"),
    (lambda: step_stacked(CFG_2X2, 1 << 20), "v must be below 2\\^4, got 0x100000"),
    (lambda: is_irreducible(1.5), "p must be an int, got float"),
    (lambda: is_primitive(1.5), "p must be an int, got float"),
    (lambda: linearization_size(True, 1), "nvars must be an int, got bool"),
    (lambda: linearization_size(10.5, 2), "nvars must be an int, got float"),
    (lambda: pileup_bias(-1.0, 2.5), "taps must be an int, got float"),
    (lambda: pileup_bias(-1.0, True), "taps must be an int, got bool"),
    (lambda: powmod(2, True, 7), "exp must be an int, got bool"),  # returned 2
    (lambda: powmod(2, 2.5, 7), "exp must be an int, got float"),
    (lambda: gd_search(TABLES, 2.5), "max_stages must be an int, got float"),  # TypeError
    (lambda: recurrence_row_tables([0, 2], stages=2.5), "stages must be an int, got float"),
    (lambda: recurrence_row_tables([0, 2], stages=True), "stages must be an int, got bool"),
    (lambda: recurrence_row_tables([0, 2], 2, fsm_stages=-1), "need fsm_stages >= 0"),
    (lambda: IndexTables(rows=[[0, 1]], node_count=2.0), "node_count must be an int, got float"),
    (lambda: binary_matrix_rank(np.zeros(0, np.uint8), True), "size must be an int, got bool"),
], ids=["state-negative", "state-too-wide", "irreducible-float", "primitive-float",
        "nvars-bool", "nvars-float", "taps-float", "taps-bool", "exp-bool", "exp-float",
        "max-stages-float", "stages-float", "stages-bool", "fsm-stages-negative",
        "node-count-float", "size-bool"])
def test_refused_with_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_one_int_check():
    # gf2.linalg re-exports the check gf2.poly defines
    assert linalg.check_int is poly.check_int
