"""Counts, states and polynomials of the wrong kind are refused at the entry."""

import pytest

from kdfc_snow.attacks import linearization_size, pileup_bias
from kdfc_snow.gf2.poly import is_irreducible, is_primitive
from kdfc_snow.sigma_lfsr import SigmaConfig, step_stacked

CFG_2X2 = SigmaConfig(2, 2, [0b0110, 0b1011])


@pytest.mark.parametrize("call,match", [
    (lambda: step_stacked(CFG_2X2, -1), "need v >= 0"),
    (lambda: step_stacked(CFG_2X2, 1 << 20), "v must be below 2\\^4, got 0x100000"),
    (lambda: is_irreducible(1.5), "p must be an int, got float"),
    (lambda: is_primitive(1.5), "p must be an int, got float"),
    (lambda: linearization_size(True, 1), "nvars must be an int, got bool"),
    (lambda: linearization_size(10.5, 2), "nvars must be an int, got float"),
    (lambda: pileup_bias(-1.0, 2.5), "taps must be an int, got float"),
    (lambda: pileup_bias(-1.0, True), "taps must be an int, got bool"),
], ids=["state-negative", "state-too-wide", "irreducible-float", "primitive-float",
        "nvars-bool", "nvars-float", "taps-float", "taps-bool"])
def test_refused_with_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
