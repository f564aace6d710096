"""Bit-packed GF(2) linear algebra and polynomial arithmetic."""

from kdfc_snow.gf2.linalg import (
    BitMatrix,
    DimensionError,
    SingularMatrixError,
    NoSolutionError,
    berlekamp_massey,
    char_poly,
    determinant,
    mat_inverse,
    mat_mul,
    mat_vec_mul,
    rank,
    vec_from_hex,
    vec_to_hex,
)
from kdfc_snow.gf2.poly import (
    Gf2Poly,
    gcd,
    inv_mod,
    is_irreducible,
    is_primitive,
    powmod,
    weight,
)
from kdfc_snow.gf2.primtable import PrimitiveTable, primitive_poly

__all__ = [
    "BitMatrix",
    "DimensionError",
    "SingularMatrixError",
    "NoSolutionError",
    "Gf2Poly",
    "gcd",
    "inv_mod",
    "powmod",
    "PrimitiveTable",
    "berlekamp_massey",
    "char_poly",
    "determinant",
    "is_irreducible",
    "is_primitive",
    "mat_inverse",
    "mat_mul",
    "mat_vec_mul",
    "primitive_poly",
    "rank",
    "vec_from_hex",
    "vec_to_hex",
    "weight",
]
