"""Bit-packed GF(2) linear algebra and polynomial arithmetic."""
