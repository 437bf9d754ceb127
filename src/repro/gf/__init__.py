"""Finite-field substrate: GF(2^w) arithmetic and linear algebra.

This package is the first substrate of the reproduction: the
arithmetic over GF(2^h) that the paper's equation (1) requires for
computing parity blocks ``b_j = sum_i alpha_ji * b_i``.
"""

from repro.gf.bitmatrix import (
    bitmatrix_matvec,
    bitmatrix_to_element,
    element_to_bitmatrix,
    expand_matrix,
    xor_count,
)
from repro.gf.field import GF256, GF2m
from repro.gf.kernels import (
    gf_matmul,
    gf_matvec,
    gf_scaled_rows,
    xor_blocks,
    xor_into,
)
from repro.gf.linalg import (
    cauchy,
    identity,
    inverse,
    is_invertible,
    matmul,
    matmul_reference,
    matvec,
    matvec_reference,
    rank,
    solve,
    vandermonde,
)
from repro.gf.polynomials import (
    SEED_PRIMITIVE_POLYS,
    default_primitive_poly,
    find_primitive_poly,
    is_irreducible,
    is_primitive,
)

__all__ = [
    "GF2m",
    "GF256",
    "element_to_bitmatrix",
    "bitmatrix_to_element",
    "expand_matrix",
    "bitmatrix_matvec",
    "xor_count",
    "gf_matmul",
    "gf_matvec",
    "gf_scaled_rows",
    "xor_into",
    "xor_blocks",
    "identity",
    "matmul",
    "matmul_reference",
    "matvec",
    "matvec_reference",
    "inverse",
    "rank",
    "solve",
    "is_invertible",
    "vandermonde",
    "cauchy",
    "SEED_PRIMITIVE_POLYS",
    "default_primitive_poly",
    "find_primitive_poly",
    "is_irreducible",
    "is_primitive",
]
