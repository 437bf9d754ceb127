"""The systematic MDS generator matrix.

An (n, k) MDS code is represented by an n x k generator matrix G whose top
k x k block is the identity (systematic: the original data blocks are stored
verbatim, which the paper requires "for trivial performance reasons").
The MDS property is equivalent to *every* k x k row-submatrix of G being
invertible, which guarantees "any k blocks chosen over the n may be used to
reconstruct any of the k original blocks".

There is one construction: G = [I ; P] with P the Cauchy matrix
``1 / (x_j + y_i)`` on parity points x = k..n-1 and data points
y = 0..k-1, *normalised*: each column is scaled so the first parity row
is all ones, then each row so column 0 is all ones (Plank & Xu,
"Optimizing Cauchy Reed-Solomon Codes", NCA 2006).

Why the code stays MDS
    A mixed selection of identity and parity rows reduces, after column
    elimination, to a square submatrix of P, so [I ; P] is MDS iff every
    square submatrix of P is nonsingular. Every square submatrix of a
    Cauchy matrix is. Scaling rows and columns by nonzero factors scales
    each square submatrix's determinant by a nonzero product, so the
    normalised P keeps the property.

Why the classical constructions coincide
    Systematic Vandermonde on points 0..n-1, V V_top^-1, has a parity
    block that is the same Cauchy matrix scaled by diagonal matrices on
    both sides. The normalised form ``P[j,i] P[0,0] / (P[0,i] P[j,0])`` is
    invariant under such scaling, so both normalise to this one matrix.

Why normalise
    Eq. 1 does not fix the alpha, and a coefficient of 1 costs the GF
    kernels an XOR instead of a multiply (:mod:`repro.gf.kernels`). With
    n - 1 of the k(n - k) parity coefficients equal to 1, every write
    ships at least one parity delta unscaled, and a write to block 0 ships
    all of them unscaled.

:func:`verify_mds` checks the property (exhaustive for small parameters,
sampled otherwise); the test suite runs the exhaustive check.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.errors import ConfigurationError
from repro.gf.field import GF2m
from repro.gf.linalg import cauchy, identity, is_invertible

__all__ = ["build_generator", "verify_mds"]


def build_generator(field: GF2m, n: int, k: int) -> np.ndarray:
    """The systematic generator ``[I ; P]`` of shape (n, k), P normalised."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if n < k:
        raise ConfigurationError(f"need n >= k, got n={n}, k={k}")
    if n > field.order:
        raise ConfigurationError(
            f"(n={n}, k={k}) needs {n} distinct points but GF(2^{field.width}) "
            f"has only {field.order} elements; use a wider field"
        )
    g = np.zeros((n, k), dtype=field.dtype)
    g[:k] = identity(field, k)
    if n > k:
        p = cauchy(
            field, np.arange(k, n, dtype=field.dtype), np.arange(k, dtype=field.dtype)
        )
        p = field.div(p, p[0][None, :])
        g[k:] = field.div(p, p[:, 0][:, None])
    return g


def verify_mds(
    field: GF2m,
    generator: np.ndarray,
    *,
    exhaustive_limit: int = 5000,
    samples: int = 500,
    rng: np.random.Generator | None = None,
) -> bool:
    """Check the MDS property: every k row-subset of G is invertible.

    Exhaustive when C(n, k) <= ``exhaustive_limit``; otherwise checks
    ``samples`` uniformly sampled subsets (a probabilistic certificate used
    only for large parameter spaces).
    """
    n, k = generator.shape
    total = comb(n, k)
    if total <= exhaustive_limit:
        subsets = combinations(range(n), k)
        for rows in subsets:
            if not is_invertible(field, generator[list(rows)]):
                return False
        return True
    rng = rng or np.random.default_rng(0)
    for _ in range(samples):
        rows = rng.choice(n, size=k, replace=False)
        if not is_invertible(field, generator[rows]):
            return False
    return True
