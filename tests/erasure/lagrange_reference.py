"""Polynomial (Lagrange) view of the systematic Vandermonde code: a test oracle.

The systematic-Vandermonde generator G = V V_top^{-1} makes every stripe
a Reed-Solomon codeword in the evaluation view: with evaluation points
x_0..x_{n-1} (the Vandermonde points), the stripe is

    c_j = f(x_j),   f = the unique degree-< k polynomial with
                    f(x_i) = data_i for i < k.

Reconstruction from any k fragments is therefore Lagrange interpolation —
an *independent* decode algorithm from the Gauss-Jordan matrix path in
:class:`~repro.erasure.code.MDSCode`. ``test_lagrange.py`` cross-checks
the two on random stripes, which guards both implementations at once; the
oracle lives beside it, not in the installed package.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeError, DecodeError
from repro.gf.field import GF2m

__all__ = ["lagrange_coefficients", "lagrange_reconstruct"]


def lagrange_coefficients(field: GF2m, xs, target: int) -> np.ndarray:
    """Weights L_i(target) for interpolation points ``xs``.

    ``sum_i L_i(target) * f(xs[i]) = f(target)`` for every polynomial f of
    degree < len(xs).
    """
    xs = [int(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise CodeError(f"interpolation points must be distinct, got {xs}")
    if any(not 0 <= x < field.order for x in xs):
        raise CodeError("interpolation points must be field elements")
    if not 0 <= target < field.order:
        raise CodeError("target must be a field element")
    coeffs = np.zeros(len(xs), dtype=field.dtype)
    for i, xi in enumerate(xs):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = int(field.mul(num, target ^ xj))  # (target - x_j)
            den = int(field.mul(den, xi ^ xj))  # (x_i - x_j)
        coeffs[i] = field.mul(num, field.inv(den))
    return coeffs


def lagrange_reconstruct(
    field: GF2m, points, fragments, target: int
) -> np.ndarray:
    """Reconstruct the fragment at evaluation point ``target``.

    Parameters
    ----------
    points:
        Evaluation points of the known fragments (k distinct elements).
    fragments:
        (k, L) array of fragment payloads, one row per point.
    target:
        Evaluation point of the block to rebuild.

    Notes
    -----
    Valid for the ``"vandermonde"`` construction of :class:`MDSCode`,
    whose evaluation point for global block index j is simply j.
    """
    fragments = np.asarray(fragments, dtype=field.dtype)
    points = [int(x) for x in points]
    if fragments.ndim != 2 or fragments.shape[0] != len(points):
        raise DecodeError(
            f"fragments must have shape ({len(points)}, L), got {fragments.shape}"
        )
    if target in points:
        return fragments[points.index(target)].copy()
    coeffs = lagrange_coefficients(field, points, target)
    return field.dot(coeffs, fragments)
