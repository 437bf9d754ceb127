"""Polynomial (Lagrange) view of the systematic code: a test oracle.

The systematic-Vandermonde generator on points 0..n-1 makes every stripe
a Reed-Solomon codeword in the evaluation view: its parity coefficient
alpha_{j,i} is the Lagrange basis polynomial L_i of the points 0..k-1
evaluated at j, and the stripe is

    c_j = f(j),   f = the unique degree-< k polynomial with
                  f(i) = data_i for i < k.

:class:`~repro.erasure.code.MDSCode`'s generator is that parity block
normalised by diagonal scaling: alpha_{j,i} = r_j L_i(j) s_i with
s_i = 1 / L_i(k) (parity row k all ones) and r_j = L_0(k) / L_0(j)
(column 0 all ones). So block x times ``scale(x)`` — s_x for a data
block, 1 / r_x for a parity block — is f(x) for f through the scaled
data, and reconstruction from any k fragments is: unscale the
fragments, interpolate, rescale. That is an *independent* decode
algorithm from the matrix solve of ``MDSCode``'s decode plans;
``test_lagrange.py`` cross-checks the two on random stripes, which
guards both implementations at once. The oracle lives beside it, not in
the installed package.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeError, DecodeError
from repro.gf.field import GF2m

__all__ = ["lagrange_coefficients", "lagrange_reconstruct", "scale"]


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


def scale(field: GF2m, k: int, x: int) -> int:
    """The factor that maps block x of a k-data-block stripe to f(x)."""
    at_k = lagrange_coefficients(field, range(k), k)  # L_i(k), i < k
    if x < k:
        return int(field.inv(at_k[x]))
    return int(field.div(lagrange_coefficients(field, range(k), x)[0], at_k[0]))


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
    The evaluation point of global block index j is j, and k is the
    number of points; the fragments are unscaled by :func:`scale`
    before interpolation and the result rescaled after it.
    """
    fragments = np.asarray(fragments, dtype=field.dtype)
    points = [int(x) for x in points]
    if fragments.ndim != 2 or fragments.shape[0] != len(points):
        raise DecodeError(
            f"fragments must have shape ({len(points)}, L), got {fragments.shape}"
        )
    if target in points:
        return fragments[points.index(target)].copy()
    k = len(points)
    coeffs = lagrange_coefficients(field, points, target)
    unscaled = field.mul(coeffs, [scale(field, k, x) for x in points])
    return field.dot(field.div(unscaled, scale(field, k, target)), fragments)
