"""The paper's Φ notation (eq. 7), vectorized over node availability p.

    Φ_z(i, j) = sum_{m=i..j} C(z, m) p^m (1-p)^{z-m}

i.e. the probability that the number of available nodes among z i.i.d.
Bernoulli(p) nodes falls in [i, j]. Computed as that sum, term by term,
from the exact integer C(z, m): a range is a sum of non-negative terms,
with no ``cdf(j) - cdf(i - 1)`` cancellation, and past z = 1029, where
C(z, m) overflows a float, each term is built in log space, so no term
turns into inf or nan. Every sum runs from m = j down to m = i, the
order in which :func:`at_least_table` accumulates its rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import log

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["phi", "at_least", "at_least_table", "exactly"]


def _as_p(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ConfigurationError("availability p must lie in [0, 1]")
    return p


def _check_z(z: int) -> None:
    if z < 0:
        raise ConfigurationError(f"z must be >= 0, got {z}")


@lru_cache(maxsize=256)
def _comb_row(z: int) -> tuple[np.ndarray, bool]:
    """``(C(z, m) for m = 0..z, in_log)``: the exact integers rounded to
    floats, or their logs (``in_log``) once the central one overflows a
    float, which happens past z = 1029."""
    row = [1]
    for m in range(z):
        row.append(row[-1] * (z - m) // (m + 1))  # exact: C(z, m + 1)
    try:
        coeffs, in_log = np.array([float(c) for c in row]), False
    except OverflowError:
        coeffs, in_log = np.array([log(c) for c in row]), True
    coeffs.setflags(write=False)  # cached: shared by every caller
    return coeffs, in_log


def _pmf(z: int, p: np.ndarray) -> np.ndarray:
    """P(#available == m) for every m in 0..z, on axis 0.

    Always the whole support: numpy's vector ``power`` can round one
    element differently in arrays of different shapes, so every caller
    slices this one array and equal ranges get equal bits.
    """
    m = np.arange(z + 1, dtype=np.float64).reshape((-1,) + (1,) * p.ndim)
    row, in_log = _comb_row(z)
    coeff = row.reshape(m.shape)
    if not in_log:
        # A product of correctly rounded factors; 0.0 ** 0 == 1.0 covers
        # p = 0 and p = 1.
        return coeff * p**m * (1.0 - p) ** (z - m)
    # Past z = 1029 p^m can underflow where its term does not, so the
    # term is built in log space. m log p and (z - m) log(1 - p) are 0
    # where the count is 0, even where the log is -inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(m > 0, m * np.log(p), 0.0)
        log_q = np.where(m < z, (z - m) * np.log1p(-p), 0.0)
    return np.exp(coeff + log_p + log_q)


def _sum_down(terms: np.ndarray) -> np.ndarray:
    """Running sums of ``terms`` from the last row up: row r is
    ``terms[-1] + terms[-2] + ... + terms[r]``, added in that order."""
    return np.cumsum(terms[::-1], axis=0)[::-1]


def phi(z: int, i: int, j: int, p) -> np.ndarray:
    """Φ_z(i, j): P(i <= #available <= j) for z nodes of availability p.

    Follows the paper's convention that an empty index range (j < i) is the
    empty sum, i.e. probability 0. Bounds are clamped to the support
    [0, z], so e.g. Φ_z(0, -1) = 0 and Φ_z(0, z+5) = 1.
    """
    _check_z(z)
    p = _as_p(p)
    lo = max(i, 0)
    hi = min(j, z)
    if hi < lo:
        return np.zeros_like(p)
    return np.asarray(_sum_down(_pmf(z, p)[lo : hi + 1])[0])


def at_least(z: int, i: int, p) -> np.ndarray:
    """Φ_z(i, z): P(#available >= i). The common special case."""
    return phi(z, i, z, p)


def at_least_table(z: int, p) -> np.ndarray:
    """``at_least(z, i, p)`` for every threshold i in 0..z, stacked on axis 0.

    Shared-table form used when one (level, p) pair is probed at many
    thresholds (the optimizer's w-vector families): one pmf and one
    running sum from m = z down, the additions :func:`at_least` makes, so
    row i is exactly the scalar ``at_least(z, i, p)`` and table lookups
    reproduce per-call results bit for bit.
    """
    _check_z(z)
    p = _as_p(p)
    return _sum_down(_pmf(z, p))


def exactly(z: int, m: int, p) -> np.ndarray:
    """P(#available == m) = C(z, m) p^m (1-p)^(z-m)."""
    _check_z(z)
    p = _as_p(p)
    if not 0 <= m <= z:
        return np.zeros_like(p)
    return np.asarray(_pmf(z, p)[m])
