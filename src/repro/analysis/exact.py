"""Exact snapshot-model availability of TRAP-ERC reads.

The paper's closed forms assume the *snapshot model*: every node is
independently alive with probability p and every alive node holds the
latest version. Under that model the availability of any protocol is a
polynomial in p whose coefficients are *subset counts* — the number of
alive-subsets of each size satisfying the protocol predicate.

The counts come from the level-occupancy engine
(:mod:`repro.analysis.occupancy`): the joint level-count grid gives the
same integer counts as enumerating every subset, in
``O(prod(s_l + 1))``, and the per-shape tables are cached, so per-``p``
re-evaluation is effectively free. The enumeration reference the grid is
property-tested against lives with the tests
(``tests/analysis/exact_reference.py``).

Counting is over the n - k + 1 trapezoid nodes only: the k - 1 data
nodes outside the trapezoid influence reads solely through their alive
*count*, which is binomial and independent, so they are folded in
analytically.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.availability import validate_erc_geometry
from repro.analysis.occupancy import erc_level_counts
from repro.analysis.phi import at_least
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "counts_to_probability",
    "fold_read_erc",
    "exact_read_erc",
]


def counts_to_probability(counts: np.ndarray, num_nodes: int, p) -> np.ndarray:
    """sum_c counts[c] p^c (1-p)^(num_nodes-c), vectorized over p."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    for c, cnt in enumerate(counts):
        if cnt:
            out = out + cnt * p**c * (1.0 - p) ** (num_nodes - c)
    return out


def fold_read_erc(
    counts_direct: np.ndarray,
    counts_decode: np.ndarray,
    nb: int,
    k: int,
    p,
) -> np.ndarray:
    """The shared ERC probability fold over split subset counts.

    Direct patterns succeed outright; decode patterns with t alive
    parities must be topped up to k by the other k - 1 data nodes:
    P(Bin(k-1, p) >= k - t).
    """
    p = np.asarray(p, dtype=np.float64)
    out = counts_to_probability(counts_direct, nb, p)
    for t, cnt in enumerate(counts_decode):
        if not cnt:
            continue
        if t >= k:
            top_up = np.ones_like(p)
        else:
            top_up = at_least(k - 1, k - t, p)
        out = out + cnt * p**t * (1.0 - p) ** (nb - t) * top_up
    return out


def exact_read_erc(quorum: TrapezoidQuorum, n: int, k: int, p) -> np.ndarray:
    """Exact Algorithm-2 read availability of TRAP-ERC (snapshot model).

    The read of data block b_i succeeds iff

    1. some trapezoid level l has at least r_l alive members
       (the version check of Algorithm 2 lines 11-30), AND
    2. either N_i is alive (direct read, Case 1), or at least k nodes among
       the other n - 1 are alive (decode, Case 2).

    The split counts are read off the cached level-occupancy grid.
    """
    validate_erc_geometry(quorum, n, k)
    shape = quorum.shape
    counts_direct, counts_decode = erc_level_counts(
        shape.level_sizes, quorum.read_thresholds
    )
    return fold_read_erc(counts_direct, counts_decode, shape.total_nodes, k, p)
