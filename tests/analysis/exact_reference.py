"""Subset-enumeration ground truth for the exact availability: a test oracle.

Under the snapshot model the availability of any quorum predicate is a
polynomial in p whose coefficients are *subset counts*: the number of
alive-subsets of each size that satisfy the predicate. The library gets
them from the level-occupancy grid (:mod:`repro.analysis.occupancy`);
this module counts them by materializing all ``2^m`` subsets, which is
the reference the grid is property-tested against and the only way to
count a membership-structured quorum (grid, tree). It lives beside the
occupancy tests, not in the installed package.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.availability import validate_erc_geometry
from repro.analysis.exact import counts_to_probability, fold_read_erc
from repro.analysis.occupancy import predicate_counts
from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "subset_counts",
    "erc_subset_counts",
    "exact_availability",
    "exact_read_erc_enumerated",
]

_MAX_ENUM_NODES = 24


def subset_counts(num_nodes: int, predicate) -> np.ndarray:
    """counts[c] = number of alive-subsets of size c satisfying ``predicate``.

    ``predicate`` receives a frozenset of alive positions. Every subset
    is materialized, so the cost is 2^num_nodes predicate calls.
    """
    if not 0 <= num_nodes <= _MAX_ENUM_NODES:
        raise ConfigurationError(
            f"enumeration supports up to {_MAX_ENUM_NODES} nodes, got {num_nodes}"
        )
    counts = np.zeros(num_nodes + 1, dtype=np.int64)
    for mask in range(1 << num_nodes):
        alive = frozenset(i for i in range(num_nodes) if mask >> i & 1)
        if predicate(alive):
            counts[len(alive)] += 1
    return counts


def erc_subset_counts(quorum: TrapezoidQuorum) -> tuple[np.ndarray, np.ndarray]:
    """The TRAP-ERC split subset counts, by enumeration.

    Returns ``(counts_direct, counts_decode)``:

    * ``counts_direct[c]`` — check-passing patterns with N_i alive, |T| = c,
    * ``counts_decode[c]`` — check-passing patterns with N_i dead, |T| = c
      (then T contains only parity nodes).

    Trapezoid positions: 0 = N_i (level 0), 1.. = the n - k parity nodes
    in level order.
    """
    shape = quorum.shape
    nb = shape.total_nodes
    if nb > _MAX_ENUM_NODES:
        raise ConfigurationError(
            f"trapezoid of {nb} nodes exceeds the enumeration limit {_MAX_ENUM_NODES}"
        )
    level_of = [shape.level_of(pos) for pos in range(nb)]
    r = [quorum.r(l) for l in shape.levels]

    counts_direct = np.zeros(nb + 1, dtype=np.int64)
    counts_decode = np.zeros(nb + 1, dtype=np.int64)
    for mask in range(1 << nb):
        level_counts = [0] * (shape.h + 1)
        size = 0
        for pos in range(nb):
            if mask >> pos & 1:
                level_counts[level_of[pos]] += 1
                size += 1
        if not any(c >= r[l] for l, c in enumerate(level_counts)):
            continue
        if mask & 1:  # position 0 = N_i
            counts_direct[size] += 1
        else:
            counts_decode[size] += 1
    return counts_direct, counts_decode


def exact_availability(system: QuorumSystem, p, kind: str = "write") -> np.ndarray:
    """Exact availability of a quorum predicate under the snapshot model.

    Count-structured systems (trapezoid, majority, ROWA) are counted on
    the occupancy grid with no practical size limit; anything else is
    enumerated (capped at ``_MAX_ENUM_NODES``).
    """
    if kind == "write":
        predicate = system.is_write_quorum
    elif kind == "read":
        predicate = system.is_read_quorum
    else:
        raise ConfigurationError(f"kind must be 'read' or 'write', got {kind!r}")
    count_predicate = system.as_level_thresholds(kind)
    if count_predicate is not None:
        counts = predicate_counts(count_predicate)
    else:
        counts = subset_counts(system.size, predicate)
    return counts_to_probability(counts, system.size, p)


def exact_read_erc_enumerated(
    quorum: TrapezoidQuorum, n: int, k: int, p
) -> np.ndarray:
    """:func:`repro.analysis.exact_read_erc` with the split counts
    enumerated instead of read off the occupancy grid."""
    validate_erc_geometry(quorum, n, k)
    counts_direct, counts_decode = erc_subset_counts(quorum)
    return fold_read_erc(
        counts_direct, counts_decode, quorum.shape.total_nodes, k, p
    )
