"""Exact snapshot-model availability (ground truth + occupancy fast path).

The paper's closed forms assume the *snapshot model*: every node is
independently alive with probability p and every alive node holds the
latest version. Under that model the availability of any protocol is a
polynomial in p whose coefficients are *subset counts* — the number of
alive-subsets of each size satisfying the protocol predicate.

Two ways to obtain those counts live here:

* :func:`subset_counts` / :func:`erc_subset_counts` — literal enumeration
  of all ``2^m`` alive-subsets. This is the property-tested reference
  (the same role :func:`repro.gf.linalg.matmul_reference` plays for the
  GF kernels) and the only path for quorums whose predicates depend on
  *which* nodes are alive (grid, tree). Capped at ``_MAX_ENUM_NODES``.
* the level-occupancy engine (:mod:`repro.analysis.occupancy`) — for any
  system exposing :meth:`~repro.quorum.base.QuorumSystem.as_level_thresholds`,
  the identical integer counts come from the joint level-count grid in
  ``O(prod(s_l + 1))``, which lifts the trapezoid node limit far past the
  enumeration budget and makes per-``p`` re-evaluation effectively free
  (counts are p-independent and cached per shape).

Both paths feed the same probability folds, so on inputs the enumeration
can reach the results are bit-identical.

Enumeration/occupancy is over the n - k + 1 trapezoid nodes only: the
k - 1 data nodes outside the trapezoid influence reads solely through
their alive *count*, which is binomial and independent, so they are
folded in analytically.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.availability import validate_erc_geometry
from repro.analysis.occupancy import erc_level_counts, predicate_counts
from repro.analysis.phi import at_least
from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "subset_counts",
    "erc_subset_counts",
    "counts_to_probability",
    "exact_availability",
    "exact_read_erc",
]

_MAX_ENUM_NODES = 24


def subset_counts(num_nodes: int, predicate) -> np.ndarray:
    """counts[c] = number of alive-subsets of size c satisfying ``predicate``.

    ``predicate`` receives a frozenset of alive positions. Enumeration
    reference: every subset is materialized, so the cost is 2^num_nodes
    predicate calls.
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
    """Enumeration reference for the TRAP-ERC split subset counts.

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


def exact_availability(system: QuorumSystem, p, kind: str = "write") -> np.ndarray:
    """Exact availability of a quorum predicate under the snapshot model.

    Count-structured systems (trapezoid, majority, ROWA, unit-weight
    voting) are evaluated through the occupancy engine with no practical
    size limit; anything else falls back to subset enumeration (capped at
    ``_MAX_ENUM_NODES``).
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


def exact_read_erc(
    quorum: TrapezoidQuorum, n: int, k: int, p, *, method: str = "occupancy"
) -> np.ndarray:
    """Exact Algorithm-2 read availability of TRAP-ERC (snapshot model).

    The read of data block b_i succeeds iff

    1. some trapezoid level l has at least r_l alive members
       (the version check of Algorithm 2 lines 11-30), AND
    2. either N_i is alive (direct read, Case 1), or at least k nodes among
       the other n - 1 are alive (decode, Case 2).

    ``method="occupancy"`` (default) reads the split counts off the cached
    level-occupancy grid; ``method="enumeration"`` runs the 2^Nbnode
    reference. The two are integer-identical in the counts and therefore
    bit-identical in the result wherever the reference can run.
    """
    validate_erc_geometry(quorum, n, k)
    shape = quorum.shape
    if method == "occupancy":
        counts_direct, counts_decode = erc_level_counts(
            shape.level_sizes, quorum.read_thresholds
        )
    elif method == "enumeration":
        counts_direct, counts_decode = erc_subset_counts(quorum)
    else:
        raise ConfigurationError(
            f"method must be 'occupancy' or 'enumeration', got {method!r}"
        )
    return fold_read_erc(counts_direct, counts_decode, shape.total_nodes, k, p)
