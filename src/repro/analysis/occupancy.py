"""Level-occupancy tables: exact availability without 2^m enumeration.

Every count-structured quorum predicate (trapezoid levels, majority,
ROWA — anything exposing
:meth:`~repro.quorum.base.QuorumSystem.as_level_thresholds`) depends on an
alive-subset only through its per-group alive counts ``(c_0, ..., c_h)``.
Under the snapshot model the groups are independent, so the joint count
distribution factors into binomials, and the number of alive-subsets
realizing a given count vector is the product of binomial coefficients

    #subsets with counts (c_0..c_h) = prod_g C(s_g, c_g).

This module materializes that joint grid — ``prod(s_g + 1)`` cells
instead of ``2^(sum s_g)`` subsets — and evaluates predicates as
elementwise threshold comparisons over it. The outputs are the *same
integer subset-count arrays* that enumerating every alive-subset
produces, so downstream probability folds are bit-identical to it; the
enumeration is the property-tested ground truth under ``tests/``
(``tests/analysis/exact_reference.py``, checked in
``tests/analysis/test_occupancy.py``).

For TRAP-ERC the level-0 axis is additionally split on whether position 0
(the data node N_i) is alive: the grid then ranges over the ``s_0 - 1``
remaining level-0 nodes and the two branches (direct read / decode) reuse
one set of cell multiplicities with shifted level-0 counts.

Grids and per-threshold count tables are cached per shape
(:func:`functools.lru_cache`), so an availability sweep or an optimizer
pass over many ``p`` values pays for each table exactly once; the family
variants evaluate a whole ``w``-vector family against one grid in a
single vectorized pass.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from repro.errors import ConfigurationError
from repro.quorum.base import CountPredicate

__all__ = [
    "predicate_counts",
    "erc_level_counts",
    "erc_level_counts_family",
    "occupancy_cache_clear",
    "occupancy_cache_info",
]

#: Hard cap on joint-grid cells (not nodes): a flat 1000-node majority is
#: only a 1001-cell grid, while 2^24 subsets already exceed the
#: enumeration budget. Shapes with many tall levels are the only way to
#: blow this. (Node totals are separately bounded by the multiplicity
#: representation: ~1029 nodes, where C(s, s/2) leaves float64 range.)
_MAX_TABLE_CELLS = 1 << 22

#: Largest node total whose subset counts stay exact in int64: the cell
#: multiplicities sum to 2^total, and every single multiplicity is bounded
#: by C(total, total//2) < 2^63 up to 62 nodes. Beyond that the tables
#: switch to float64 (the enumeration reference cannot reach there anyway).
_MAX_INT64_NODES = 62


@lru_cache(maxsize=256)
def _choice_grid(
    choice_sizes: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint occupancy grid over ``prod(s + 1)`` count vectors.

    Returns ``(counts, totals, mult)`` — all read-only, flattened over
    cells: ``counts[cell, g]`` is group g's alive count, ``totals[cell]``
    the cell's total alive count, and ``mult[cell]`` the number of
    alive-subsets realizing the cell's count vector.
    """
    cells = 1
    for s in choice_sizes:
        if s < 0:
            raise ConfigurationError(f"group sizes must be >= 0, got {choice_sizes}")
        cells *= s + 1
    if cells > _MAX_TABLE_CELLS:
        raise ConfigurationError(
            f"occupancy grid of {cells} cells exceeds the table limit "
            f"{_MAX_TABLE_CELLS} (sizes {choice_sizes})"
        )
    total_nodes = sum(choice_sizes)
    dtype = np.int64 if total_nodes <= _MAX_INT64_NODES else np.float64
    axes = np.meshgrid(
        *(np.arange(s + 1, dtype=np.int64) for s in choice_sizes), indexing="ij"
    )
    counts = np.stack([axis.ravel() for axis in axes], axis=1)
    totals = counts.sum(axis=1)
    mult = np.ones(cells, dtype=dtype)
    for g, s in enumerate(choice_sizes):
        try:
            factors = np.array([comb(s, c) for c in range(s + 1)], dtype=dtype)
        except OverflowError:
            # C(s, s/2) beyond float64 range (~1029 nodes in one group):
            # the counts are unrepresentable and the probability terms
            # would overflow anyway — Monte Carlo is the tool up there.
            raise ConfigurationError(
                f"a group of {s} nodes overflows the float64 occupancy "
                "multiplicities; use the Monte-Carlo estimators instead"
            ) from None
        mult = mult * factors[counts[:, g]]
    for arr in (counts, totals, mult):
        arr.setflags(write=False)
    return counts, totals, mult


def _fold_by_total(
    mask: np.ndarray, totals: np.ndarray, mult: np.ndarray, num_nodes: int
) -> np.ndarray:
    """counts[c] = sum of multiplicities of masked cells with total c."""
    if mult.dtype == np.int64:
        out = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(out, totals[mask], mult[mask])
        return out
    return np.bincount(
        totals[mask], weights=mult[mask], minlength=num_nodes + 1
    )


def _fold_by_total_family(
    masks: np.ndarray, totals: np.ndarray, mult: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Family fold: one matmul collapses every mask row at once."""
    cells = totals.shape[0]
    onehot = np.zeros((cells, num_nodes + 1), dtype=mult.dtype)
    onehot[np.arange(cells), totals] = mult
    return masks.astype(mult.dtype) @ onehot


@lru_cache(maxsize=4096)
def predicate_counts(predicate: CountPredicate) -> np.ndarray:
    """Exact ``subset_counts`` of a count-structured predicate.

    ``counts[c]`` is the number of alive-subsets of size c satisfying the
    predicate — integer-identical to enumerating all ``2^total`` subsets,
    in O(prod(s_g + 1)) instead.
    """
    counts, totals, mult = _choice_grid(predicate.sizes)
    hits = counts >= np.asarray(predicate.thresholds, dtype=np.int64)
    mask = hits.all(axis=1) if predicate.mode == "all" else hits.any(axis=1)
    out = _fold_by_total(mask, totals, mult, predicate.total)
    out.setflags(write=False)
    return out


def _erc_split_masks(
    counts: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Check-quorum masks of the two N_i branches over the split grid.

    The grid's level-0 axis counts only the ``s_0 - 1`` non-N_i nodes;
    with N_i alive the observed level-0 count is one higher, so the
    direct-branch threshold on that axis drops by one.
    """
    thr_direct = thresholds.copy()
    thr_direct[..., 0] -= 1
    hits_direct = counts >= thr_direct[..., None, :]
    hits_decode = counts >= thresholds[..., None, :]
    return hits_direct.any(axis=-1), hits_decode.any(axis=-1)


@lru_cache(maxsize=4096)
def erc_level_counts(
    sizes: tuple[int, ...], read_thresholds: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The TRAP-ERC split subset counts, from the occupancy grid.

    Returns ``(counts_direct, counts_decode)``: check-quorum-passing
    pattern counts by total alive trapezoid nodes, split on position 0
    (N_i) alive/dead — integer-identical to the enumeration reference
    ``erc_subset_counts`` of ``tests/analysis/exact_reference.py``.
    """
    sizes = tuple(int(s) for s in sizes)
    thresholds = np.asarray(read_thresholds, dtype=np.int64)
    if thresholds.shape[0] != len(sizes):
        raise ConfigurationError(
            f"need one threshold per level: {len(sizes)} levels, "
            f"{thresholds.shape[0]} thresholds"
        )
    nb = sum(sizes)
    counts, totals, mult = _choice_grid((sizes[0] - 1,) + sizes[1:])
    mask_direct, mask_decode = _erc_split_masks(counts, thresholds)
    # Direct branch: N_i itself is alive, so each pattern is one node bigger.
    counts_direct = _fold_by_total(mask_direct, totals + 1, mult, nb)
    counts_decode = _fold_by_total(mask_decode, totals, mult, nb)
    counts_direct.setflags(write=False)
    counts_decode.setflags(write=False)
    return counts_direct, counts_decode


def erc_level_counts_family(
    sizes: tuple[int, ...], thresholds_family
) -> tuple[np.ndarray, np.ndarray]:
    """``erc_level_counts`` for a family of read-threshold vectors.

    Returns ``(direct, decode)`` matrices of shape (W, Nbnode + 1); row i
    matches ``erc_level_counts(sizes, tuple(thresholds_family[i]))``.
    """
    sizes = tuple(int(s) for s in sizes)
    thresholds = np.atleast_2d(np.asarray(thresholds_family, dtype=np.int64))
    if thresholds.shape[1] != len(sizes):
        raise ConfigurationError(
            f"need one threshold per level: {len(sizes)} levels, "
            f"family rows of {thresholds.shape[1]}"
        )
    nb = sum(sizes)
    counts, totals, mult = _choice_grid((sizes[0] - 1,) + sizes[1:])
    masks_direct, masks_decode = _erc_split_masks(counts, thresholds)
    direct = _fold_by_total_family(masks_direct, totals + 1, mult, nb)
    decode = _fold_by_total_family(masks_decode, totals, mult, nb)
    return direct, decode


def occupancy_cache_clear() -> None:
    """Drop every cached grid and count table (used by the end-to-end
    benchmark to time cold-path engine runs)."""
    _choice_grid.cache_clear()
    predicate_counts.cache_clear()
    erc_level_counts.cache_clear()


def occupancy_cache_info() -> dict:
    """Hit/miss counters of the per-shape caches."""
    return {
        "grids": _choice_grid.cache_info()._asdict(),
        "predicate_counts": predicate_counts.cache_info()._asdict(),
        "erc_level_counts": erc_level_counts.cache_info()._asdict(),
    }
