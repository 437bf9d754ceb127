"""Abstract quorum-system interface.

A quorum system over N logical positions ``0..N-1`` defines which node
subsets are valid read and write quorums. The safety requirements are the
paper's equations (2) and (3):

    RQ  ∩ WQ  != {}     (every read sees at least one latest-version node)
    WQ1 ∩ WQ2 != {}     (successive writes chain through a common node)

Concrete systems implement two predicates over *alive* node sets plus
closed-form availability; everything else (sampling quorums, verifying the
intersection properties, Monte-Carlo estimation) is generic.

Positions are *logical*: protocol engines map them onto physical node ids
(e.g. position 0 of a trapezoid is the data node N_i).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CountPredicate", "QuorumSystem", "verify_intersection"]


@dataclass(frozen=True)
class CountPredicate:
    """A quorum predicate expressed over disjoint-group alive *counts*.

    Positions are partitioned into groups of ``sizes[g]`` nodes; the
    predicate holds iff group g musters at least ``thresholds[g]`` alive
    members in **every** group (``mode="all"``, write-style) or in **some**
    group (``mode="any"``, read-check-style). Systems whose quorums depend
    on membership only through these counts (trapezoid levels, majority,
    ROWA) expose one via
    :meth:`QuorumSystem.as_level_thresholds`, which lets
    :mod:`repro.analysis.occupancy` evaluate exact availability over the
    joint count distribution — ``prod(s_g + 1)`` table cells instead of
    ``2^size`` subset enumerations.
    """

    sizes: tuple[int, ...]
    thresholds: tuple[int, ...]
    mode: str  # "all" | "any"

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        thresholds = tuple(int(t) for t in self.thresholds)
        if not sizes:
            raise ConfigurationError("CountPredicate needs at least one group")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"group sizes must be >= 1, got {sizes}")
        if len(thresholds) != len(sizes):
            raise ConfigurationError(
                f"need one threshold per group: {len(sizes)} groups, "
                f"{len(thresholds)} thresholds"
            )
        if self.mode not in ("all", "any"):
            raise ConfigurationError(
                f"mode must be 'all' or 'any', got {self.mode!r}"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def total(self) -> int:
        """Number of positions covered by the groups."""
        return sum(self.sizes)

    def evaluate(self, counts) -> bool:
        """Reference semantics over per-group alive counts."""
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(self.sizes):
            raise ConfigurationError(
                f"need {len(self.sizes)} per-group counts, got {len(counts)}"
            )
        hits = (c >= t for c, t in zip(counts, self.thresholds))
        return all(hits) if self.mode == "all" else any(hits)


class QuorumSystem(ABC):
    """Base class for quorum systems over positions ``0..size-1``."""

    #: number of logical positions
    size: int

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    @abstractmethod
    def is_write_quorum(self, subset: frozenset[int] | set[int]) -> bool:
        """True iff ``subset`` contains a complete write quorum."""

    @abstractmethod
    def is_read_quorum(self, subset: frozenset[int] | set[int]) -> bool:
        """True iff ``subset`` contains a complete read quorum."""

    def as_level_thresholds(self, kind: str) -> CountPredicate | None:
        """Count-structured form of the ``kind`` ("read"/"write") predicate.

        Returns a :class:`CountPredicate` equivalent to the corresponding
        ``is_*_quorum`` predicate when the system's quorums depend only on
        per-group alive counts, or None when membership matters (grid,
        tree), in which case exact analysis falls back to subset
        enumeration. The groups must partition positions ``0..size-1`` in
        order: group g covers the next ``sizes[g]`` positions.
        """
        if kind not in ("read", "write"):
            raise ConfigurationError(
                f"kind must be 'read' or 'write', got {kind!r}"
            )
        return None

    # ------------------------------------------------------------------ #
    # quorum construction
    # ------------------------------------------------------------------ #

    @abstractmethod
    def find_write_quorum(self, alive: set[int]) -> frozenset[int] | None:
        """A minimal write quorum within ``alive``, or None if impossible."""

    @abstractmethod
    def find_read_quorum(self, alive: set[int]) -> frozenset[int] | None:
        """A minimal read quorum within ``alive``, or None if impossible."""

    # ------------------------------------------------------------------ #
    # availability
    # ------------------------------------------------------------------ #

    def write_availability(self, p) -> np.ndarray:
        """P(a write quorum exists) for i.i.d. node availability p.

        Default implementation: exact enumeration over all 2^size alive
        subsets. Subclasses override with closed forms where available.
        """
        return self._enumerate_availability(p, self.is_write_quorum)

    def read_availability(self, p) -> np.ndarray:
        """P(a read quorum exists) for i.i.d. node availability p."""
        return self._enumerate_availability(p, self.is_read_quorum)

    def _enumerate_availability(self, p, predicate) -> np.ndarray:
        if self.size > 22:
            raise ConfigurationError(
                f"exact enumeration over {self.size} nodes is infeasible; "
                "override with a closed form or use Monte Carlo"
            )
        p = np.asarray(p, dtype=np.float64)
        total = np.zeros_like(p)
        positions = list(range(self.size))
        for mask in range(1 << self.size):
            alive = frozenset(i for i in positions if mask >> i & 1)
            if predicate(alive):
                na = len(alive)
                total = total + p**na * (1 - p) ** (self.size - na)
        return total

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _check_positions(self, subset) -> frozenset[int]:
        s = frozenset(int(i) for i in subset)
        for i in s:
            if not 0 <= i < self.size:
                raise ConfigurationError(
                    f"position {i} out of range [0, {self.size})"
                )
        return s


def verify_intersection(
    system: QuorumSystem,
    *,
    max_enumeration: int = 4096,
    samples: int = 400,
    rng: np.random.Generator | None = None,
) -> bool:
    """Verify eqs. (2)-(3): RQ ∩ WQ != {} and WQ1 ∩ WQ2 != {}.

    Enumerates all *minimal* quorums reachable via ``find_*_quorum`` over
    alive-subsets when 2^size <= ``max_enumeration``; otherwise samples
    random alive-subsets. Returns False on the first violation.
    """
    rng = rng or np.random.default_rng(0)
    n = system.size

    def alive_sets():
        if (1 << n) <= max_enumeration:
            for mask in range(1 << n):
                yield {i for i in range(n) if mask >> i & 1}
        else:
            for _ in range(samples):
                keep = rng.random(n) < rng.random()
                yield {i for i in range(n) if keep[i]}

    write_quorums = []
    read_quorums = []
    for alive in alive_sets():
        wq = system.find_write_quorum(set(alive))
        if wq is not None:
            if not system.is_write_quorum(wq):
                return False
            if not wq <= alive:
                return False
            write_quorums.append(wq)
        rq = system.find_read_quorum(set(alive))
        if rq is not None:
            if not system.is_read_quorum(rq):
                return False
            if not rq <= alive:
                return False
            read_quorums.append(rq)

    # Deduplicate to keep the cross product tractable.
    write_quorums = list(set(write_quorums))[:200]
    read_quorums = list(set(read_quorums))[:200]
    for w1, w2 in combinations(write_quorums, 2):
        if not w1 & w2:
            return False
    for w in write_quorums:
        for r in read_quorums:
            if not r & w:
                return False
    return True
