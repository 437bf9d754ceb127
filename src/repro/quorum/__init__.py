"""Quorum-system geometry.

The trapezoid layout of the paper plus the classical baselines its related
work cites: ROWA, Majority [13], Grid [4], and Tree [1] quorums. All share
the :class:`~repro.quorum.base.QuorumSystem` interface, so the analysis and
simulation layers treat them uniformly. The protocol engines consume the
trapezoid (:class:`TrapezoidQuorum`); the flat engines replicate on the
consistency group without a geometry object; ``repro figures`` compares
all five systems' availability on one node budget.
"""

from repro.quorum.base import CountPredicate, QuorumSystem, verify_intersection
from repro.quorum.grid import GridSystem
from repro.quorum.majority import MajoritySystem
from repro.quorum.rowa import RowaSystem
from repro.quorum.trapezoid import (
    TrapezoidQuorum,
    TrapezoidShape,
    TrapezoidSystem,
    default_shape_for_nbnode,
    shapes_for_nbnode,
)
from repro.quorum.tree import TreeSystem

__all__ = [
    "CountPredicate",
    "QuorumSystem",
    "verify_intersection",
    "TrapezoidShape",
    "TrapezoidQuorum",
    "TrapezoidSystem",
    "shapes_for_nbnode",
    "default_shape_for_nbnode",
    "MajoritySystem",
    "RowaSystem",
    "GridSystem",
    "TreeSystem",
]
