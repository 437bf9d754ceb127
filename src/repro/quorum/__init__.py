"""Quorum-system geometry.

The trapezoid layout of the paper plus the classical baselines its related
work cites: ROWA, Majority [13], Grid [4], and Tree [1] quorums. All share
the :class:`~repro.quorum.base.QuorumSystem` interface, so the analysis and
simulation layers treat them uniformly.
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
from repro.quorum.voting import WeightedVotingSystem

__all__ = [
    "WeightedVotingSystem",
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
