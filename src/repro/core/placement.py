"""Placement of a block's consistency group onto the trapezoid.

For data block i the group is {N_i} ∪ {parity nodes} (n - k + 1 nodes,
eq. 5). The paper places N_i at level 0 (section III-B.2); the remaining
positions are filled with the parity nodes in stripe order, yielding the
deterministic position -> node-id mapping both protocol variants share.
"""

from __future__ import annotations

from repro.erasure.stripe import StripeLayout
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = ["TrapezoidPlacement"]


class TrapezoidPlacement:
    """Maps trapezoid positions to physical node ids for each data block."""

    def __init__(self, layout: StripeLayout, quorum: TrapezoidQuorum) -> None:
        expected = layout.group_size
        if quorum.shape.total_nodes != expected:
            raise ConfigurationError(
                f"trapezoid has {quorum.shape.total_nodes} positions but the "
                f"(n={layout.n}, k={layout.k}) group needs n - k + 1 = {expected}"
            )
        self.layout = layout
        shape = quorum.shape
        #: ``levels[i][level]``: the node ids occupying ``level`` of block
        #: i's trapezoid, fixed here once for every operation
        self.levels = tuple(
            tuple(
                tuple(group[pos] for pos in shape.positions(level))
                for level in shape.levels
            )
            for group in map(layout.consistency_group, range(layout.k))
        )

    def group_nodes(self, i: int) -> list[int]:
        """Node ids of block i's trapezoid in position order (pos 0 = N_i)."""
        return list(self.layout.consistency_group(i))
