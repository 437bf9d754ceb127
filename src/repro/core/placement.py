"""Placement of a block's consistency group onto the trapezoid.

For data block i the group is {N_i} ∪ {parity nodes} (n - k + 1 nodes,
eq. 5). The paper places N_i at level 0 (section III-B.2) and fixes
nothing else. Here the parity nodes fill the remaining positions in an
order rotated by the block index: position p + 1 of block i holds parity
node (i + p) mod (n - k). In stripe order the first s_0 - 1 parity nodes
would sit at level 0 of every block, and every read's level-0 poll would
queue on them; rotated, level-0 duty spreads over the parity nodes. Only
the order of parity nodes changes, so availability under i.i.d. failures
is the same. Both protocol variants share this position -> node-id
mapping.
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
        parity = layout.parity_nodes
        #: ``groups[i]``: block i's node ids in position order (pos 0 = N_i)
        self.groups = tuple(
            (layout.node_of_block(i),) + tuple(
                parity[(i + p) % len(parity)] for p in range(len(parity))
            )
            for i in range(layout.k)
        )
        #: ``levels[i][level]``: the node ids occupying ``level`` of block
        #: i's trapezoid, fixed here once for every operation
        self.levels = tuple(
            tuple(
                tuple(group[pos] for pos in shape.positions(level))
                for level in shape.levels
            )
            for group in self.groups
        )

    def group_nodes(self, i: int) -> list[int]:
        """Node ids of block i's trapezoid in position order (pos 0 = N_i)."""
        if not 0 <= i < self.layout.k:
            raise ConfigurationError(
                f"data block index must be in [0, {self.layout.k}), got {i}"
            )
        return list(self.groups[i])
