"""Placement: stripe -> nodes, then one block's group -> trapezoid positions.

*Stripe placement.* A :class:`PlacementPolicy` maps a stripe index to a
:class:`~repro.erasure.stripe.StripeLayout` (block -> node id). With the
identity layout every stripe puts its parity blocks on the same n - k
nodes, which concentrates delta-update traffic there (the RAID-4
problem); rotating the mapping per stripe (RAID-5 style) spreads both
the parity write load and the level-0 read pressure. A spec's
``placement.kind`` names one of the two.

*Trapezoid placement.* For data block i the consistency group is
{N_i} ∪ {parity nodes} (n - k + 1 nodes, eq. 5). The paper places N_i
at level 0 (section III-B.2) and fixes nothing else. Here the parity
nodes fill the remaining positions in an order rotated by the block
index: position p + 1 of block i holds parity node (i + p) mod (n - k).
In stripe order the first s_0 - 1 parity nodes would sit at level 0 of
every block, and every read's level-0 poll would queue on them; rotated,
level-0 duty spreads over the parity nodes. Only the order of parity
nodes changes, so availability under i.i.d. failures is the same. Both
protocol variants share this position -> node-id mapping.
"""

from __future__ import annotations

from repro.erasure.stripe import StripeLayout
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "PlacementPolicy",
    "IdentityPlacement",
    "RotatingPlacement",
    "PLACEMENTS",
    "TrapezoidPlacement",
]


class PlacementPolicy:
    """Maps a stripe index to a block -> node layout."""

    #: the ``placement.kind`` of a spec that names this policy
    kind: str

    def __init__(self, n: int, k: int, num_nodes: int) -> None:
        if k < 1 or n < k:
            raise ConfigurationError(f"invalid (n={n}, k={k})")
        if num_nodes < n:
            raise ConfigurationError(
                f"cluster of {num_nodes} nodes cannot host n={n} blocks"
            )
        self.n = n
        self.k = k
        self.num_nodes = num_nodes

    def layout_for(self, stripe_index: int) -> StripeLayout:
        if stripe_index < 0:
            raise ConfigurationError("stripe_index must be >= 0")
        return StripeLayout(self.n, self.k, self._node_ids(stripe_index))

    def _node_ids(self, stripe_index: int) -> tuple[int, ...]:  # pragma: no cover
        raise NotImplementedError


class IdentityPlacement(PlacementPolicy):
    """Every stripe uses nodes 0..n-1 in block order (RAID-4 style)."""

    kind = "identity"

    def _node_ids(self, stripe_index: int) -> tuple[int, ...]:
        return tuple(range(self.n))


class RotatingPlacement(PlacementPolicy):
    """Rotate the node assignment by one per stripe (RAID-5 style).

    Stripe s places block b on node ``(b + s) % num_nodes``; with
    num_nodes >= n the assignment is always collision-free, and over
    num_nodes consecutive stripes every node serves every role equally
    often when num_nodes == n.
    """

    kind = "rotating"

    def _node_ids(self, stripe_index: int) -> tuple[int, ...]:
        return tuple((b + stripe_index) % self.num_nodes for b in range(self.n))


#: ``placement.kind`` -> policy class
PLACEMENTS = {policy.kind: policy for policy in (IdentityPlacement, RotatingPlacement)}


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
