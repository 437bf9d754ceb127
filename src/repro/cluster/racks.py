"""Failure domains (racks): correlated failures beyond the paper's model.

The paper's section-IV assumption 2 — "nodes fail independently of each
other" — is violated in real clusters: a rack's switch or PDU takes all
its nodes down together. This module models that with a two-level
process: each rack is down with probability q (all members down), and
each node additionally fails independently with probability p_node, so
the marginal per-node availability is

    p = (1 - q) * (1 - p_node).

The sampler plugs into the Monte-Carlo estimators, letting experiments
quantify how much the paper's independence assumption overstates
availability at equal marginal p (``tests/cluster/test_racks.py``,
``TestCorrelationHurtsAvailability``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError

__all__ = ["RackTopology", "rack_aware_assignment"]


class RackTopology:
    """Nodes partitioned into racks with correlated rack failures."""

    def __init__(self, racks: list[list[int]]) -> None:
        if not racks or any(not rack for rack in racks):
            raise ConfigurationError("racks must be non-empty lists of node ids")
        flat = [node for rack in racks for node in rack]
        if len(set(flat)) != len(flat):
            raise ConfigurationError("a node may belong to only one rack")
        if sorted(flat) != list(range(len(flat))):
            raise ConfigurationError("racks must cover node ids 0..N-1 exactly")
        self.racks = [list(map(int, rack)) for rack in racks]
        self.num_nodes = len(flat)
        self._rack_of = np.empty(self.num_nodes, dtype=np.int64)
        for r, rack in enumerate(self.racks):
            for node in rack:
                self._rack_of[node] = r

    @classmethod
    def uniform(cls, num_nodes: int, racks: int) -> "RackTopology":
        """Round-robin assignment of ``num_nodes`` nodes to ``racks``."""
        if racks < 1 or num_nodes < racks:
            raise ConfigurationError(
                f"need 1 <= racks <= num_nodes, got racks={racks}, nodes={num_nodes}"
            )
        groups: list[list[int]] = [[] for _ in range(racks)]
        for node in range(num_nodes):
            groups[node % racks].append(node)
        return cls(groups)

    def rack_of(self, node: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(f"node {node} out of range")
        return int(self._rack_of[node])

    # ------------------------------------------------------------------ #

    def marginal_p(self, rack_q: float, node_q: float) -> float:
        """Per-node availability under (rack_q, node_q)."""
        self._check_probs(rack_q, node_q)
        return (1.0 - rack_q) * (1.0 - node_q)

    def node_failure_for_marginal(self, rack_q: float, p: float) -> float:
        """node_q achieving marginal availability ``p`` given ``rack_q``."""
        self._check_probs(rack_q, 0.0)
        if not 0.0 <= p <= 1.0 - rack_q:
            raise ConfigurationError(
                f"marginal p={p} unreachable with rack_q={rack_q}"
            )
        return 1.0 - p / (1.0 - rack_q)

    @staticmethod
    def _check_probs(rack_q: float, node_q: float) -> None:
        if not 0.0 <= rack_q < 1.0:
            raise ConfigurationError(f"rack_q must be in [0, 1), got {rack_q}")
        if not 0.0 <= node_q <= 1.0:
            raise ConfigurationError(f"node_q must be in [0, 1], got {node_q}")

    def sample_alive(
        self, trials: int, rack_q: float, node_q: float, rng=None
    ) -> np.ndarray:
        """(trials, num_nodes) correlated alive matrix."""
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        self._check_probs(rack_q, node_q)
        rng = make_rng(rng)
        rack_up = rng.random((trials, len(self.racks))) >= rack_q
        node_up = rng.random((trials, self.num_nodes)) >= node_q
        return rack_up[:, self._rack_of] & node_up


def rack_aware_assignment(topology: RackTopology, n: int) -> list[int]:
    """Pick n nodes spreading consecutive blocks across racks.

    Round-robins over racks so a single rack failure hits as few blocks
    of one stripe as possible — the placement a rack-aware deployment
    would use.
    """
    if n < 1 or n > topology.num_nodes:
        raise ConfigurationError(
            f"need 1 <= n <= {topology.num_nodes}, got {n}"
        )
    order: list[int] = []
    offsets = [0] * len(topology.racks)
    rack_idx = 0
    while len(order) < n:
        rack = topology.racks[rack_idx % len(topology.racks)]
        off = offsets[rack_idx % len(topology.racks)]
        if off < len(rack):
            order.append(rack[off])
            offsets[rack_idx % len(topology.racks)] += 1
        rack_idx += 1
        if rack_idx > 10 * len(topology.racks) * topology.num_nodes:  # pragma: no cover
            raise ConfigurationError("assignment failed to converge")
    return order
