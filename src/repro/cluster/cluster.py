"""The simulated storage cluster: nodes + network + failure control.

:class:`Cluster` is the substrate protocol engines run against. It owns
the :class:`StorageNode` instances and the :class:`Network` fabric, and
exposes failure-injection controls used by tests, Monte-Carlo drivers and
the discrete-event trace runner.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.errors import ConfigurationError

__all__ = ["Cluster"]


class Cluster:
    """A set of fail-stop storage nodes behind an RPC fabric.

    ``num_nodes`` data nodes come first; ``metadata_nodes`` more follow
    them (ids ``num_nodes`` and up) for a metadata tier. Failure traces
    cover the data nodes, so a trace is ``num_data_nodes`` wide.
    """

    def __init__(
        self, num_nodes: int, network: Network | None = None, *, metadata_nodes: int = 0
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if metadata_nodes < 0:
            raise ConfigurationError(
                f"metadata_nodes must be >= 0, got {metadata_nodes}"
            )
        self.num_data_nodes = int(num_nodes)
        self.nodes = [StorageNode(i) for i in range(num_nodes + metadata_nodes)]
        self.network = network if network is not None else Network()

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> StorageNode:
        if not 0 <= node_id < len(self.nodes):
            raise ConfigurationError(
                f"node id must be in [0, {len(self.nodes)}), got {node_id}"
            )
        return self.nodes[node_id]

    # -- failure injection ---------------------------------------------- #

    def fail(self, node_id: int) -> None:
        self.node(node_id).fail()

    def recover(self, node_id: int, wipe: bool = False) -> None:
        self.node(node_id).recover(wipe=wipe)

    def fail_many(self, node_ids) -> None:
        for nid in node_ids:
            self.fail(nid)

    def recover_all(self) -> None:
        for node in self.nodes:
            if not node.alive:
                node.recover()
        self.network.heal()

    def apply_alive_vector(self, alive: np.ndarray) -> None:
        """Force the exact up/down pattern (snapshot-model driver)."""
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != (len(self.nodes),):
            raise ConfigurationError(
                f"alive vector must have shape ({len(self.nodes)},), got {alive.shape}"
            )
        for node, up in zip(self.nodes, alive):
            if up and not node.alive:
                node.recover()
            elif not up and node.alive:
                node.fail()

    # -- views ------------------------------------------------------------ #

    @property
    def alive_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.alive]

    @property
    def failed_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes if not n.alive]

    # -- whole-store snapshots -------------------------------------------- #

    def snapshot(self) -> list:
        """Every node's records as of now, for :meth:`restore`."""
        return [node.snapshot() for node in self.nodes]

    def restore(self, snapshot: list) -> None:
        """Every node up, reachable and holding exactly its ``snapshot``
        records: what a Monte-Carlo trial reset needs, without an RPC."""
        for node, records in zip(self.nodes, snapshot):
            node.restore(records)
        self.network.heal()

    def rpc(self, node_id: int, method: str, *args, **kwargs):
        """Issue an RPC to a node through the network fabric."""
        return self.network.rpc(self.node(node_id), method, args, kwargs)

    def reset_stats(self) -> None:
        self.network.stats.reset()
        for node in self.nodes:
            node.stats.__init__()
