"""Repair / anti-entropy service for TRAP-ERC (extension beyond the paper).

The paper's protocol tolerates transient failures, but a node that missed
updates while down becomes *stale*: the version-matrix guard (Algorithm 1
line 26) makes it reject all further deltas for the contributions it
missed, silently shrinking the effective quorum pool. The paper leaves
recovery unspecified ("the blocks it owned have to be reconstructed").

:class:`RepairService` fills that gap with exact repair:

* a stale or wiped *data* node is rebuilt from a quorum read of its block;
* a stale or wiped *parity* node is rebuilt by reading all k data blocks
  through the protocol and re-encoding its row, stamping the version
  vector with the versions those reads returned.

The ``trace`` scenario kind (``repair_interval``) measures how much read
availability this recovers under a failure trace.

The service runs the stripe's own engine and verifier on an
:class:`~repro.runtime.coordinator.InstantCoordinator` of its own: a
pass is synchronous, safe to call from a simulator callback, and never
enters the engine's event loop.

Verified anti-entropy
---------------------

Without cross-checks, repair is a laundering channel: a quorum read that
was fooled by corrupt replicas gets written back onto a *healthy* node
with a fresh version stamp. When the engine has a
:class:`~repro.runtime.verify.BlockVerifier`, the service reads every
candidate block as storage holds it (the engine's fail-stop
``level_walk_plan``), checks it against the metadata tier's
``(version, digest)`` record before any ``put_data`` / ``put_parity``,
refuses to propagate state it cannot verify, and counts the refusals
(``repairs_blocked``) and the individually rejected blocks
(``records_rejected``).
"""

from __future__ import annotations

import numpy as np

from repro.core.trap_erc import TrapErcProtocol
from repro.errors import ConfigurationError, NodeUnavailableError
from repro.runtime.coordinator import InstantCoordinator
from repro.runtime.verify import block_digest

__all__ = ["RepairService"]


class RepairService:
    """Anti-entropy companion of one :class:`TrapErcProtocol` stripe."""

    def __init__(self, protocol: TrapErcProtocol) -> None:
        self.protocol = protocol
        self.coordinator = InstantCoordinator(protocol.cluster)
        self.repairs_performed = 0
        self.repairs_blocked = 0
        self.records_rejected = 0

    # ------------------------------------------------------------------ #

    def _verify_block(self, i: int, payload: np.ndarray, version: int) -> bool:
        """True when block ``i`` matches the metadata record (or no verifier)."""
        verifier = self.protocol.verifier
        if verifier is None:
            return True
        record, _ = self.coordinator.execute(verifier.read_plan(i))
        if record is None:
            self.records_rejected += 1
            return False
        meta_version, meta_digest = record
        if int(version) != meta_version or block_digest(payload) != meta_digest:
            self.records_rejected += 1
            return False
        return True

    # ------------------------------------------------------------------ #

    def _read_all_blocks(self) -> tuple[np.ndarray, list[int]] | None:
        """Latest (data, versions) via fail-stop reads; None if any fails."""
        blocks = []
        versions = []
        for i in range(self.protocol.code.k):
            result = self.coordinator.execute(self.protocol.level_walk_plan(i))
            if not result.success:
                return None
            blocks.append(result.value)
            versions.append(result.version)
        return np.stack(blocks), versions

    def repair_data_node(self, i: int) -> bool:
        """Rebuild data block i's record on N_i from a quorum read."""
        proto = self.protocol
        node_id = proto.layout.node_of_block(i)
        result = self.coordinator.execute(proto.level_walk_plan(i))
        if not result.success:
            return False
        if not self._verify_block(i, result.value, result.version):
            self.repairs_blocked += 1
            return False
        try:
            proto.cluster.rpc(
                node_id, "put_data", proto.data_key(i), result.value, result.version
            )
        except NodeUnavailableError:
            return False
        self.repairs_performed += 1
        return True

    def repair_parity_node(self, node_id: int) -> bool:
        """Rebuild the parity record on ``node_id`` from quorum reads."""
        proto = self.protocol
        j = proto.layout.block_of_node(node_id)
        if j < proto.code.k:
            raise ConfigurationError(
                f"node {node_id} holds data block {j}, not parity"
            )
        snapshot = self._read_all_blocks()
        if snapshot is None:
            return False
        data, versions = snapshot
        ok = True
        for i in range(proto.code.k):
            if not self._verify_block(i, data[i], versions[i]):
                ok = False
        if not ok:
            self.repairs_blocked += 1
            return False
        payload = proto.code.encode_block(j, data)
        try:
            proto.cluster.rpc(
                node_id,
                "put_parity",
                proto.parity_key(),
                payload,
                np.asarray(versions, dtype=np.int64),
            )
        except NodeUnavailableError:
            return False
        self.repairs_performed += 1
        return True

    # ------------------------------------------------------------------ #

    def is_parity_stale(self, node_id: int) -> bool | None:
        """True if the node's version vector lags the committed versions.

        None when the node is unreachable or the committed versions cannot
        be determined (no quorum).
        """
        proto = self.protocol
        try:
            vv = proto.cluster.rpc(node_id, "parity_versions", proto.parity_key())
        except NodeUnavailableError:
            return None
        if vv is None:
            return True  # wiped: trivially stale
        for i in range(proto.code.k):
            latest = self.coordinator.execute(proto.latest_version_plan(i))
            if latest is None:
                return None
            if int(vv[i]) < latest:
                return True
        return False

    def sync_parities(self) -> int:
        """Repair every reachable stale parity node; returns repair count."""
        proto = self.protocol
        repaired = 0
        for node_id in proto.layout.parity_nodes:
            stale = self.is_parity_stale(node_id)
            if stale:
                if self.repair_parity_node(node_id):
                    repaired += 1
        return repaired

    def sync_data(self) -> int:
        """Repair every reachable stale/wiped data node; returns count."""
        proto = self.protocol
        repaired = 0
        for i in range(proto.code.k):
            node_id = proto.layout.node_of_block(i)
            latest = self.coordinator.execute(proto.latest_version_plan(i))
            if latest is None:
                continue
            try:
                v = proto.cluster.rpc(node_id, "data_version", proto.data_key(i))
            except NodeUnavailableError:
                continue
            if v < latest:
                if self.repair_data_node(i):
                    repaired += 1
        return repaired

    def sync_all(self) -> int:
        """Full anti-entropy pass (data first, then parity)."""
        return self.sync_data() + self.sync_parities()

    def counters(self) -> dict[str, int]:
        """Repair counters for scenario reporting."""
        return {
            "repairs_performed": self.repairs_performed,
            "repairs_blocked": self.repairs_blocked,
            "records_rejected": self.records_rejected,
        }
