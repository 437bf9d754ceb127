"""Classical full-replication protocol engines: ROWA and Majority.

Protocol-level counterparts of the analysis baselines, for end-to-end
comparisons against TRAP-ERC/TRAP-FR on the same cluster substrate: same
versioned nodes, same network accounting, same failure injection.

Like the trapezoid engines, reads and writes are expressed as fan-out
round plans over :mod:`repro.runtime`, so both baselines run unmodified
on the instant and the event-driven execution paths.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.results import ReadCase, ReadResult, WriteResult
from repro.errors import ConfigurationError, NodeUnavailableError, StaleNodeError
from repro.runtime.coordinator import Coordinator, InstantCoordinator
from repro.runtime.rounds import (
    PAYLOAD_ROUND,
    VERSION_ROUND,
    WRITE_ROUND,
    Request,
    Round,
)

__all__ = ["RowaProtocol", "MajorityProtocol"]


class _ReplicationBase:
    """Shared replica bookkeeping for flat replication protocols."""

    def __init__(
        self,
        cluster: Cluster,
        node_ids,
        stripe_id: str,
        coordinator: Coordinator | None = None,
        verifier=None,
    ) -> None:
        self.cluster = cluster
        self.node_ids = [int(i) for i in node_ids]
        if len(self.node_ids) < 1:
            raise ConfigurationError("need at least one replica node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigurationError("replica node ids must be distinct")
        for nid in self.node_ids:
            cluster.node(nid)
        self.stripe_id = stripe_id
        self.coordinator = (
            coordinator if coordinator is not None else InstantCoordinator(cluster)
        )
        self.verifier = verifier

    def key(self, block: int):
        return (self._kind, self.stripe_id, block)

    def initialize(self, blocks: np.ndarray) -> None:
        """Load version-0 replicas of each row of ``blocks`` everywhere."""
        blocks = np.asarray(blocks)
        if blocks.ndim != 2:
            raise ConfigurationError("blocks must be (num_blocks, L)")
        for b in range(blocks.shape[0]):
            self.reload_block(b, blocks)

    def reload_block(self, block: int, blocks: np.ndarray) -> None:
        """Undo whatever writes of ``block`` did to the loaded ``blocks``.

        A write only reaches the block's replicas, so re-putting them
        (every replica node must be up) leaves the nodes exactly as
        :meth:`initialize` would.
        """
        for nid in self.node_ids:
            self.cluster.rpc(nid, "put_data", self.key(block), blocks[block], 0)
        if self.verifier is not None:
            self.verifier.bootstrap(block, blocks[block])

    def _version_round(self, block: int) -> Round:
        """Gather-all version discovery across the replica set."""
        return Round(
            [
                Request(nid, "data_version", (self.key(block),))
                for nid in self.node_ids
            ],
            kind=VERSION_ROUND,
        )

    def _write_requests(self, block: int, value: np.ndarray, version: int):
        return [
            Request(
                nid,
                "write_data",
                (self.key(block), value, version),
                catches=(NodeUnavailableError, StaleNodeError),
            )
            for nid in self.node_ids
        ]

    def read_block(self, block: int) -> ReadResult:
        return self.coordinator.execute(self.read_plan(block))

    def write_block(self, block: int, value: np.ndarray) -> WriteResult:
        return self.coordinator.execute(self.write_plan(block, value))


class RowaProtocol(_ReplicationBase):
    """Read One, Write All over n replicas."""

    _kind = "rowa"

    def write_plan(self, block: int, value: np.ndarray):
        # Learn the current version from every replica: Write-All needs
        # them all anyway, and a stale first answer would produce a
        # version that fresh replicas reject.
        outcome = yield self._version_round(block)
        messages = outcome.messages
        if len(outcome.accepted) < len(self.node_ids):
            return WriteResult(
                success=False,
                messages=messages,
                reason="replica unreachable during version lookup (ROWA requires all)",
            )
        new_version = max(r.value for r in outcome.accepted) + 1
        if self.verifier is not None:
            record, meta_messages = yield from self.verifier.read_plan(block)
            messages += meta_messages
            if record is None:
                return WriteResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
            new_version = max(new_version, record[0] + 1)
        # Write-All: any miss fails the operation.
        write_outcome = yield Round(
            self._write_requests(block, value, new_version),
            need=len(self.node_ids),
            send_all=True,
            abort_on_reject=True,
            kind=WRITE_ROUND,
        )
        messages += write_outcome.messages
        acks = len(write_outcome.accepted)
        if not write_outcome.satisfied:
            # abort_on_reject: the rejecting response completed the round.
            rejected = write_outcome.responses[-1]
            return WriteResult(
                success=False,
                version=new_version,
                acks_per_level=[acks],
                messages=messages,
                reason=(
                    f"replica {rejected.request.node_id} unavailable "
                    "(ROWA requires all)"
                ),
            )
        if self.verifier is not None:
            committed, meta_messages = yield from self.verifier.commit_plan(
                block, new_version, value
            )
            messages += meta_messages
            if not committed:
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=[acks],
                    messages=messages,
                    reason="metadata quorum write failed",
                )
        return WriteResult(
            success=True,
            version=new_version,
            acks_per_level=[acks],
            messages=messages,
        )

    def read_plan(self, block: int):
        messages = 0
        accept = None
        if self.verifier is not None:
            # Read-one is safe under Byzantine replicas only with a
            # trusted check: accept the first reply matching the metadata
            # (version, digest) record; rejected replies widen the scan
            # across the replica set.
            record, meta_messages = yield from self.verifier.read_plan(block)
            messages += meta_messages
            if record is None:
                return ReadResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
            accept = self.verifier.payload_accept(record[0], record[1])
        outcome = yield Round(
            [
                Request(
                    nid,
                    "read_data",
                    (self.key(block),),
                    catches=(NodeUnavailableError, KeyError),
                )
                for nid in self.node_ids
            ],
            need=1,
            accept=accept,
            kind=PAYLOAD_ROUND,
        )
        messages += outcome.messages
        if outcome.satisfied:
            payload, version = outcome.accepted[0].value
            return ReadResult(
                success=True,
                value=payload,
                version=version,
                case=ReadCase.DIRECT,
                messages=messages,
            )
        return ReadResult(
            success=False,
            messages=messages,
            reason="no replica reachable"
            if self.verifier is None
            else "no replica served a verifiable copy",
        )


class MajorityProtocol(_ReplicationBase):
    """Thomas's majority consensus over n replicas."""

    _kind = "majority"

    @property
    def threshold(self) -> int:
        return len(self.node_ids) // 2 + 1

    def write_plan(self, block: int, value: np.ndarray):
        # Version discovery from a majority.
        outcome = yield self._version_round(block)
        messages = outcome.messages
        if len(outcome.accepted) < self.threshold:
            return WriteResult(
                success=False,
                messages=messages,
                reason="no majority reachable for version lookup",
            )
        new_version = max(r.value for r in outcome.accepted) + 1
        if self.verifier is not None:
            record, meta_messages = yield from self.verifier.read_plan(block)
            messages += meta_messages
            if record is None:
                return WriteResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
            new_version = max(new_version, record[0] + 1)
        write_outcome = yield Round(
            self._write_requests(block, value, new_version),
            need=self.threshold,
            send_all=True,
            kind=WRITE_ROUND,
        )
        messages += write_outcome.messages
        acks = len(write_outcome.accepted)
        if not write_outcome.satisfied:
            return WriteResult(
                success=False,
                version=new_version,
                acks_per_level=[acks],
                messages=messages,
                reason=f"{acks} acks < majority {self.threshold}",
            )
        if self.verifier is not None:
            committed, meta_messages = yield from self.verifier.commit_plan(
                block, new_version, value
            )
            messages += meta_messages
            if not committed:
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=[acks],
                    messages=messages,
                    reason="metadata quorum write failed",
                )
        return WriteResult(
            success=True,
            version=new_version,
            acks_per_level=[acks],
            messages=messages,
        )

    def read_plan(self, block: int):
        messages = 0
        record = None
        if self.verifier is not None:
            record, meta_messages = yield from self.verifier.read_plan(block)
            messages += meta_messages
            if record is None:
                return ReadResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
        # The gather round is identical with or without verification: a
        # majority of replies (stale ones included) completes it; the
        # verified path then *selects* among them instead of trusting the
        # max version claim.
        outcome = yield Round(
            [
                Request(
                    nid,
                    "read_data",
                    (self.key(block),),
                    catches=(NodeUnavailableError, KeyError),
                )
                for nid in self.node_ids
            ],
            need=self.threshold,
            send_all=True,
            kind=PAYLOAD_ROUND,
        )
        messages += outcome.messages
        if not outcome.satisfied:
            return ReadResult(
                success=False,
                messages=messages,
                reason=(
                    f"{len(outcome.accepted)} responders < majority {self.threshold}"
                ),
            )
        if record is not None:
            target, digest = record
            for response in outcome.accepted:
                payload, version = response.value
                if self.verifier.check(payload, version, target, digest):
                    return ReadResult(
                        success=True,
                        value=payload,
                        version=target,
                        case=ReadCase.DIRECT,
                        messages=messages,
                    )
            return ReadResult(
                success=False,
                version=target,
                messages=messages,
                reason="no verified reply at the committed version",
            )
        best_payload = None
        best_version = -1
        for response in outcome.accepted:
            payload, version = response.value
            if version > best_version:
                best_version = version
                best_payload = payload
        return ReadResult(
            success=True,
            value=best_payload,
            version=best_version,
            case=ReadCase.DIRECT,
            messages=messages,
        )
