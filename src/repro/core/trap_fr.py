"""TRAP-FR: the trapezoid protocol over full replication (the baseline).

The comparison system of the paper's section IV: each data block b_i is
fully replicated on the same n - k + 1 nodes that TRAP-ERC uses for its
trapezoid (N_i plus the parity-node set), so both systems tolerate the
same failures and differ only in what the nodes store.

Write: walk levels 0..h writing the full value with version v+1 to every
reachable node, requiring w_l acks per level. Read: version check exactly
as in Algorithm 2; any checked node holding the latest version can serve
the payload directly — the structural advantage over ERC that eq. (10)
vs eq. (13) quantifies.

Operations are expressed as fan-out round plans over the
:mod:`repro.runtime` coordinator abstraction, so the engine runs
unmodified on the instant or the event-driven execution path.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.placement import TrapezoidPlacement
from repro.core.results import ReadCase, ReadResult, WriteResult
from repro.erasure.stripe import StripeLayout
from repro.errors import ConfigurationError, NodeUnavailableError, StaleNodeError
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.runtime.coordinator import Coordinator, InstantCoordinator
from repro.runtime.rounds import (
    PAYLOAD_ROUND,
    VERSION_ROUND,
    WRITE_ROUND,
    Request,
    Response,
    Round,
)

__all__ = ["TrapFrProtocol"]


def _version_valid(response: Response) -> bool:
    """INVALID (absent) records answer but don't count toward the check."""
    return response.ok and response.value >= 0


class TrapFrProtocol:
    """Coordinator-side engine of the full-replication trapezoid protocol."""

    def __init__(
        self,
        cluster: Cluster,
        n: int,
        k: int,
        quorum: TrapezoidQuorum,
        layout: StripeLayout | None = None,
        stripe_id: str = "stripe-0",
        coordinator: Coordinator | None = None,
        verifier=None,
    ) -> None:
        self.cluster = cluster
        self.layout = layout if layout is not None else StripeLayout(n, k)
        if (self.layout.n, self.layout.k) != (n, k):
            raise ConfigurationError(
                f"layout is ({self.layout.n}, {self.layout.k}), expected ({n}, {k})"
            )
        for node_id in self.layout.node_ids:
            cluster.node(node_id)
        self.placement = TrapezoidPlacement(self.layout, quorum)
        self.quorum = quorum
        self.n = n
        self.k = k
        self.stripe_id = stripe_id
        self.coordinator = (
            coordinator if coordinator is not None else InstantCoordinator(cluster)
        )
        self.verifier = verifier
        #: per block: the h + 1 version polls, shared by every operation
        self._polls = [
            tuple(
                Round(
                    [
                        Request(node_id, "data_version", (self.replica_key(i),))
                        for node_id in nodes
                    ],
                    need=quorum.r(level),
                    accept=_version_valid,
                    kind=VERSION_ROUND,
                )
                for level, nodes in enumerate(levels)
            )
            for i, levels in enumerate(self.placement.levels)
        ]

    def replica_key(self, i: int):
        """Key of block i's replica (same key on every group node)."""
        return ("fr-replica", self.stripe_id, i)

    def _check_block(self, i: int) -> None:
        if not 0 <= i < self.k:
            raise ConfigurationError(
                f"data block index must be in [0, {self.k}), got {i}"
            )

    # ------------------------------------------------------------------ #

    def initialize(self, data: np.ndarray) -> None:
        """Load version-0 replicas of every block on its whole group."""
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ConfigurationError(
                f"data must have shape (k={self.k}, L), got {data.shape}"
            )
        for i in range(self.k):
            for node_id in self.placement.group_nodes(i):
                self.cluster.rpc(node_id, "put_data", self.replica_key(i), data[i], 0)
            if self.verifier is not None:
                self.verifier.bootstrap(i, data[i])

    # ------------------------------------------------------------------ #

    def write_block(self, i: int, value: np.ndarray) -> WriteResult:
        """Full-replication trapezoid write."""
        return self.coordinator.execute(self.write_plan(i, value))

    def write_plan(self, i: int, value: np.ndarray):
        self._check_block(i)
        value = np.asarray(value)
        current, messages = yield from self._latest_version_plan(i)
        if current is None:
            return WriteResult(
                success=False,
                messages=messages,
                reason="version check before write failed",
            )
        if self.verifier is not None:
            # The metadata record is the trusted version floor: replicas
            # understating their versions cannot make the writer reuse a
            # committed version number.
            meta, meta_messages = yield from self.verifier.read_plan(i)
            messages += meta_messages
            if meta is None:
                return WriteResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
            current = max(current, meta[0])
        new_version = current + 1
        args = (self.replica_key(i), value, new_version)
        acks: list[int] = []
        for level, nodes in enumerate(self.placement.levels[i]):
            outcome = yield Round(
                [
                    Request(
                        node_id,
                        "write_data",
                        args,
                        catches=(NodeUnavailableError, StaleNodeError),
                    )
                    for node_id in nodes
                ],
                need=self.quorum.w[level],
                send_all=True,
                kind=WRITE_ROUND,
            )
            messages += outcome.messages
            counter = len(outcome.accepted)
            acks.append(counter)
            if counter < self.quorum.w[level]:
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=acks,
                    failed_level=level,
                    messages=messages,
                    reason=(
                        f"level {level} acknowledged {counter} < w_l = "
                        f"{self.quorum.w[level]}"
                    ),
                )
        if self.verifier is not None:
            committed, meta_messages = yield from self.verifier.commit_plan(
                i, new_version, value
            )
            messages += meta_messages
            if not committed:
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=acks,
                    messages=messages,
                    reason="metadata quorum write failed",
                )
        return WriteResult(
            success=True,
            version=new_version,
            acks_per_level=acks,
            messages=messages,
        )

    # ------------------------------------------------------------------ #

    def read_block(self, i: int) -> ReadResult:
        """Full-replication trapezoid read."""
        return self.coordinator.execute(self.read_plan(i))

    def read_plan(self, i: int):
        self._check_block(i)
        meta, messages = None, 0
        if self.verifier is not None:
            # Version authority moves to the metadata quorum; the level
            # polls below still locate responsive replicas but cannot
            # redirect the read to a stale (or fabricated) version.
            meta, messages = yield from self.verifier.read_plan(i)
            if meta is None:
                return ReadResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
        for level, poll in enumerate(self._polls[i]):
            outcome = yield poll
            messages += outcome.messages
            if not outcome.satisfied:
                continue
            if meta is not None:
                best, digest = meta
                accept = self.verifier.payload_accept(best, digest)
            else:
                best = max(int(response.value) for response in outcome.accepted)
                accept = (
                    lambda response, _b=best: response.ok
                    and response.value[1] == _b
                )
            holders = [
                response.request.node_id
                for response in outcome.accepted
                if int(response.value) == best
            ]
            if not holders:
                # Verified path only: every polled replica understates
                # the committed version — widen to the next level.
                continue
            # Any holder of the max version serves the payload directly.
            payload_outcome = yield Round(
                [
                    Request(
                        node_id,
                        "read_data",
                        (self.replica_key(i),),
                        catches=(NodeUnavailableError, KeyError),
                    )
                    for node_id in holders
                ],
                need=1,
                accept=accept,
                kind=PAYLOAD_ROUND,
            )
            messages += payload_outcome.messages
            if payload_outcome.satisfied:
                payload, _ = payload_outcome.accepted[0].value
                return ReadResult(
                    success=True,
                    value=payload,
                    version=best,
                    case=ReadCase.DIRECT,
                    check_level=level,
                    messages=messages,
                )
            if meta is not None:
                # Verified widening: every holder at this level served a
                # reply the digest check rejected (or vanished). Other
                # levels hold more replicas — keep scanning; only a full
                # sweep with no verifiable copy fails the read.
                continue
            return ReadResult(
                success=False,
                version=best,
                check_level=level,
                messages=messages,
                reason="latest-version holders vanished mid-read",
            )
        return ReadResult(
            success=False,
            messages=messages,
            reason="no level reached its version-check quorum",
        )

    def latest_version(self, i: int) -> int | None:
        """Version check only (None when no level reaches r_l)."""
        version, _ = self.coordinator.execute(self._latest_version_plan(i))
        return version

    def _latest_version_plan(self, i: int):
        """Yields the version rounds; returns ``(version | None, messages)``."""
        messages = 0
        for poll in self._polls[i]:
            outcome = yield poll
            messages += outcome.messages
            if outcome.satisfied:
                best = max(int(response.value) for response in outcome.accepted)
                return best, messages
        return None, messages
