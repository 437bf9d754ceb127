"""Protocol execution runtime: fan-out rounds on two execution paths.

The engines in :mod:`repro.core` express every read/write as a *plan* —
a generator of :class:`Round` fan-outs — and stay agnostic of how the
rounds run:

* :class:`InstantCoordinator` (the default) replays them as the legacy
  synchronous RPC loops — bit-identical results and message counts;
* :class:`EventCoordinator` schedules real message deliveries on the
  discrete-event engine, completes rounds via :class:`QuorumWait` (the
  q-th fastest healthy response — max-of-parallel latency), applies a
  per-operation :class:`RetryPolicy`, and lets failures, repairs and
  partitions interleave mid-operation;
* :class:`AsyncCoordinator` runs the same plans in *wall-clock* time
  against live node services (:mod:`repro.services`) over asyncio
  transports — in-process queue pairs or real TCP — with the same
  timeout/retry/fast-fail semantics, so simulator predictions can be
  validated against measured latencies.

For multi-volume scale-out, a :class:`ShardRouter` front end dispatches
logical blocks to many per-shard :class:`EventCoordinator`\\ s sharing one
simulator and cluster, optionally contending through per-node FIFO
:class:`NodeServiceQueue` service stations.

:mod:`repro.runtime.verify` adds the Byzantine-tolerant read path: a
:class:`BlockVerifier` over a separate :class:`MetadataQuorum` stores
per-block :func:`block_digest` records and rejects corrupted payload
replies, widening rounds instead of failing them. The metadata tier
itself hardens with writer-keyed :func:`record_tag` signatures
(self-verifying records) and 3f+1 Byzantine quorum sizing.

See docs/RUNTIME.md for the session lifecycle and semantics.
"""

from repro.runtime.async_coord import AsyncCoordinator
from repro.runtime.coordinator import (
    Coordinator,
    InstantCoordinator,
    OpHandle,
    Plan,
)
from repro.runtime.event import (
    EventCoordinator,
    NodeServiceQueue,
    make_service_queues,
)
from repro.runtime.router import Shard, ShardRouter
from repro.runtime.rounds import (
    PAYLOAD_ROUND,
    VERSION_ROUND,
    WRITE_ROUND,
    QuorumWait,
    Request,
    Response,
    RetryPolicy,
    Round,
    RoundOutcome,
)
from repro.runtime.verify import (
    DIGEST_SIZE,
    METADATA_ROUND,
    TAG_SIZE,
    BlockVerifier,
    MetadataQuorum,
    block_digest,
    record_tag,
    writer_key,
)

__all__ = [
    "Coordinator",
    "InstantCoordinator",
    "EventCoordinator",
    "AsyncCoordinator",
    "NodeServiceQueue",
    "make_service_queues",
    "Shard",
    "ShardRouter",
    "OpHandle",
    "Plan",
    "Request",
    "Response",
    "Round",
    "RoundOutcome",
    "RetryPolicy",
    "QuorumWait",
    "VERSION_ROUND",
    "PAYLOAD_ROUND",
    "WRITE_ROUND",
    "METADATA_ROUND",
    "DIGEST_SIZE",
    "TAG_SIZE",
    "block_digest",
    "writer_key",
    "record_tag",
    "MetadataQuorum",
    "BlockVerifier",
]
