"""``build_system``: one factory from a :class:`SystemSpec` to a live system.

This is the construction boilerplate that every entry point used to
hand-wire (cluster + code + quorum + placement + engine + repair); the
factory composes the existing constructors — it does not fork them — and
returns a :class:`BuiltSystem` handle bundling all the pieces plus the
derived deterministic RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.api.registry import (
    DEFAULT_NAMESPACE,
    ProtocolEntry,
    build_latency_model,
    build_service_model,
    protocol_entry,
)
from repro.api.spec import LatencySpec, SystemSpec, build_trapezoid_quorum
from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator
from repro.cluster.network import TwoTierLatency
from repro.cluster.rng import make_rng, spawn_rngs
from repro.core.placement import PLACEMENTS
from repro.core.repair import RepairService
from repro.core.results import ReadResult, WriteResult
from repro.erasure.code import MDSCode
from repro.erasure.stripe import StripeLayout
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.runtime.coordinator import Coordinator
from repro.runtime.event import (
    EventCoordinator,
    NodeServiceQueue,
    make_service_queues,
)
from repro.runtime.rounds import RetryPolicy
from repro.runtime.router import Shard, ShardRouter
from repro.runtime.verify import BlockVerifier, MetadataQuorum

__all__ = [
    "ProtocolEngine",
    "BuiltSystem",
    "build_system",
    "ShardedSystem",
    "build_sharded_system",
]


@runtime_checkable
class ProtocolEngine(Protocol):
    """Minimal surface every registered protocol engine exposes.

    ``initialize`` loads version-0 blocks, ``read_block``/``write_block``
    run one quorum operation and report success plus message cost.
    """

    def initialize(self, data: np.ndarray) -> None: ...

    def read_block(self, i: int) -> ReadResult: ...

    def write_block(self, i: int, value: np.ndarray) -> WriteResult: ...


def _layout_for(spec: SystemSpec, index: int) -> StripeLayout:
    policy = PLACEMENTS[spec.placement.kind](
        spec.code.n, spec.code.k, spec.cluster.num_nodes
    )
    return policy.layout_for(index)


@dataclass
class BuiltSystem:
    """A live, ready-to-initialize system plus its construction context."""

    spec: SystemSpec
    cluster: Cluster
    code: MDSCode
    layout: StripeLayout
    engine: ProtocolEngine
    #: the trapezoid of a trapezoid engine (None for the flat baselines)
    quorum: TrapezoidQuorum | None
    repair: RepairService | None
    rng: np.random.Generator = field(repr=False)
    #: execution path injected into the engine (None = default instant)
    coordinator: Coordinator | None = None
    #: verified-read digest/version authority (None = fail-stop trust)
    verifier: BlockVerifier | None = None

    @property
    def num_blocks(self) -> int:
        """Addressable data blocks of the engine (k for every protocol)."""
        return self.code.k

    def initialize(self, data: np.ndarray | None = None) -> np.ndarray:
        """Load version-0 blocks; random seeded data when none is given.

        Returns the loaded (k, block_length) array so callers can use it
        as the consistency oracle or share it across engines.
        """
        if data is None:
            data = (
                self.rng.integers(
                    0, 256,
                    size=(self.code.k, self.spec.workload.block_length),
                    dtype=np.int64,
                ).astype(np.uint8)
            )
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.code.k:
            raise ConfigurationError(
                f"data must have shape (k={self.code.k}, L), got {data.shape}"
            )
        self.engine.initialize(data)
        return data


def _make_verifier(
    spec: SystemSpec, cluster: Cluster, namespace: str = DEFAULT_NAMESPACE
) -> BlockVerifier | None:
    """The :class:`BlockVerifier` a spec's metadata section describes.

    Metadata nodes occupy the ids *after* the data nodes (the cluster is
    built ``num_nodes + metadata.nodes`` wide), so data placement,
    faultloads and Byzantine arming — all expressed over
    ``spec.cluster.num_nodes`` — never touch them. Writes and reads each
    need a majority of the tier, or 2f + 1 of its >= 3f + 1 nodes when
    it tolerates ``f > 0`` Byzantine members.
    """
    if spec.metadata is None:
        return None
    meta = spec.metadata
    first = spec.cluster.num_nodes
    need = 2 * meta.f + 1 if meta.f > 0 else meta.nodes // 2 + 1
    quorum = MetadataQuorum(range(first, first + meta.nodes), need, need, f=meta.f)
    return BlockVerifier(
        cluster, quorum, namespace=namespace, signed=meta.effective_signed
    )


def _resolve(spec: SystemSpec):
    """Registry entry, trapezoid quorum (or None), cluster and code.

    Shared front half of :func:`build_system` and
    :func:`build_sharded_system`. The spec has checked the quorum section
    at load. The cluster appends ``metadata.nodes`` nodes after the data
    nodes when the spec has a metadata tier.
    """
    entry = protocol_entry(spec.protocol)
    quorum = build_trapezoid_quorum(spec.quorum) if entry.needs_trapezoid else None
    metadata_nodes = spec.metadata.nodes if spec.metadata is not None else 0
    cluster = Cluster(spec.cluster.num_nodes, metadata_nodes=metadata_nodes)
    code = MDSCode(spec.code.n, spec.code.k)
    return entry, quorum, cluster, code


def _stripe(
    spec: SystemSpec,
    entry: ProtocolEntry,
    cluster: Cluster,
    code: MDSCode,
    index: int,
    coordinator: Coordinator | None = None,
) -> tuple[StripeLayout, ProtocolEngine, BlockVerifier | None, RepairService | None]:
    """Stripe ``index``'s layout, engine, verifier and repair service.

    The one place a registered builder runs: one engine and one verifier
    per stripe, for :func:`build_system`, :func:`build_sharded_system`,
    the virtual disk (:class:`~repro.storage.VirtualDisk`) and the
    protocol Monte Carlo (:class:`~repro.sim.ProtocolMonteCarlo`), each
    stating what it builds as a spec. Stripe 0 stores under
    ``DEFAULT_NAMESPACE`` and stripe ``i > 0`` under ``api-stripe-{i}``
    — data, parity and metadata records alike — so stripes share nodes,
    never records, and a 1-shard system is key-identical to
    :func:`build_system`'s. Repair runs the
    engine on an instant coordinator of its own even when the engine is
    event-driven: anti-entropy is out-of-band maintenance, and a pass
    called from a simulator callback must never re-enter the event loop.
    """
    layout = _layout_for(spec, index)
    namespace = DEFAULT_NAMESPACE if index == 0 else f"{DEFAULT_NAMESPACE}-{index}"
    verifier = _make_verifier(spec, cluster, namespace)
    engine = entry.builder(
        spec, cluster, code, layout,
        coordinator=coordinator, verifier=verifier, namespace=namespace,
    )
    repair = RepairService(engine) if entry.supports_repair else None
    return layout, engine, verifier, repair


def build_system(
    spec: SystemSpec,
    coordinator_factory: Callable[[Cluster], Coordinator] | None = None,
) -> BuiltSystem:
    """Construct the full system a spec describes (uninitialized).

    The cluster, code and stripe 0 (layout, engine, verifier, repair) are
    freshly built; the engine's RNG stream is child 0 of ``spec.seed``
    (scenario drivers use further children, so initialization data and
    failure schedules never share a stream).

    ``coordinator_factory`` injects an execution path: it receives the
    freshly built cluster and returns the coordinator handed to the
    engine builder (the wall-clock backend passes an
    :class:`~repro.runtime.async_coord.AsyncCoordinator` factory here;
    the latency scenario builds through :func:`build_sharded_system`).
    Without one, engines run on their default instant path.
    """
    entry, quorum, cluster, code = _resolve(spec)
    coordinator = (
        coordinator_factory(cluster) if coordinator_factory is not None else None
    )
    layout, engine, verifier, repair = _stripe(
        spec, entry, cluster, code, 0, coordinator
    )
    (rng,) = spawn_rngs(make_rng(spec.seed), 1)
    return BuiltSystem(
        spec=spec,
        cluster=cluster,
        code=code,
        layout=layout,
        engine=engine,
        quorum=quorum,
        repair=repair,
        rng=rng,
        coordinator=coordinator,
        verifier=verifier,
    )


@dataclass
class ShardedSystem:
    """A live multi-volume runtime: shards behind one front-end router.

    The scale-out counterpart of :class:`BuiltSystem`: ``shards.shards``
    per-shard engines (one stripe family each, placed via the placement
    policy's stripe rotation) run on their own
    :class:`~repro.runtime.event.EventCoordinator`, all sharing one
    simulator, one cluster and — when a service-time model is configured
    — one set of per-node FIFO service queues, so concurrent shards
    genuinely contend. ``router`` is the dispatch front end.
    """

    spec: SystemSpec
    cluster: Cluster
    code: MDSCode
    simulator: Simulator
    router: ShardRouter
    shards: list[Shard]
    queues: dict[int, NodeServiceQueue] | None
    repairs: list[RepairService]
    rng: np.random.Generator = field(repr=False)
    #: per-shard verified-read authorities (empty = fail-stop trust)
    verifiers: list[BlockVerifier] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_blocks(self) -> int:
        """Addressable logical blocks of the volume: shards * k."""
        return self.router.num_blocks

    def initialize(self, data: np.ndarray | None = None) -> np.ndarray:
        """Load version-0 blocks on every shard.

        ``data`` must have shape ``(num_shards, k, L)``; when omitted,
        seeded random payloads are drawn shard by shard (shard 0 draws
        exactly what the unsharded :meth:`BuiltSystem.initialize` would,
        keeping 1-shard runs bit-identical). Returns the loaded array.
        """
        k = self.code.k
        length = self.spec.workload.block_length
        if data is None:
            data = np.stack(
                [
                    self.rng.integers(
                        0, 256, size=(k, length), dtype=np.int64
                    ).astype(np.uint8)
                    for _ in self.shards
                ]
            )
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 3 or data.shape[0] != len(self.shards) or data.shape[1] != k:
            raise ConfigurationError(
                f"data must have shape (shards={len(self.shards)}, k={k}, L), "
                f"got {data.shape}"
            )
        for shard, shard_data in zip(self.shards, data):
            shard.engine.initialize(shard_data)
        return data

    def trace_hash(self) -> str:
        return self.router.trace_hash()


def _coordinator_site(latency_model, index: int, num_nodes: int) -> int | None:
    """Where shard ``index``'s coordinator sits, for per-link models.

    Topology-aware models place the per-shard front ends round-robin
    across the racks (a coordinator colocated with rack ``index mod
    num_racks``); distribution-only models ignore the site, so ``None``
    keeps them exactly on their historical draw sequence.
    """
    if not isinstance(latency_model, TwoTierLatency):
        return None
    num_racks = max(1, -(-num_nodes // latency_model.rack_size))
    return (index % num_racks) * latency_model.rack_size


def build_sharded_system(
    spec: SystemSpec,
    *,
    rng=None,
    service_rng=None,
    record_trace: bool = False,
) -> ShardedSystem:
    """Construct the sharded multi-volume runtime a spec describes.

    ``spec.sharding`` fixes the shard count and routing,
    ``spec.service`` the per-node service-time model, ``spec.latency``
    the message-leg model and timeout/retry policy. Every shard's engine
    is built by the same stripe constructor as :func:`build_system`'s,
    with the shard's own event coordinator injected, so registered
    protocols plug into the router without bespoke wiring.

    ``rng`` seeds coordinator latency sampling (one shard consumes it
    directly — bit-identical to handing it to a lone
    :class:`EventCoordinator`; several shards spawn one child stream
    each); ``service_rng`` seeds the per-node service queues. Left at
    ``None`` they default to child streams 8 and 10 of ``spec.seed`` —
    the same allocation :class:`~repro.api.runner.ScenarioRunner` uses —
    so a bare ``build_sharded_system(spec)`` is reproducible from the
    spec alone. The initialization stream is child 0 of ``spec.seed``,
    exactly as in :func:`build_system`.
    """
    sharding = spec.sharding
    num_shards = sharding.shards if sharding is not None else 1
    routing = sharding.routing if sharding is not None else "interleave"
    route_seed = sharding.route_seed if sharding is not None else 0
    entry, _, cluster, code = _resolve(spec)
    if rng is None or service_rng is None:
        seed_streams = spawn_rngs(make_rng(spec.seed), 11)
        if rng is None:
            rng = seed_streams[8]
        if service_rng is None:
            service_rng = seed_streams[10]

    simulator = Simulator()
    latency_spec = spec.latency or LatencySpec()
    latency_model = build_latency_model(latency_spec)
    policy = RetryPolicy(timeout=latency_spec.timeout, retries=latency_spec.retries)
    service_model = build_service_model(spec.service)
    queues = (
        make_service_queues(
            simulator, spec.cluster.num_nodes, service_model, rng=service_rng
        )
        if service_model is not None
        else None
    )
    rng = make_rng(rng)
    coordinator_rngs = [rng] if num_shards == 1 else spawn_rngs(rng, num_shards)
    shards: list[Shard] = []
    repairs: list[RepairService] = []
    verifiers: list[BlockVerifier] = []
    for index in range(num_shards):
        coordinator = EventCoordinator(
            cluster,
            simulator,
            latency=latency_model,
            rng=coordinator_rngs[index],
            policy=policy,
            record_trace=record_trace,
            queues=queues,
            site=_coordinator_site(latency_model, index, spec.cluster.num_nodes),
        )
        _, engine, verifier, repair = _stripe(
            spec, entry, cluster, code, index, coordinator
        )
        shards.append(Shard(index, engine, coordinator, code.k))
        if verifier is not None:
            verifiers.append(verifier)
        if repair is not None:
            repairs.append(repair)
    router = ShardRouter(shards, routing=routing, route_seed=route_seed)
    (init_rng,) = spawn_rngs(make_rng(spec.seed), 1)
    return ShardedSystem(
        spec=spec,
        cluster=cluster,
        code=code,
        simulator=simulator,
        router=router,
        shards=shards,
        queues=queues,
        repairs=repairs,
        rng=init_rng,
        verifiers=verifiers,
    )
