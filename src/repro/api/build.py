"""``build_system``: one factory from a :class:`SystemSpec` to a live system.

This is the construction boilerplate that every entry point used to
hand-wire (cluster + code + quorum + placement + engine + repair); the
factory composes the existing constructors — it does not fork them — and
returns a :class:`BuiltSystem` handle bundling all the pieces plus the
derived deterministic RNG streams.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.api.registry import (
    DEFAULT_NAMESPACE,
    build_latency_model,
    build_quorum_system,
    build_service_model,
    build_trapezoid_quorum,
    protocol_entry,
)
from repro.api.spec import LatencySpec, QuorumSpec, SystemSpec
from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator
from repro.cluster.network import TwoTierLatency
from repro.cluster.rng import make_rng, spawn_rngs
from repro.core.repair import RepairService
from repro.core.results import ReadResult, WriteResult
from repro.erasure.code import MDSCode
from repro.erasure.stripe import StripeLayout
from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
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
from repro.storage.placement import IdentityPlacement, RotatingPlacement

__all__ = [
    "ProtocolEngine",
    "BuiltSystem",
    "build_system",
    "ShardedSystem",
    "build_sharded_system",
    "group_trapezoid",
]


@runtime_checkable
class ProtocolEngine(Protocol):
    """Minimal surface every registered protocol engine exposes.

    ``initialize`` loads version-0 blocks, ``read_block``/``write_block``
    run one quorum operation and report success plus message cost.
    Availability hooks (closed forms, quorum predicates) live on the
    :class:`BuiltSystem` wrapper, which delegates to the spec's
    :class:`~repro.quorum.base.QuorumSystem` geometry.
    """

    def initialize(self, data: np.ndarray) -> None: ...

    def read_block(self, i: int) -> ReadResult: ...

    def write_block(self, i: int, value: np.ndarray) -> WriteResult: ...


def _layout_for(spec: SystemSpec, stripe_index: int) -> StripeLayout:
    policies = {"identity": IdentityPlacement, "rotating": RotatingPlacement}
    policy = policies[spec.placement.kind](
        spec.code.n, spec.code.k, spec.cluster.num_nodes
    )
    return policy.layout_for(stripe_index)


@dataclass
class BuiltSystem:
    """A live, ready-to-initialize system plus its construction context."""

    spec: SystemSpec
    cluster: Cluster
    code: MDSCode
    layout: StripeLayout
    engine: ProtocolEngine
    system: QuorumSystem
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

    # -- availability hooks (delegate to the quorum geometry) ----------- #

    def write_availability(self, p) -> np.ndarray:
        """P(a write quorum exists) under i.i.d. node availability p."""
        return self.system.write_availability(p)

    def read_availability(self, p) -> np.ndarray:
        """P(a read quorum exists) under i.i.d. node availability p."""
        return self.system.read_availability(p)


def _builder_accepts(builder, keyword: str) -> bool:
    try:
        parameters = inspect.signature(builder).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    if keyword in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def _builder_accepts_coordinator(builder) -> bool:
    return _builder_accepts(builder, "coordinator")


def _metadata_node_count(spec: SystemSpec) -> int:
    """Extra cluster nodes appended for the metadata tier (0 = disabled)."""
    return spec.metadata.nodes if spec.metadata is not None else 0


def _make_verifier(
    spec: SystemSpec, cluster: Cluster, namespace: str = DEFAULT_NAMESPACE
) -> BlockVerifier | None:
    """The :class:`BlockVerifier` a spec's metadata section describes.

    Metadata nodes occupy the ids *after* the data nodes (the cluster is
    built ``num_nodes + metadata.nodes`` wide), so data placement,
    faultloads and Byzantine arming — all expressed over
    ``spec.cluster.num_nodes`` — never touch them. The quorum thresholds
    derive from the registry system named by ``metadata.quorum``
    (majority by default), sized to the metadata tier.
    """
    if spec.metadata is None:
        return None
    meta = spec.metadata
    first = spec.cluster.num_nodes
    node_ids = range(first, first + meta.nodes)
    system = build_quorum_system(QuorumSpec(kind=meta.quorum, size=meta.nodes))
    quorum = MetadataQuorum.from_system(node_ids, system, f=meta.f)
    return BlockVerifier(
        cluster, quorum, namespace=namespace, signed=meta.effective_signed
    )


def group_trapezoid(spec: SystemSpec) -> TrapezoidQuorum:
    """The spec's trapezoid, checked to span the code's consistency group."""
    quorum = build_trapezoid_quorum(spec.quorum)
    group = spec.code.group_size
    if quorum.shape.total_nodes != group:
        raise ConfigurationError(
            f"trapezoid holds {quorum.shape.total_nodes} nodes but "
            f"(n={spec.code.n}, k={spec.code.k}) requires "
            f"Nbnode = n - k + 1 = {group}"
        )
    return quorum


def _resolve_protocol(spec: SystemSpec):
    """Registry entry, trapezoid quorum (or None) and availability geometry.

    Shared front half of :func:`build_system` and
    :func:`build_sharded_system`: validates the trapezoid against the
    code's consistency-group size and picks the availability geometry —
    registry entries may supply their own (the flat baselines do, so the
    hooks model the engine's replica group); otherwise it is built from
    the spec's quorum section.
    """
    entry = protocol_entry(spec.protocol)
    quorum = group_trapezoid(spec) if entry.needs_trapezoid else None
    if entry.system_builder is not None:
        system = entry.system_builder(spec)
    else:
        system = build_quorum_system(spec.quorum)
    return entry, quorum, system


def build_system(
    spec: SystemSpec,
    stripe_index: int = 0,
    coordinator_factory: Callable[[Cluster], Coordinator] | None = None,
) -> BuiltSystem:
    """Construct the full system a spec describes (uninitialized).

    The cluster, code, layout and engine are freshly built; the engine's
    RNG stream is child 0 of ``spec.seed`` (scenario drivers use further
    children, so initialization data and failure schedules never share a
    stream). ``stripe_index`` selects the placement rotation for callers
    driving several stripes.

    ``coordinator_factory`` injects an execution path: it receives the
    freshly built cluster and returns the coordinator handed to the
    engine builder (the wall-clock backend passes an
    :class:`~repro.runtime.async_coord.AsyncCoordinator` factory here;
    the latency scenario builds through :func:`build_sharded_system`).
    Without one, engines run on their default instant path.
    """
    entry, quorum, system = _resolve_protocol(spec)
    cluster = Cluster(
        spec.cluster.num_nodes, metadata_nodes=_metadata_node_count(spec)
    )
    code = MDSCode(spec.code.n, spec.code.k, construction=spec.code.construction)
    layout = _layout_for(spec, stripe_index)
    verifier = _make_verifier(spec, cluster)
    if verifier is not None and not _builder_accepts(entry.builder, "verifier"):
        raise ConfigurationError(
            f"protocol {spec.protocol!r} does not support verified reads "
            "(its registered builder takes no 'verifier' keyword); drop "
            "the metadata section or register a verifier-aware builder"
        )
    extra = {} if verifier is None else {"verifier": verifier}
    coordinator = None
    if coordinator_factory is not None:
        if not _builder_accepts_coordinator(entry.builder):
            raise ConfigurationError(
                f"protocol {spec.protocol!r} does not support coordinator "
                "injection (its registered builder takes no 'coordinator' "
                "keyword); it cannot run on the event-driven path"
            )
        coordinator = coordinator_factory(cluster)
        engine = entry.builder(
            spec, cluster, code, layout, coordinator=coordinator, **extra
        )
    else:
        engine = entry.builder(spec, cluster, code, layout, **extra)
    if not entry.supports_repair:
        repair = None
    elif coordinator is None and verifier is None:
        repair = RepairService(engine)
    else:
        # Anti-entropy runs as out-of-band instant maintenance even when
        # the engine itself is event-driven: a second engine instance on
        # the same cluster (protocol state lives on the nodes) with the
        # default instant coordinator backs the repair service, so repair
        # passes never re-enter the running event loop. The repair engine
        # is built *without* a verifier (engine-level verified reads would
        # spend metadata rounds per quorum read); instead the service
        # itself verifies candidate blocks against the metadata tier via
        # its own verifier instance — its counters stay separate from the
        # engine's read-path counters.
        repair = RepairService(
            entry.builder(spec, cluster, code, layout),
            verifier=None if verifier is None else _make_verifier(spec, cluster),
        )
    (rng,) = spawn_rngs(make_rng(spec.seed), 1)
    return BuiltSystem(
        spec=spec,
        cluster=cluster,
        code=code,
        layout=layout,
        engine=engine,
        system=system,
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
    system: QuorumSystem
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
    simulator: Simulator | None = None,
    rng=None,
    service_rng=None,
    record_trace: bool = False,
) -> ShardedSystem:
    """Construct the sharded multi-volume runtime a spec describes.

    ``spec.sharding`` fixes the shard count and routing,
    ``spec.service`` the per-node service-time model, ``spec.latency``
    the message-leg model and timeout/retry policy. Every shard's engine
    comes from the protocol registry with its own event coordinator
    injected (the same ``coordinator`` keyword :func:`build_system`
    validates), so registered protocols plug into the router without
    bespoke wiring.

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
    entry, _, system = _resolve_protocol(spec)
    if not _builder_accepts_coordinator(entry.builder):
        raise ConfigurationError(
            f"protocol {spec.protocol!r} does not support coordinator "
            "injection (its registered builder takes no 'coordinator' "
            "keyword); it cannot run on the sharded event-driven path"
        )
    if spec.metadata is not None and not _builder_accepts(entry.builder, "verifier"):
        raise ConfigurationError(
            f"protocol {spec.protocol!r} does not support verified reads "
            "(its registered builder takes no 'verifier' keyword); drop "
            "the metadata section or register a verifier-aware builder"
        )
    takes_namespace = _builder_accepts(entry.builder, "namespace")
    if num_shards > 1 and not takes_namespace:
        raise ConfigurationError(
            f"protocol {spec.protocol!r} cannot run at shards = {num_shards} "
            "(its registered builder takes no 'namespace' keyword, so every "
            "shard would store under the same keys); use one shard or "
            "register a namespace-aware builder"
        )
    if rng is None or service_rng is None:
        seed_streams = spawn_rngs(make_rng(spec.seed), 11)
        if rng is None:
            rng = seed_streams[8]
        if service_rng is None:
            service_rng = seed_streams[10]

    simulator = simulator if simulator is not None else Simulator()
    cluster = Cluster(
        spec.cluster.num_nodes, metadata_nodes=_metadata_node_count(spec)
    )
    code = MDSCode(spec.code.n, spec.code.k, construction=spec.code.construction)
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
        layout = _layout_for(spec, index)
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
        # Each shard stores — data, parity and metadata records alike —
        # under its own namespace on the shared nodes; shard 0 keeps the
        # build_system one, so a 1-shard system stays key-identical to it.
        namespace = (
            DEFAULT_NAMESPACE if index == 0 else f"{DEFAULT_NAMESPACE}-{index}"
        )
        keyed = {"namespace": namespace} if takes_namespace else {}
        verifier = _make_verifier(spec, cluster, namespace=namespace)
        extra = {} if verifier is None else {"verifier": verifier}
        if verifier is not None:
            verifiers.append(verifier)
        engine = entry.builder(
            spec, cluster, code, layout, coordinator=coordinator, **keyed, **extra
        )
        shards.append(Shard(index, engine, coordinator, code.k))
        if entry.supports_repair:
            # Out-of-band anti-entropy on the instant path, one service
            # per stripe family (see build_system's repair note; the
            # repair engine is unverified but the service checks its
            # candidates against this shard's metadata namespace).
            repairs.append(
                RepairService(
                    entry.builder(spec, cluster, code, layout, **keyed),
                    verifier=None
                    if verifier is None
                    else _make_verifier(spec, cluster, namespace=namespace),
                )
            )
    router = ShardRouter(shards, routing=routing, route_seed=route_seed)
    (init_rng,) = spawn_rngs(make_rng(spec.seed), 1)
    return ShardedSystem(
        spec=spec,
        cluster=cluster,
        code=code,
        system=system,
        simulator=simulator,
        router=router,
        shards=shards,
        queues=queues,
        repairs=repairs,
        rng=init_rng,
        verifiers=verifiers,
    )
