"""Name registries mapping declarative specs onto concrete classes.

Two registries make the facade extensible without touching call sites:

* the **quorum registry** builds any :class:`~repro.quorum.base.QuorumSystem`
  from a :class:`~repro.api.spec.QuorumSpec` (``trapezoid``, ``rowa``,
  ``majority``, ``grid``, ``tree``, ``voting``);
* the **protocol registry** builds any protocol engine satisfying
  :class:`~repro.api.build.ProtocolEngine` from a
  :class:`~repro.api.spec.SystemSpec` (``trap-erc``, ``trap-fr``,
  ``rowa``, ``majority``).

Comparative simulations and sweeps iterate over registry *names*; new
protocols plug in with :func:`register_protocol` and immediately become
available to ``repro run --config``, the comparison scenario and the
facade tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.api.spec import LatencySpec, QuorumSpec, ServiceTimeSpec, SystemSpec
from repro.cluster.network import (
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    TwoTierLatency,
    UniformLatency,
)
from repro.cluster.node import (
    ExponentialServiceTime,
    FixedServiceTime,
    ServiceTimeModel,
)
from repro.core.replication import MajorityProtocol, RowaProtocol
from repro.core.trap_erc import TrapErcProtocol
from repro.core.trap_fr import TrapFrProtocol
from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
from repro.quorum.grid import GridSystem
from repro.quorum.majority import MajoritySystem
from repro.quorum.rowa import RowaSystem
from repro.quorum.trapezoid import TrapezoidQuorum, TrapezoidShape, TrapezoidSystem
from repro.quorum.tree import TreeSystem
from repro.quorum.voting import WeightedVotingSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.erasure.code import MDSCode
    from repro.erasure.stripe import StripeLayout

__all__ = [
    "QuorumEntry",
    "ProtocolEntry",
    "DEFAULT_NAMESPACE",
    "register_quorum",
    "register_protocol",
    "quorum_names",
    "protocol_names",
    "quorum_entry",
    "protocol_entry",
    "build_quorum_system",
    "build_trapezoid_quorum",
    "build_latency_model",
    "build_service_model",
]


def build_latency_model(spec: LatencySpec) -> LatencyModel:
    """The :class:`~repro.cluster.network.LatencyModel` a spec describes."""
    if spec.kind == "fixed":
        return FixedLatency(spec.delay)
    if spec.kind == "uniform":
        return UniformLatency(spec.low, spec.high)
    if spec.kind == "two_tier":
        return TwoTierLatency(
            local=spec.local,
            remote=spec.remote,
            rack_size=spec.rack_size,
            jitter=spec.jitter,
        )
    return LognormalLatency(spec.mu, spec.sigma)


def build_service_model(spec: ServiceTimeSpec | None) -> ServiceTimeModel | None:
    """The node service-time model a spec describes (None = zero service)."""
    if spec is None or spec.kind == "none":
        return None
    if spec.kind == "fixed":
        return FixedServiceTime(spec.time)
    return ExponentialServiceTime(spec.time)


# --------------------------------------------------------------------- #
# quorum registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QuorumEntry:
    """One registered quorum system kind."""

    name: str
    system_class: type[QuorumSystem]
    builder: Callable[[QuorumSpec], QuorumSystem]


_QUORUMS: dict[str, QuorumEntry] = {}


def register_quorum(name: str, system_class: type[QuorumSystem]):
    """Decorator registering a ``QuorumSpec -> QuorumSystem`` builder."""

    def decorator(builder: Callable[[QuorumSpec], QuorumSystem]):
        if name in _QUORUMS:
            raise ConfigurationError(f"quorum kind {name!r} already registered")
        _QUORUMS[name] = QuorumEntry(name, system_class, builder)
        return builder

    return decorator


def quorum_names() -> tuple[str, ...]:
    """Registered quorum kinds, sorted."""
    return tuple(sorted(_QUORUMS))


def quorum_entry(name: str) -> QuorumEntry:
    try:
        return _QUORUMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown quorum kind {name!r} (registered: {quorum_names()})"
        ) from None


def build_quorum_system(spec: QuorumSpec) -> QuorumSystem:
    """Instantiate the quorum system a spec describes."""
    return quorum_entry(spec.kind).builder(spec)


def build_trapezoid_quorum(spec: QuorumSpec) -> TrapezoidQuorum:
    """The :class:`TrapezoidQuorum` parameter object of a trapezoid spec.

    The trapezoid protocol engines consume this richer object (shape plus
    write vector) rather than the generic :class:`QuorumSystem` facade.
    """
    if spec.kind != "trapezoid":
        raise ConfigurationError(
            f"protocol requires a trapezoid quorum, got kind {spec.kind!r}"
        )
    shape = TrapezoidShape(spec.a, spec.b, spec.h)
    if spec.w is None or isinstance(spec.w, int):
        return TrapezoidQuorum.uniform(shape, spec.w)
    return TrapezoidQuorum(shape, tuple(spec.w))


@register_quorum("trapezoid", TrapezoidSystem)
def _build_trapezoid_system(spec: QuorumSpec) -> TrapezoidSystem:
    return TrapezoidSystem(build_trapezoid_quorum(spec))


@register_quorum("rowa", RowaSystem)
def _build_rowa_system(spec: QuorumSpec) -> RowaSystem:
    return RowaSystem(spec.size)


@register_quorum("majority", MajoritySystem)
def _build_majority_system(spec: QuorumSpec) -> MajoritySystem:
    return MajoritySystem(spec.size)


@register_quorum("grid", GridSystem)
def _build_grid_system(spec: QuorumSpec) -> GridSystem:
    return GridSystem(spec.rows, spec.cols)


@register_quorum("tree", TreeSystem)
def _build_tree_system(spec: QuorumSpec) -> TreeSystem:
    return TreeSystem(spec.height)


@register_quorum("voting", WeightedVotingSystem)
def _build_voting_system(spec: QuorumSpec) -> WeightedVotingSystem:
    weights = spec.weights if spec.weights is not None else (1,) * spec.size
    return WeightedVotingSystem(weights, spec.read_votes, spec.write_votes)


# --------------------------------------------------------------------- #
# protocol registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol engine kind.

    ``builder(spec, cluster, code, layout, coordinator=None,
    verifier=None, namespace=DEFAULT_NAMESPACE)`` returns an
    initialized-free engine (callers load data through
    ``engine.initialize``) running on ``coordinator`` (None = the
    instant path), checking reads against ``verifier`` (None = fail-stop
    trust) and storing under ``namespace`` (every shard of a sharded
    system gets its own); every builder takes all three keywords;
    ``needs_trapezoid`` marks engines that consume the trapezoid quorum
    geometry (validated against the paper's eq. 5 in ``build_system``);
    ``system_builder(spec)``, when given, supplies the
    :class:`QuorumSystem` geometry backing the availability hooks (so the
    hooks model the engine, not whatever the spec's quorum section says —
    the flat baselines use this). Without one, the geometry is built from
    ``spec.quorum``.
    """

    name: str
    engine_class: type
    builder: Callable[..., object]
    needs_trapezoid: bool = False
    supports_repair: bool = False
    system_builder: Callable[[SystemSpec], QuorumSystem] | None = None


_PROTOCOLS: dict[str, ProtocolEntry] = {}

#: storage-key prefix of a single-volume system (and of shard 0)
DEFAULT_NAMESPACE = "api-stripe"


def register_protocol(
    name: str,
    engine_class: type,
    *,
    needs_trapezoid: bool = False,
    supports_repair: bool = False,
    system_builder: Callable[[SystemSpec], QuorumSystem] | None = None,
):
    """Decorator registering a protocol-engine builder."""

    def decorator(builder: Callable[..., object]):
        if name in _PROTOCOLS:
            raise ConfigurationError(f"protocol {name!r} already registered")
        _PROTOCOLS[name] = ProtocolEntry(
            name, engine_class, builder, needs_trapezoid, supports_repair,
            system_builder,
        )
        return builder

    return decorator


def protocol_names() -> tuple[str, ...]:
    """Registered protocol names, sorted."""
    return tuple(sorted(_PROTOCOLS))


def protocol_entry(name: str) -> ProtocolEntry:
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r} (registered: {protocol_names()})"
        ) from None


@register_protocol(
    "trap-erc", TrapErcProtocol, needs_trapezoid=True, supports_repair=True
)
def _build_trap_erc(
    spec: SystemSpec, cluster: "Cluster", code: "MDSCode", layout: "StripeLayout",
    coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
) -> TrapErcProtocol:
    quorum = build_trapezoid_quorum(spec.quorum)
    return TrapErcProtocol(
        cluster, code, quorum, layout=layout, stripe_id=namespace,
        coordinator=coordinator, verifier=verifier,
    )


@register_protocol("trap-fr", TrapFrProtocol, needs_trapezoid=True)
def _build_trap_fr(
    spec: SystemSpec, cluster: "Cluster", code: "MDSCode", layout: "StripeLayout",
    coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
) -> TrapFrProtocol:
    quorum = build_trapezoid_quorum(spec.quorum)
    return TrapFrProtocol(
        cluster, spec.code.n, spec.code.k, quorum, layout=layout,
        stripe_id=namespace, coordinator=coordinator, verifier=verifier,
    )


def _flat_system_builder(kind: str, system_class: type):
    """Availability geometry of a flat engine: the replica-group system.

    Flat engines always replicate on the n - k + 1 consistency group, so
    their hooks are derived from the protocol itself — a spec'd quorum of
    another size or kind would describe a different system than the
    engine runs. Trapezoid specs are tolerated (comparison scenarios
    share one trapezoid spec across trap-* and flat engines); anything
    else contradicting the protocol is rejected.
    """

    def build(spec: SystemSpec) -> QuorumSystem:
        group = spec.code.group_size
        if spec.quorum.kind == kind:
            if spec.quorum.size != group:
                raise ConfigurationError(
                    f"{kind} replicates on the n - k + 1 = {group} node "
                    f"consistency group, but quorum.size = "
                    f"{spec.quorum.size}; omit quorum or set size = {group}"
                )
        elif spec.quorum.kind != "trapezoid":
            raise ConfigurationError(
                f"quorum kind {spec.quorum.kind!r} contradicts protocol "
                f"{kind!r}; omit quorum, or use kind {kind!r} with "
                f"size = {group}"
            )
        return system_class(group)

    return build


@register_protocol(
    "rowa", RowaProtocol, system_builder=_flat_system_builder("rowa", RowaSystem)
)
def _build_rowa(
    spec: SystemSpec, cluster: "Cluster", code: "MDSCode", layout: "StripeLayout",
    coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
) -> RowaProtocol:
    # Flat baselines replicate every block on block 0's consistency group:
    # the same n - k + 1 node budget the trapezoid defends (the setting of
    # examples/protocol_comparison.py).
    return RowaProtocol(
        cluster, list(layout.consistency_group(0)), namespace,
        coordinator=coordinator, verifier=verifier,
    )


@register_protocol(
    "majority",
    MajorityProtocol,
    system_builder=_flat_system_builder("majority", MajoritySystem),
)
def _build_majority(
    spec: SystemSpec, cluster: "Cluster", code: "MDSCode", layout: "StripeLayout",
    coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
) -> MajorityProtocol:
    return MajorityProtocol(
        cluster, list(layout.consistency_group(0)), namespace,
        coordinator=coordinator, verifier=verifier,
    )
