"""The protocol registry: declarative protocol names onto engine builders.

:func:`register_protocol` maps a :class:`~repro.api.spec.SystemSpec`
``protocol`` name onto a builder of an engine satisfying
:class:`~repro.api.build.ProtocolEngine` (``trap-erc``, ``trap-fr``,
``rowa``, ``majority``). Comparative simulations and sweeps iterate over
registry *names*; a new protocol plugs in with :func:`register_protocol`
and immediately becomes available to ``repro run --config``, the
comparison scenario and the facade tests. The quorum geometry is not a
registry: :class:`~repro.api.spec.QuorumSpec` knows its three kinds,
and :func:`~repro.api.spec.build_trapezoid_quorum` turns a trapezoid
section into the :class:`~repro.quorum.trapezoid.TrapezoidQuorum` the
engines consume. The name table itself lives in :mod:`repro.api.spec`,
so a spec naming an unregistered protocol is refused when it loads.
Also here: the latency and service-time models a spec's sections name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.api.spec import (
    _PROTOCOLS,
    LatencySpec,
    ServiceTimeSpec,
    SystemSpec,
    _require_protocol,
    build_trapezoid_quorum,
    protocol_names,
)
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.erasure.code import MDSCode
    from repro.erasure.stripe import StripeLayout

__all__ = [
    "ProtocolEntry",
    "DEFAULT_NAMESPACE",
    "register_protocol",
    "protocol_names",
    "protocol_entry",
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
    geometry (the spec checks it against the paper's eq. 5 at load).
    """

    name: str
    engine_class: type
    builder: Callable[..., object]
    needs_trapezoid: bool = False
    supports_repair: bool = False


#: storage-key prefix of a single-volume system (and of shard 0)
DEFAULT_NAMESPACE = "api-stripe"


def register_protocol(
    name: str,
    engine_class: type,
    *,
    needs_trapezoid: bool = False,
    supports_repair: bool = False,
):
    """Decorator registering a protocol-engine builder."""

    def decorator(builder: Callable[..., object]):
        if name in _PROTOCOLS:
            raise ConfigurationError(f"protocol {name!r} already registered")
        _PROTOCOLS[name] = ProtocolEntry(
            name, engine_class, builder, needs_trapezoid, supports_repair
        )
        return builder

    return decorator


def protocol_entry(name: str) -> ProtocolEntry:
    _require_protocol(name)
    return _PROTOCOLS[name]


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


@register_protocol("rowa", RowaProtocol)
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


@register_protocol("majority", MajorityProtocol)
def _build_majority(
    spec: SystemSpec, cluster: "Cluster", code: "MDSCode", layout: "StripeLayout",
    coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
) -> MajorityProtocol:
    return MajorityProtocol(
        cluster, list(layout.consistency_group(0)), namespace,
        coordinator=coordinator, verifier=verifier,
    )
