"""Unified facade: declarative specs, registries, runner.

The canonical way to construct and run everything in the repo:

* :mod:`repro.api.spec` — the frozen, JSON-round-trippable
  :class:`SystemSpec` configuration tree (code, quorum, cluster, placement,
  workload, scenario, one top-level ``seed``), checked in full at load;
* :mod:`repro.api.registry` — the protocol registry
  (``trap-erc``/``trap-fr``/``rowa``/``majority``);
* :mod:`repro.api.build` — :func:`build_system`, composing the existing
  constructors behind one factory, and the minimal
  :class:`ProtocolEngine` protocol every engine satisfies;
* :mod:`repro.api.runner` — :class:`ScenarioRunner`, executing MC
  availability, protocol Monte-Carlo, trace simulations, comparisons,
  sweeps and event-driven latency/faultload runs from a spec into tidy
  JSON-dumpable results.

Ten-line quickstart::

    import numpy as np
    from repro.api import SystemSpec, build_system

    spec = SystemSpec.trapezoid(n=9, k=6, a=2, b=1, h=1, w=2, seed=7)
    system = build_system(spec)
    system.initialize()
    value = np.full(32, 42, dtype=np.uint8)
    print(system.engine.write_block(0, value).success)
    print(system.engine.read_block(0).value[:4])

See ``docs/API.md`` for the full spec schema and the protocol registry.
"""

from repro.api.build import (
    BuiltSystem,
    ProtocolEngine,
    ShardedSystem,
    build_sharded_system,
    build_system,
)
from repro.api.registry import (
    ProtocolEntry,
    build_latency_model,
    build_service_model,
    protocol_entry,
    protocol_names,
    register_protocol,
)
from repro.api.runner import (
    ScenarioResult,
    ScenarioRunner,
    run_spec,
)
from repro.api.spec import (
    ClusterSpec,
    CodeSpec,
    FaultloadSpec,
    LatencySpec,
    MetadataSpec,
    PlacementSpec,
    QuorumSpec,
    ScenarioSpec,
    ServiceTimeSpec,
    ShardingSpec,
    SystemSpec,
    TransportSpec,
    WorkloadSpec,
    build_trapezoid_quorum,
    execution_options,
)

__all__ = [
    "CodeSpec",
    "QuorumSpec",
    "ClusterSpec",
    "PlacementSpec",
    "WorkloadSpec",
    "LatencySpec",
    "ServiceTimeSpec",
    "ShardingSpec",
    "FaultloadSpec",
    "MetadataSpec",
    "ScenarioSpec",
    "TransportSpec",
    "SystemSpec",
    "ProtocolEntry",
    "register_protocol",
    "protocol_names",
    "protocol_entry",
    "build_trapezoid_quorum",
    "ProtocolEngine",
    "BuiltSystem",
    "build_system",
    "ShardedSystem",
    "build_sharded_system",
    "ScenarioRunner",
    "ScenarioResult",
    "run_spec",
    "execution_options",
    "build_latency_model",
    "build_service_model",
]
