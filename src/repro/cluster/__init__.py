"""Simulated distributed-storage substrate.

Fail-stop versioned storage nodes, an RPC fabric with traffic accounting,
failure models (snapshot and trace-driven), and a discrete-event engine —
the "distributed storage system" the paper's protocol runs on.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator, Timer
from repro.cluster.failures import (
    BernoulliSnapshot,
    EventKind,
    FailureEvent,
    FailureTrace,
    exponential_trace,
)
from repro.cluster.network import (
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    Network,
    NetworkStats,
    TwoTierLatency,
    UniformLatency,
)
from repro.cluster.node import (
    DataRecord,
    ExponentialServiceTime,
    FixedServiceTime,
    NodeStats,
    ParityRecord,
    QueueStats,
    ServiceTimeModel,
    StorageNode,
)
from repro.cluster.racks import RackTopology, rack_aware_assignment
from repro.cluster.rng import make_rng, spawn_rngs

__all__ = [
    "Cluster",
    "Simulator",
    "Timer",
    "BernoulliSnapshot",
    "EventKind",
    "FailureEvent",
    "FailureTrace",
    "exponential_trace",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LognormalLatency",
    "TwoTierLatency",
    "StorageNode",
    "DataRecord",
    "ParityRecord",
    "NodeStats",
    "ServiceTimeModel",
    "FixedServiceTime",
    "ExponentialServiceTime",
    "QueueStats",
    "make_rng",
    "spawn_rngs",
    "RackTopology",
    "rack_aware_assignment",
]
