"""Live storage-node services: the wall-clock half of the runtime.

The simulators predict; this subsystem measures. A
:class:`StorageNodeService` puts a real :class:`~repro.cluster.node.
StorageNode`'s versioned RPC surface behind a length-prefixed wire
protocol (:mod:`repro.services.wire`), reachable through two
transports — in-process asyncio queue pairs and real TCP — and the
:class:`~repro.runtime.async_coord.AsyncCoordinator` runs the engines'
round plans against them unmodified. :func:`run_wallclock` drives a
whole ``SystemSpec`` through the live path and reports measured
p50/p95/p99 next to the simulator's prediction for the same spec (the
``wallclock`` scenario kind; see docs/RUNTIME.md, *Wall-clock
backend*).
"""

from repro.services.harness import ServiceGroup, mirror_state, serve_forever
from repro.services.service import RPC_METHODS, StorageNodeService
from repro.services.transport import (
    InprocTransport,
    TcpTransport,
    connect_transports,
)
from repro.services.wallclock import run_wallclock
from repro.services.wire import (
    MAX_FRAME,
    SERIALIZATIONS,
    Codec,
    FrameProtocol,
    RemoteCallError,
    WireError,
    decode_error,
    encode_error,
    frame,
)

__all__ = [
    "MAX_FRAME",
    "RPC_METHODS",
    "SERIALIZATIONS",
    "Codec",
    "FrameProtocol",
    "InprocTransport",
    "RemoteCallError",
    "ServiceGroup",
    "StorageNodeService",
    "TcpTransport",
    "WireError",
    "connect_transports",
    "decode_error",
    "encode_error",
    "frame",
    "mirror_state",
    "run_wallclock",
    "serve_forever",
]
