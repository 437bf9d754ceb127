"""Message-level network model with accounting, latency and partitions.

Every synchronous protocol RPC goes through :meth:`Network.rpc`, which

* refuses delivery when the destination is failed or partitioned away
  (raising :class:`NodeUnavailableError`, exactly what a timed-out RPC
  looks like to the coordinator),
* counts messages and payload bytes per RPC kind (the paper's motivation
  discusses network overhead of ERC schemes; the counters let benchmarks
  report it),
* accumulates virtual latency from a pluggable latency model.

Latency accounting distinguishes two counters:

* ``total_message_delay`` sums the sampled delay of *every* message —
  useful as a traffic-volume proxy, but **not** an operation latency: a
  quorum fan-out contacts its nodes in parallel, so summing the legs
  overstates the wall time by the fan-out factor (the deprecated
  ``virtual_latency`` alias for it has been removed);
* ``operation_latency`` accumulates the **max-of-parallel** delay per
  fan-out round, recorded by the round coordinators in
  :mod:`repro.runtime` via :meth:`Network.record_round` — this is the
  virtual wall time a client actually observes.

The model here is synchronous-RPC: calls complete immediately in
wall-clock terms, with latency tracked virtually. The event-driven
session layer in :mod:`repro.runtime.event` builds on the same fabric
(``sample_delay`` / ``is_partitioned`` / the drop-and-timeout counters)
to schedule real message deliveries on the discrete-event engine in
:mod:`repro.cluster.events`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cluster.node import StorageNode, serve
from repro.errors import ConfigurationError, NodeUnavailableError

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LognormalLatency",
    "TwoTierLatency",
    "NetworkStats",
    "Network",
]


class LatencyModel:
    """Base latency model: per-message delay in virtual seconds.

    ``sample`` is the single-distribution interface every model provides.
    ``sample_link`` adds per-link awareness: it takes the endpoints of a
    message leg (``None`` marks an off-cluster endpoint, e.g. an external
    client), and the default implementation delegates to ``sample`` so a
    model defining only ``sample`` works everywhere and consumes one RNG
    draw per leg. Topology-aware models like :class:`TwoTierLatency`
    override it. The event runtime draws through :meth:`stream`, whose
    delays equal sequential ``sample_link`` calls.
    """

    def sample(self, rng: np.random.Generator) -> float:  # pragma: no cover
        raise NotImplementedError

    def sample_link(
        self,
        rng: np.random.Generator,
        src: int | None,
        dst: int | None,
    ) -> float:
        """Delay of one message leg from ``src`` to ``dst``."""
        return self.sample(rng)

    def sample_links(
        self,
        rng: np.random.Generator,
        site: int | None,
        peers,
    ) -> list[float]:
        """Delays of one message leg between ``site`` and each peer.

        The batched twin of :meth:`sample_link`: a whole fan-out wave
        drawn at once. The contract is **stream identity**: the returned
        list must equal ``len(peers)`` sequential ``sample_link`` calls
        on the same generator (numpy's sized draws satisfy this for the
        uniform/lognormal families). Links are treated as
        direction-symmetric — every built-in model is (rack membership
        does not depend on leg direction) — so the same method serves
        request legs (coordinator -> peer) and reply legs (peer ->
        coordinator). Asymmetric custom models must override it.
        """
        return [self.sample_link(rng, site, peer) for peer in peers]

    def stream(self, rng: np.random.Generator, site: int | None):
        """``draw(peers) -> delays`` bound to one coordinator's generator.

        What the event runtime actually calls, once per message wave.
        Same stream-identity contract as :meth:`sample_links`, which is
        the default. A model whose delays do not depend on the link
        (:class:`LognormalLatency`, :class:`UniformLatency`) may draw
        ahead in blocks, so a stream must be the **only** consumer of
        ``rng``: every :class:`~repro.runtime.event.EventCoordinator`
        owns its generator (``coordinator_rngs[index]`` in
        ``api/build.py``) and nothing else draws from it.
        """
        return partial(self.sample_links, rng, site)


#: draws per refill of a block-backed stream (4 KiB of floats per
#: coordinator; one sized numpy call costs about as much as one scalar)
_BLOCK = 512


def _block_stream(refill):
    """A ``draw(peers)`` serving link-independent delays from blocks.

    ``refill()`` returns the next ``_BLOCK`` draws as a list; numpy's
    sized draws equal that many sequential scalar draws, and a request
    that straddles a refill takes the old block's tail first, so the
    delays come out in generator order whatever the request sizes.
    """
    block: list[float] = []
    pos = 0

    def draw(peers) -> list[float]:
        nonlocal block, pos
        end = pos + len(peers)
        delays = block[pos:end]
        while end > len(block):
            end -= len(block)
            block = refill()
            delays += block[:end]
        pos = end
        return delays

    return draw


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant per-message latency."""

    delay: float = 0.001

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay

    def sample_links(
        self,
        rng: np.random.Generator,
        site: int | None,
        peers,
    ) -> list[float]:
        return [self.delay] * len(peers)


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform latency in [low, high]."""

    low: float = 0.0005
    high: float = 0.002

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def stream(self, rng: np.random.Generator, site: int | None):
        return _block_stream(
            lambda: rng.uniform(self.low, self.high, _BLOCK).tolist()
        )


@dataclass(frozen=True)
class LognormalLatency(LatencyModel):
    """Heavy-tailed latency: exp(N(mu, sigma^2)) seconds per message.

    The defaults give a ~1.5 ms median with a long tail — the regime
    where quorum-wait (q-th fastest of a fan-out) visibly beats waiting
    on stragglers, which is what the latency percentile scenarios probe.
    """

    mu: float = -6.5
    sigma: float = 0.5

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def stream(self, rng: np.random.Generator, site: int | None):
        return _block_stream(
            lambda: rng.lognormal(self.mu, self.sigma, _BLOCK).tolist()
        )


@dataclass(frozen=True)
class TwoTierLatency(LatencyModel):
    """Rack/WAN two-tier per-link latency.

    Nodes are grouped into racks of ``rack_size`` consecutive ids
    (``rack = node_id // rack_size``, matching the contiguous blocks of
    :class:`~repro.cluster.racks.RackTopology`). A message leg between
    two endpoints in the same rack takes ``local`` seconds, everything
    else takes ``remote`` seconds; ``jitter`` (a fraction in [0, 1))
    widens either base delay uniformly to ``base * (1 ± jitter)``. An
    endpoint of ``None`` — or any negative id — models an off-cluster
    client and is always remote.

    The single-distribution ``sample`` fallback (used by the instant
    path's :meth:`Network.rpc`, which has no per-link information)
    reports the remote tier: the conservative cross-rack figure.
    """

    local: float = 0.0005
    remote: float = 0.005
    rack_size: int = 3
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.local <= self.remote:
            raise ConfigurationError(
                f"need 0 <= local <= remote, got local={self.local}, "
                f"remote={self.remote}"
            )
        if self.rack_size < 1:
            raise ConfigurationError(
                f"rack_size must be >= 1, got {self.rack_size}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def rack_of(self, endpoint: int | None) -> int:
        """The rack of an endpoint id; -1 for off-cluster endpoints."""
        if endpoint is None or endpoint < 0:
            return -1
        return int(endpoint) // self.rack_size

    def sample(self, rng: np.random.Generator) -> float:
        return self._jittered(self.remote, rng)

    def sample_link(
        self,
        rng: np.random.Generator,
        src: int | None,
        dst: int | None,
    ) -> float:
        src_rack = self.rack_of(src)
        dst_rack = self.rack_of(dst)
        same = src_rack == dst_rack and src_rack >= 0
        return self._jittered(self.local if same else self.remote, rng)

    def _jittered(self, base: float, rng: np.random.Generator) -> float:
        if self.jitter == 0.0:
            return base
        return base * (1.0 + float(rng.uniform(-self.jitter, self.jitter)))

    def sample_links(
        self,
        rng: np.random.Generator,
        site: int | None,
        peers,
    ) -> list[float]:
        site_rack = self.rack_of(site)
        local, remote = self.local, self.remote
        bases = [
            local
            if site_rack >= 0 and self.rack_of(peer) == site_rack
            else remote
            for peer in peers
        ]
        if self.jitter == 0.0:
            return bases
        factors = rng.uniform(-self.jitter, self.jitter, len(peers)).tolist()
        return [base * (1.0 + f) for base, f in zip(bases, factors)]


@dataclass
class NetworkStats:
    """Aggregate traffic counters.

    ``messages``/``bytes_sent``/``by_kind`` count traffic on both
    execution paths. ``total_message_delay`` vs ``operation_latency`` is
    the sum-of-messages vs max-of-parallel distinction documented in the
    module docstring. ``messages_dropped``/``timeouts``/``retries`` are
    event-path counters (partitions drop messages silently; the session
    layer converts silence into timeouts and optional resends).
    """

    messages: int = 0
    bytes_sent: int = 0
    rpc_failures: int = 0
    total_message_delay: float = 0.0
    operation_latency: float = 0.0
    rounds: int = 0
    messages_dropped: int = 0
    timeouts: int = 0
    retries: int = 0
    by_kind: Counter = field(default_factory=Counter)

    def reset(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.rpc_failures = 0
        self.total_message_delay = 0.0
        self.operation_latency = 0.0
        self.rounds = 0
        self.messages_dropped = 0
        self.timeouts = 0
        self.retries = 0
        self.by_kind.clear()


def _payload_bytes(args, kwargs) -> int:
    total = 0
    for value in args:
        if isinstance(value, np.ndarray):
            total += value.nbytes
    if kwargs:
        for value in kwargs.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


class Network:
    """RPC fabric between a coordinator and the storage nodes."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.latency = latency
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = NetworkStats()
        self.last_rpc_delay = 0.0
        self._partitioned: set[int] = set()

    # -- partitions ----------------------------------------------------- #

    def partition(self, node_ids) -> None:
        """Cut the given nodes off from the coordinator."""
        self._partitioned.update(int(i) for i in node_ids)

    def heal(self, node_ids=None) -> None:
        """Reconnect nodes (all of them when ``node_ids`` is None)."""
        if node_ids is None:
            self._partitioned.clear()
        else:
            self._partitioned.difference_update(int(i) for i in node_ids)

    def is_partitioned(self, node_id: int) -> bool:
        """True when messages to/from ``node_id`` are silently dropped."""
        return int(node_id) in self._partitioned

    def is_reachable(self, node: StorageNode) -> bool:
        return node.alive and node.node_id not in self._partitioned

    # -- latency -------------------------------------------------------- #

    def sample_delay(self, rng: np.random.Generator | None = None) -> float:
        """One message-leg delay from the latency model (0.0 when unset)."""
        if self.latency is None:
            return 0.0
        return self.latency.sample(rng if rng is not None else self.rng)

    def record_round(self, elapsed: float) -> None:
        """Account one fan-out round's max-of-parallel latency."""
        self.stats.operation_latency += elapsed
        self.stats.rounds += 1

    # -- RPC ------------------------------------------------------------ #

    def rpc(self, node: StorageNode, method: str, args: tuple, kwargs: dict):
        """Invoke ``node.method(*args, **kwargs)`` across the fabric.

        Takes a request's argument tuple and keyword dict as they are, so
        a round passes its requests through without repacking them.
        Counts one request/response pair; raises NodeUnavailableError when
        the destination is dead or partitioned (indistinguishable to the
        caller, as in a real timeout). The sampled round-trip delay is
        kept in ``last_rpc_delay`` so round coordinators can record the
        max-of-parallel round latency.
        """
        stats = self.stats
        stats.messages += 2  # request + response
        stats.by_kind[method] += 1
        stats.bytes_sent += _payload_bytes(args, kwargs)
        if self.latency is not None:
            delay = 2 * self.latency.sample(self.rng)
            stats.total_message_delay += delay
            self.last_rpc_delay = delay
        else:
            self.last_rpc_delay = 0.0
        if node.node_id in self._partitioned:
            stats.rpc_failures += 1
            raise NodeUnavailableError(node.node_id)
        try:
            return serve(node, method, args, kwargs)
        except NodeUnavailableError:
            stats.rpc_failures += 1
            raise
