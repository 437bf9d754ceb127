"""The one hand-built closed-loop fixture the runtime and sim suites share.

``build_closed_loop`` wires a (9, 6) cluster, ``shards`` engines on their
own coordinators behind a :class:`ShardRouter`, a seeded uniform tape and
a :class:`ShardedClosedLoopSimulation` over them — the layer *below*
``build_sharded_system``, so tests can swap the coordinator class (the
lockstep oracle), the engine (all four protocols) or the latency model.
One shard is the single-stripe case.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster, FixedLatency, Network, Simulator
from repro.cluster.rng import make_rng, spawn_rngs
from repro.core.trap_erc import TrapErcProtocol
from repro.erasure import MDSCode
from repro.erasure.stripe import StripeLayout
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.runtime import (
    EventCoordinator,
    RetryPolicy,
    Shard,
    ShardRouter,
    make_service_queues,
)
from repro.sim import ClosedLoopConfig, ShardedClosedLoopSimulation, uniform_workload

N, K = 9, 6
BLOCK = 8


def quorum():
    return TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)


def shard_layout(shard: int) -> StripeLayout:
    return StripeLayout(N, K, tuple((b + shard) % N for b in range(N)))


def trap_erc_engine(cluster, code, coordinator, shard: int):
    return TrapErcProtocol(
        cluster, code, quorum(), layout=shard_layout(shard),
        stripe_id=f"shard-{shard}", coordinator=coordinator,
    )


def build_closed_loop(
    seed, ops, clients, think=0.0, read_fraction=0.5, *,
    shards=1, service=None, routing="interleave", horizon=100.0,
    trace=None, partitions=None, latency=None, retries=0,
    coordinator_cls=EventCoordinator, make_engine=trap_erc_engine,
):
    """Returns ``(simulation, router)``, initialized and with clean stats."""
    cluster = Cluster(N, network=Network(latency=latency or FixedLatency(0.001)))
    sim = Simulator()
    queues = (
        make_service_queues(sim, N, service, rng=99) if service is not None else None
    )
    rngs = [make_rng(seed)] if shards == 1 else spawn_rngs(make_rng(seed), shards)
    policy = RetryPolicy(timeout=0.05, retries=retries)
    code = MDSCode(N, K)
    init_rng = make_rng(1)
    shard_objs = []
    initial = []
    for s in range(shards):
        coordinator = coordinator_cls(
            cluster, sim, rng=rngs[s], policy=policy,
            record_trace=True, queues=queues,
        )
        engine = make_engine(cluster, code, coordinator, s)
        data = (
            init_rng.integers(0, 256, size=(K, BLOCK), dtype=np.int64)
            .astype(np.uint8)
        )
        engine.initialize(data)
        initial.append(data)
        shard_objs.append(Shard(s, engine, coordinator, K))
    cluster.reset_stats()  # drop the instant-path bootstrap traffic
    router = ShardRouter(shard_objs, routing=routing)
    workload = uniform_workload(ops, router.num_blocks, read_fraction, rng=make_rng(2))
    return (
        ShardedClosedLoopSimulation(
            cluster, router, workload,
            config=ClosedLoopConfig(
                clients=clients, think_time=think, horizon=horizon
            ),
            trace=trace, partitions=partitions, initial=np.stack(initial),
        ),
        router,
    )
