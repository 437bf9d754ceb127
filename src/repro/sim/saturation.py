"""Throughput-saturation instrumentation for the sharded runtime.

With per-node service queues attached, the closed-loop runtime is a
closed queueing network: each of ``clients`` clients keeps one operation
in flight (plus think time), every request occupies its node for a
sampled service time, and aggregate throughput rises with the client
count until the busiest server saturates. :func:`run_saturation_point`
distils one :class:`~repro.sim.trace_sim.ShardedClosedLoopSimulation`
into one point of the ops/s-vs-clients curve; the runner's
``saturation`` scenario kind repeats it per client count — the headline
scaling question the paper's single-instance snapshot model cannot ask.

Throughput here is *goodput* in virtual time: successful operations per
virtual second (failed operations — timeouts under overload — complete
too, but count separately). :func:`knee_clients` reports the knee of the
curve: the smallest client count already delivering ``threshold`` of the
peak, i.e. where adding clients stops buying throughput and only buys
queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError
from repro.runtime.event import NodeServiceQueue
from repro.sim.trace_sim import ShardedClosedLoopSimulation

__all__ = [
    "SaturationPoint",
    "run_saturation_point",
    "knee_clients",
    "queue_summary",
]


def queue_summary(
    queues: Mapping[int, NodeServiceQueue] | None, duration: float
) -> dict:
    """Aggregate what the per-node service queues measured.

    ``mean_wait`` weights each node by its started requests;
    ``max_utilization`` is the busiest server's busy fraction over
    ``duration`` — the capacity bound the saturation curve plateaus at.
    Returns zeros when queueing is off so JSON consumers need no special
    case.
    """
    if not queues:
        return {
            "nodes": 0,
            "arrivals": 0,
            "served": 0,
            "mean_wait": 0.0,
            "max_wait_node": None,
            "max_queue_len": 0,
            "mean_utilization": 0.0,
            "max_utilization": 0.0,
        }
    stats = {node_id: q.stats for node_id, q in queues.items()}
    started = sum(s.started for s in stats.values())
    total_wait = sum(s.total_wait for s in stats.values())
    utils = {i: s.utilization(duration) for i, s in stats.items()}
    worst_wait = max(stats, key=lambda i: stats[i].mean_wait)
    return {
        "nodes": len(stats),
        "arrivals": sum(s.arrivals for s in stats.values()),
        "served": sum(s.served for s in stats.values()),
        "mean_wait": total_wait / started if started else 0.0,
        "max_wait_node": worst_wait,
        "max_queue_len": max(s.max_queue_len for s in stats.values()),
        "mean_utilization": sum(utils.values()) / len(utils),
        "max_utilization": max(utils.values()),
    }


@dataclass
class SaturationPoint:
    """One client count of the ops/s-vs-clients curve."""

    clients: int
    ops_completed: int  # successful reads + writes
    ops_failed: int
    virtual_duration: float
    throughput: float  # successful ops per virtual second
    aggregate: dict = field(repr=False)  # tally summary + op percentiles
    per_shard: list = field(repr=False)
    queues: dict = field(repr=False)
    trace_hash: str = field(repr=False, default="")

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "ops_completed": self.ops_completed,
            "ops_failed": self.ops_failed,
            "virtual_duration": self.virtual_duration,
            "throughput": self.throughput,
            "aggregate": self.aggregate,
            "per_shard": self.per_shard,
            "queues": self.queues,
            "trace_hash": self.trace_hash,
        }


def run_saturation_point(
    clients: int, run: ShardedClosedLoopSimulation
) -> SaturationPoint:
    """Run one fresh closed-loop simulation and distil its curve point.

    The unit of the runner's ``latency`` and ``saturation`` kinds:
    everything a point reports (tally summary, per-shard views, queue
    stats, trace hash) is derived from the one ``run``, so a point
    computes identically wherever it runs.
    """
    tally = run.run()
    duration = run.sim.now
    completed = tally.reads_succeeded + tally.writes_succeeded
    failed = (
        tally.reads_attempted
        + tally.writes_attempted
        - completed
    )
    aggregate = tally.summary()
    aggregate["operation_latency"] = tally.operation_percentiles()
    # The service-queue mapping is shared by every shard coordinator.
    queues = run.router.shards[0].coordinator.queues
    return SaturationPoint(
        clients=clients,
        ops_completed=completed,
        ops_failed=failed,
        virtual_duration=duration,
        throughput=completed / duration if duration > 0 else 0.0,
        aggregate=aggregate,
        per_shard=run.shard_summaries(),
        queues=queue_summary(queues, duration),
        trace_hash=run.router.trace_hash(),
    )


def knee_clients(points: list[SaturationPoint], threshold: float = 0.9) -> int:
    """The knee of the curve: fewest clients reaching ``threshold`` of peak."""
    if not points:
        raise ConfigurationError("knee_clients needs at least one point")
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    peak = max(p.throughput for p in points)
    if peak == 0.0:
        return points[0].clients
    eligible = [p.clients for p in points if p.throughput >= threshold * peak]
    return min(eligible)
