"""History-model simulation: the protocol under failure/repair *traces*.

The paper analyzes the snapshot model only. The one driver here,
:class:`ShardedClosedLoopSimulation`, removes that idealization on the
event core of :mod:`repro.runtime`: nodes fail and recover along a
:class:`FailureTrace`, miss writes while down, come back *stale*, and
the Algorithm-1 guard then rejects their parity deltas until the
optional anti-entropy service repairs them. Operations address a
:class:`~repro.runtime.router.ShardRouter`'s volume (one shard is the
single-stripe case) and arrive by one of two processes:

* closed loop — ``clients`` clients each issue their next operation
  ``think_time`` after the previous one completes, so several are
  genuinely *in flight* at once while every message travels with
  sampled latency and failures, repairs and partitions interleave
  *mid-operation* (the ``latency`` / ``saturation`` scenario kinds);
* open loop — operation *j* is submitted at ``arrivals[j]`` and its
  completion schedules nothing; at a fixed 0 s message latency every
  operation completes at its arrival instant (the ``trace`` kind).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator
from repro.cluster.failures import EventKind, FailureTrace
from repro.core.repair import RepairService
from repro.core.results import ReadCase
from repro.errors import ConfigurationError
from repro.runtime.router import ShardRouter
from repro.sim.metrics import LatencyTally
from repro.sim.workloads import OpKind, Operation, write_payload

__all__ = [
    "PartitionWindow",
    "ClosedLoopConfig",
    "ShardedClosedLoopSimulation",
    "schedule_trace",
    "schedule_partitions",
]


def schedule_trace(
    sim: Simulator,
    cluster: Cluster,
    trace: FailureTrace,
    horizon: float,
) -> None:
    """Schedule a failure trace's fail/recover transitions on ``sim``."""
    for ev in trace.events:
        if ev.time >= horizon:
            continue
        if ev.kind is EventKind.FAIL:
            sim.schedule_at(ev.time, lambda nid=ev.node_id: cluster.fail(nid))
        else:
            sim.schedule_at(ev.time, lambda nid=ev.node_id: cluster.recover(nid))


@dataclass(frozen=True)
class PartitionWindow:
    """One partition episode: ``nodes`` unreachable during [start, end)."""

    start: float
    end: float
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"partition window must have end > start, got "
                f"[{self.start}, {self.end})"
            )


def schedule_partitions(
    sim: Simulator,
    cluster: Cluster,
    windows,
    horizon: float,
) -> None:
    """Schedule partition/heal pairs on ``sim`` (windows past horizon skipped)."""
    for window in windows:
        if window.start >= horizon:
            continue
        sim.schedule_at(
            window.start,
            lambda nodes=window.nodes: cluster.network.partition(nodes),
        )
        sim.schedule_at(
            min(window.end, horizon),
            lambda nodes=window.nodes: cluster.network.heal(nodes),
        )


# --------------------------------------------------------------------- #
# the history driver
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ClosedLoopConfig:
    """Knobs of a history run (``clients``/``think_time``: closed loop only)."""

    clients: int = 4
    think_time: float = 0.0
    horizon: float = 1000.0
    block_length: int = 8
    repair_interval: float | None = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {self.clients}")
        if self.think_time < 0:
            raise ConfigurationError("think_time must be >= 0")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.block_length < 1:
            raise ConfigurationError("block_length must be >= 1")
        if self.repair_interval is not None and self.repair_interval <= 0:
            raise ConfigurationError("repair_interval must be positive")


class ShardedClosedLoopSimulation:
    """Operations from one tape driving a :class:`ShardRouter`'s volume.

    Every shard pairs a plan-capable engine (``read_plan(i)`` /
    ``write_plan(i, value)`` — all four registry engines qualify) with
    its own :class:`~repro.runtime.event.EventCoordinator`; all shards
    share one simulator, one cluster and — when per-node service queues
    are attached — the same contended servers. The shared ``ops`` tape
    addresses the router's ``num_shards * k`` logical blocks. Without
    ``arrivals`` the ``clients`` loops pull from it, each submitting its
    next operation ``think_time`` after the previous one completes, so
    up to ``clients`` operations are in flight across the volume at
    once; with ``arrivals`` (sorted virtual times) operation *j* is
    submitted at ``arrivals[j]`` instead. Either way the optional
    ``trace`` (fail/repair churn) and ``partitions`` interleave with the
    operations mid-flight.

    Anti-entropy (``repairs``: one instant-path service per shard) runs
    as instantaneous out-of-band maintenance passes every
    ``config.repair_interval`` — the repair traffic itself is not part
    of the latency experiment.

    The ``trace`` must cover the cluster's data nodes
    (``cluster.num_data_nodes``), no fewer and no more.

    The consistency check is real-time safe under concurrency. Against
    the newest acknowledged write of its block when it starts (or the
    version-0 ``initial`` data, shape ``(num_shards, k, L)``), a
    successful read is a violation when it returns an older version, or
    — if no write to its block was in flight at any point during the
    read — that version with other bytes.

    ``run`` returns the aggregate :class:`LatencyTally`; per-shard
    tallies stay available as ``shard_tallies`` and pre-digested
    per-shard percentile rows via :meth:`shard_summaries`.
    """

    def __init__(
        self,
        cluster: Cluster,
        router: ShardRouter,
        ops: list[Operation],
        config: ClosedLoopConfig | None = None,
        trace: FailureTrace | None = None,
        partitions: list[PartitionWindow] | None = None,
        repairs: list[RepairService] | None = None,
        *,
        initial: np.ndarray,
        arrivals=None,
    ) -> None:
        if trace is not None and trace.num_nodes != cluster.num_data_nodes:
            raise ConfigurationError(
                f"trace covers {trace.num_nodes} nodes but the cluster has "
                f"{cluster.num_data_nodes} data nodes"
            )
        self.cluster = cluster
        self.router = router
        self.sim = router.shards[0].coordinator.sim
        self.ops = list(ops)
        self.config = config if config is not None else ClosedLoopConfig()
        self.trace = trace
        self.partitions = partitions or []
        self.repairs = list(repairs) if repairs is not None else []
        self.arrivals = arrivals
        self.tally = LatencyTally()
        self.shard_tallies = [LatencyTally() for _ in router.shards]
        self._cursor = 0
        self._in_flight = 0
        self._max_in_flight = 0
        #: highest version whose write completed, per logical block
        self._committed: dict[int, int] = {}
        #: the bytes at that version (the initial data before any write)
        self._acked: dict[int, np.ndarray] = {}
        for block in range(router.num_blocks):
            shard, local = router.locate(block)
            self._acked[block] = initial[shard.index][local]
        #: writes in flight / ever submitted, per block
        self._writing: Counter = Counter()
        self._writes_submitted: Counter = Counter()
        #: the bytes first issued at each (block, version) by a write round
        self._issued: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------ #

    def _next_op(self) -> None:
        if self._cursor >= len(self.ops) or self.sim.now >= self.config.horizon:
            return  # this client retires
        op = self.ops[self._cursor]
        self._cursor += 1
        block = op.block
        # One address-map lookup serves both the tally pick and the
        # dispatch (submit_read/submit_write would locate() again).
        shard, local = self.router.locate(block)
        tally = self.shard_tallies[shard.index]
        self._in_flight += 1
        self._max_in_flight = max(self._max_in_flight, self._in_flight)
        if op.kind is OpKind.READ:
            tally.reads_attempted += 1
            floor = self._committed.get(block, 0)
            expected = self._acked[block]
            # the write count to compare at completion; None = overlapped
            quiet = None if self._writing[block] else self._writes_submitted[block]
            shard.coordinator.submit(
                shard.engine.read_plan(local),
                lambda result: self._read_done(
                    result, block, floor, expected, quiet, tally
                ),
            )
        else:
            tally.writes_attempted += 1
            self._writing[block] += 1
            self._writes_submitted[block] += 1
            value = write_payload(op.payload_seed, self.config.block_length)
            shard.coordinator.submit(
                shard.engine.write_plan(local, value),
                lambda result: self._write_done(result, block, value, tally),
            )

    def _op_done(self) -> None:
        self._in_flight -= 1
        if self.arrivals is None:
            self.sim.schedule_in(self.config.think_time, self._next_op)

    def _read_done(
        self, result, block: int, floor: int, expected, quiet, tally: LatencyTally
    ) -> None:
        if result.success:
            tally.reads_succeeded += 1
            if result.case is ReadCase.DECODE:
                tally.reads_decoded += 1
            tally.read_latencies.append(result.latency)
            if result.version < floor or (
                result.version == floor
                and quiet == self._writes_submitted[block]
                and not np.array_equal(result.value, expected)
            ):
                tally.consistency_violations += 1
        else:
            tally.failed_read_latencies.append(result.latency)
        self._op_done()

    def _write_done(
        self, result, block: int, value: np.ndarray, tally: LatencyTally
    ) -> None:
        self._writing[block] -= 1
        if result.version >= 0:  # the write reached a write round
            issued = self._issued.setdefault((block, result.version), value)
            if not np.array_equal(issued, value):
                tally.versions_reused += 1
        if result.success:
            tally.writes_succeeded += 1
            tally.write_latencies.append(result.latency)
            if result.version >= self._committed.get(block, 0):
                self._committed[block] = result.version
                self._acked[block] = value
        else:
            tally.failed_write_latencies.append(result.latency)
        self._op_done()

    def _repair_pass(self) -> None:
        self.tally.repairs += sum(repair.sync_all() for repair in self.repairs)

    # ------------------------------------------------------------------ #

    def shard_summaries(self) -> list[dict]:
        """Per-shard percentile rows (the per-volume view of the run)."""
        rows = []
        for shard, tally in zip(self.router.shards, self.shard_tallies):
            rows.append(
                {
                    "shard": shard.index,
                    "reads": tally.reads_attempted,
                    "writes": tally.writes_attempted,
                    "read_availability": tally.read_availability().mean,
                    "write_availability": tally.write_availability().mean,
                    "operation_latency": tally.operation_percentiles(),
                    "read_latency": tally.read_percentiles(),
                    "write_latency": tally.write_percentiles(),
                }
            )
        return rows

    def run(self) -> LatencyTally:
        """Run to completion; returns the aggregate tally."""
        config = self.config
        if self.trace is not None:
            schedule_trace(self.sim, self.cluster, self.trace, config.horizon)
        schedule_partitions(self.sim, self.cluster, self.partitions, config.horizon)
        if self.repairs and config.repair_interval is not None:
            t = config.repair_interval
            while t < config.horizon:
                self.sim.schedule_at(t, self._repair_pass)
                t += config.repair_interval
        if self.arrivals is None:
            for _ in range(config.clients):
                self.sim.schedule_at(self.sim.now, self._next_op)
        else:
            for t in self.arrivals:
                self.sim.schedule_at(t, self._next_op)
        self.sim.run()
        for shard in self.router.shards:
            shard.coordinator.shutdown()

        for shard_tally in self.shard_tallies:
            self.tally.merge(shard_tally)
        stats = self.cluster.network.stats
        self.tally.messages = stats.messages
        self.tally.messages_dropped = stats.messages_dropped
        self.tally.timeouts = stats.timeouts
        self.tally.retries = stats.retries
        self.tally.max_in_flight = self._max_in_flight
        self.tally.round_messages = self.router.round_messages()
        return self.tally
