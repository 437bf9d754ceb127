"""History-model simulation: the protocol under failure/repair *traces*.

The paper analyzes the snapshot model only. The drivers here remove that
idealization in two stages:

* :class:`TraceSimulation` — the legacy instant-RPC driver: nodes fail
  and recover along a :class:`FailureTrace`, miss writes while down, come
  back *stale*, and the Algorithm-1 guard then rejects their parity
  deltas until the optional anti-entropy service repairs them. Each
  operation executes atomically at its arrival instant (results are
  pinned across PRs).
* :class:`ShardedClosedLoopSimulation` — the event-driven driver built
  on :mod:`repro.runtime`: a pool of closed-loop clients keeps several
  operations genuinely *in flight* at once (each client issues its next
  operation ``think_time`` after the previous one completes) across a
  :class:`~repro.runtime.router.ShardRouter`'s volume — one shard is the
  single-stripe case — every message travels with sampled latency, and
  failures, repairs and partitions from the faultload interleave
  *mid-operation*. It measures what the instant path cannot:
  operation-latency percentiles (quorum-wait tails under faults) and
  per-round message costs.

Both tally consistency: a read must never return a version older than
the last write *completed before the read began* (real-time order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator
from repro.cluster.failures import EventKind, FailureTrace
from repro.cluster.rng import make_rng
from repro.core.repair import RepairService
from repro.core.trap_erc import TrapErcProtocol
from repro.erasure.code import MDSCode
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.runtime.router import ShardRouter
from repro.sim.metrics import LatencyTally, OperationTally
from repro.sim.workloads import OpKind, Operation, uniform_workload, write_payload
from repro.storage.placement import RotatingPlacement

__all__ = [
    "TraceSimConfig",
    "TraceSimulation",
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
    wipe_on_repair: bool = False,
) -> None:
    """Schedule a failure trace's fail/recover transitions on ``sim``."""
    for ev in trace.events:
        if ev.time >= horizon:
            continue
        if ev.kind is EventKind.FAIL:
            sim.schedule_at(ev.time, lambda nid=ev.node_id: cluster.fail(nid))
        else:
            sim.schedule_at(
                ev.time,
                lambda nid=ev.node_id: cluster.recover(nid, wipe=wipe_on_repair),
            )


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


@dataclass(frozen=True)
class TraceSimConfig:
    """Knobs of a history-model run."""

    horizon: float = 1000.0
    op_rate: float = 1.0  # mean operations per unit time
    read_fraction: float = 0.5
    repair_interval: float | None = None  # None disables anti-entropy
    block_length: int = 8
    wipe_on_repair: bool = False  # True models disk replacement
    stripes: int = 1  # logical blocks = stripes * k (volume-style runs)

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.op_rate <= 0:
            raise ConfigurationError("op_rate must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.repair_interval is not None and self.repair_interval <= 0:
            raise ConfigurationError("repair_interval must be positive")
        if self.stripes < 1:
            raise ConfigurationError("stripes must be >= 1")


class TraceSimulation:
    """Drive TRAP-ERC stripes through a failure trace (instant path).

    With ``config.stripes == 1`` (default) this is the paper's
    single-stripe setting. With more stripes the run models a small
    volume: logical block b lives in stripe ``b // k`` as data block
    ``b % k`` under a rotated placement, all stripes share the cluster
    and the failure trace, and initialization encodes the whole volume
    in one ``MDSCode.encode_batch`` dispatch.
    """

    def __init__(
        self,
        n: int,
        k: int,
        quorum: TrapezoidQuorum,
        trace: FailureTrace,
        config: TraceSimConfig | None = None,
        workload: list[Operation] | None = None,
        rng=None,
    ) -> None:
        self.config = config if config is not None else TraceSimConfig()
        if trace.num_nodes != n:
            raise ConfigurationError(
                f"trace covers {trace.num_nodes} nodes but the stripe needs {n}"
            )
        self.rng = make_rng(rng)
        self.trace = trace
        self.cluster = Cluster(n)
        self.code = MDSCode(n, k)
        placement = RotatingPlacement(n, k, n)
        self.protocols: list[TrapErcProtocol] = [
            TrapErcProtocol(
                self.cluster, self.code, quorum,
                layout=placement.layout_for(s), stripe_id=f"trace-{s}",
            )
            for s in range(self.config.stripes)
        ]
        self.protocol = self.protocols[0]  # single-stripe handle
        self.repairs = [RepairService(proto) for proto in self.protocols]
        self.repair = self.repairs[0]
        self.workload = workload
        self.tally = OperationTally()
        # Oracle of acknowledged writes: logical block -> (version, payload).
        self._committed: dict[int, tuple[int, np.ndarray]] = {}

    @property
    def num_logical_blocks(self) -> int:
        """Addressable blocks of the run: stripes * k."""
        return self.config.stripes * self.code.k

    # ------------------------------------------------------------------ #

    def _initial_data(self) -> np.ndarray:
        return (
            self.rng.integers(
                0,
                256,
                size=(
                    self.config.stripes,
                    self.code.k,
                    self.config.block_length,
                ),
                dtype=np.int64,
            ).astype(np.uint8)
        )

    def _arrival_times(self) -> np.ndarray:
        """Poisson arrivals over [0, horizon]."""
        expected = self.config.op_rate * self.config.horizon
        draws = max(16, int(expected * 1.5) + 16)
        gaps = self.rng.exponential(1.0 / self.config.op_rate, size=draws)
        times = np.cumsum(gaps)
        while times[-1] < self.config.horizon:
            more = self.rng.exponential(1.0 / self.config.op_rate, size=draws)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        return times[times < self.config.horizon]

    def _ops(self, count: int) -> list[Operation]:
        if self.workload is not None:
            reps = -(-count // len(self.workload))
            return (self.workload * reps)[:count]
        return uniform_workload(
            count, self.num_logical_blocks, self.config.read_fraction, rng=self.rng
        )

    # ------------------------------------------------------------------ #

    def _execute(self, op: Operation) -> None:
        logical = op.block % self.num_logical_blocks
        protocol = self.protocols[logical // self.code.k]
        i = logical % self.code.k
        if op.kind is OpKind.READ:
            self.tally.reads_attempted += 1
            result = protocol.read_block(i)
            if result.success:
                self.tally.reads_succeeded += 1
                if result.case is not None and result.case.value == "decode":
                    self.tally.reads_decoded += 1
                else:
                    self.tally.reads_direct += 1
                committed = self._committed.get(logical)
                if committed is not None:
                    version, payload = committed
                    if result.version < version or (
                        result.version == version
                        and not np.array_equal(result.value, payload)
                    ):
                        self.tally.consistency_violations += 1
        else:
            self.tally.writes_attempted += 1
            value = write_payload(op.payload_seed, self.config.block_length)
            result = protocol.write_block(i, value)
            if result.success:
                self.tally.writes_succeeded += 1
                self._committed[logical] = (result.version, value.copy())

    def _repair_pass(self) -> None:
        for repair in self.repairs:
            self.tally.repairs += repair.sync_all()

    # ------------------------------------------------------------------ #

    def run(self) -> OperationTally:
        """Execute the full simulation; returns the operation tally."""
        sim = Simulator()
        data = self._initial_data()
        # One batched encode for the whole volume, then per-stripe loads.
        stripes = self.code.encode_batch(data)
        for s, protocol in enumerate(self.protocols):
            protocol.load_stripe(stripes[s])
            for i in range(self.code.k):
                self._committed[s * self.code.k + i] = (0, data[s, i].copy())

        schedule_trace(
            sim, self.cluster, self.trace, self.config.horizon,
            wipe_on_repair=self.config.wipe_on_repair,
        )

        times = self._arrival_times()
        for t, op in zip(times, self._ops(len(times))):
            sim.schedule_at(float(t), lambda o=op: self._execute(o))

        if self.config.repair_interval is not None:
            interval = self.config.repair_interval
            t = interval
            while t < self.config.horizon:
                sim.schedule_at(t, self._repair_pass)
                t += interval

        sim.run_until(self.config.horizon)
        self.tally.messages = self.cluster.network.stats.messages
        return self.tally


# --------------------------------------------------------------------- #
# event-driven closed-loop driver
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Knobs of an event-driven closed-loop run."""

    clients: int = 4
    think_time: float = 0.0
    horizon: float = 1000.0
    block_length: int = 8
    repair_interval: float | None = None
    wipe_on_repair: bool = False

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
    """Closed-loop clients driving a :class:`ShardRouter`'s whole volume.

    Every shard pairs a plan-capable engine (``read_plan(i)`` /
    ``write_plan(i, value)`` — all four registry engines qualify) with
    its own :class:`~repro.runtime.event.EventCoordinator`; all shards
    share one simulator, one cluster and — when per-node service queues
    are attached — the same contended servers. The ``clients`` loops
    pull operations from the shared ``ops`` tape, which addresses the
    router's ``num_shards * k`` logical blocks: each client submits its
    next operation ``think_time`` after the previous one completes, so
    up to ``clients`` operations are in flight across the volume at once
    while the optional ``trace`` (fail/repair churn) and ``partitions``
    interleave with them mid-flight.

    Anti-entropy (``repairs``: one instant-path service per shard) runs
    as instantaneous out-of-band maintenance passes every
    ``config.repair_interval`` — the repair traffic itself is not part
    of the latency experiment.

    The consistency check is real-time safe under concurrency: a read
    only counts as a violation when it returns a version older than the
    newest write that *completed before the read started*.

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
    ) -> None:
        self.cluster = cluster
        self.router = router
        self.sim = router.shards[0].coordinator.sim
        self.ops = list(ops)
        self.config = config if config is not None else ClosedLoopConfig()
        self.trace = trace
        self.partitions = partitions or []
        self.repairs = list(repairs) if repairs is not None else []
        self.tally = LatencyTally()
        self.shard_tallies = [LatencyTally() for _ in router.shards]
        self._cursor = 0
        self._in_flight = 0
        self._max_in_flight = 0
        #: highest version whose write completed, per logical block
        self._committed: dict[int, int] = {}

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
            shard.coordinator.submit(
                shard.engine.read_plan(local),
                lambda result: self._read_done(result, floor, tally),
            )
        else:
            tally.writes_attempted += 1
            value = write_payload(op.payload_seed, self.config.block_length)
            shard.coordinator.submit(
                shard.engine.write_plan(local, value),
                lambda result: self._write_done(result, block, tally),
            )

    def _reschedule(self) -> None:
        self._in_flight -= 1
        self.sim.schedule_in(self.config.think_time, self._next_op)

    def _read_done(self, result, floor: int, tally: LatencyTally) -> None:
        if result.success:
            tally.reads_succeeded += 1
            tally.read_latencies.append(result.latency)
            if result.version < floor:
                tally.consistency_violations += 1
        else:
            tally.failed_read_latencies.append(result.latency)
        self._reschedule()

    def _write_done(self, result, block: int, tally: LatencyTally) -> None:
        if result.success:
            tally.writes_succeeded += 1
            tally.write_latencies.append(result.latency)
            self._committed[block] = max(
                self._committed.get(block, 0), result.version
            )
        else:
            tally.failed_write_latencies.append(result.latency)
        self._reschedule()

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
            schedule_trace(
                self.sim, self.cluster, self.trace, config.horizon,
                wipe_on_repair=config.wipe_on_repair,
            )
        schedule_partitions(self.sim, self.cluster, self.partitions, config.horizon)
        if self.repairs and config.repair_interval is not None:
            t = config.repair_interval
            while t < config.horizon:
                self.sim.schedule_at(t, self._repair_pass)
                t += config.repair_interval
        for _ in range(config.clients):
            self.sim.schedule_at(self.sim.now, self._next_op)
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
