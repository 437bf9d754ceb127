"""Wall-clock measurement: one SystemSpec against live services.

:func:`run_wallclock` is the measured half of the ``wallclock``
scenario. It builds the spec's system with an
:class:`~repro.runtime.async_coord.AsyncCoordinator` injected, brings
up a :class:`~repro.services.harness.ServiceGroup` over the built
cluster's nodes (or drives caller-supplied transports to a remote
fleet, mirroring the initialized state over the wire first), then
replays the *same* seeded workload tape the simulator consumes —
stream 1 of ``spec.seed`` — with closed-loop asyncio clients, recording
real elapsed seconds per operation into a
:class:`~repro.sim.metrics.LatencyTally`. The report's ``wire`` block
states the traffic the tape cost — frames and bytes per operation from
the transports' counters — against the payload floor of the paper's
protocol: a direct read moves one b-byte block, a decode read k of
them, a TRAP-ERC write b·(2 + n − k) (the read-before-write, the new
block, n − k parity deltas).

Caveats that keep the comparison honest: simulated latencies are
*virtual* seconds drawn from ``spec.latency``, measured ones are wall
seconds dominated by serialization and scheduling, so the two columns
share shape (ordering, tail ratios), not units; ``scenario.horizon``
acts here as a hard wall-clock guard (seconds of real time) after
which in-flight clients are cancelled and the partial tally reported.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

import numpy as np

from repro.cluster.rng import make_rng, spawn_rngs
from repro.runtime.async_coord import AsyncCoordinator
from repro.runtime.rounds import RetryPolicy
from repro.sim.metrics import LatencyTally
from repro.core.results import ReadCase
from repro.sim.workloads import OpKind, write_payload

from .harness import ServiceGroup, mirror_state

__all__ = ["run_wallclock"]


async def _drive(
    engine,
    coordinator: AsyncCoordinator,
    ops,
    *,
    clients: int,
    think_time: float,
    block_length: int,
    horizon: float,
) -> LatencyTally:
    """Closed-loop clients pulling from one shared operation tape."""
    tally = LatencyTally()
    loop = asyncio.get_running_loop()
    cursor = iter(list(ops))

    async def client() -> None:
        for op in cursor:
            started = loop.time()
            if op.kind is OpKind.READ:
                tally.reads_attempted += 1
                result = await coordinator.execute_plan(engine.read_plan(op.block))
                elapsed = loop.time() - started
                if result.success:
                    tally.reads_succeeded += 1
                    tally.read_latencies.append(elapsed)
                    if result.case is ReadCase.DECODE:
                        tally.reads_decoded += 1
                else:
                    tally.failed_read_latencies.append(elapsed)
            else:
                tally.writes_attempted += 1
                value = write_payload(op.payload_seed, block_length)
                result = await coordinator.execute_plan(
                    engine.write_plan(op.block, value)
                )
                elapsed = loop.time() - started
                if result.success:
                    tally.writes_succeeded += 1
                    tally.write_latencies.append(elapsed)
                else:
                    tally.failed_write_latencies.append(elapsed)
            if think_time:
                await asyncio.sleep(think_time)

    workers = [asyncio.ensure_future(client()) for _ in range(clients)]
    try:
        await asyncio.wait_for(asyncio.gather(*workers), timeout=horizon)
    except asyncio.TimeoutError:
        for worker in workers:
            worker.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
    return tally


def _wire_totals(transports) -> tuple[int, int]:
    """``(frames, bytes)`` the transports have sent and received so far."""
    frames = nbytes = 0
    for transport in transports:
        frames += getattr(transport, "frames_sent", 0)
        frames += getattr(transport, "frames_received", 0)
        nbytes += getattr(transport, "bytes_sent", 0)
        nbytes += getattr(transport, "bytes_received", 0)
    return frames, nbytes


def _wire_report(spec, before, after, ops: int, tally: LatencyTally) -> dict:
    """Traffic per operation, and against the TRAP-ERC payload floor."""
    frames, nbytes = after[0] - before[0], after[1] - before[1]
    floor = None
    if spec.protocol == "trap-erc":
        n, k = spec.code.n, spec.code.k
        direct = tally.reads_succeeded - tally.reads_decoded
        floor = spec.workload.block_length * (
            direct + k * tally.reads_decoded + (2 + n - k) * tally.writes_succeeded
        )
    return {
        "frames_per_op": frames / ops if ops else 0.0,
        "bytes_per_op": nbytes / ops if ops else 0.0,
        "payload_floor_bytes": floor,
        "bytes_per_payload_byte": nbytes / floor if floor else None,
    }


def run_wallclock(spec, *, transports=None, ops=None) -> dict:
    """Measure one spec against live services; returns the report dict.

    With ``transports=None`` the run is self-contained: a
    :class:`ServiceGroup` of the spec's ``transport`` kind (default
    ``inproc``) serves the built cluster's own nodes. Passing a
    transport map instead drives an external fleet (e.g. TCP to a
    ``repro serve`` process); the locally initialized state is mirrored
    over the wire before the clients start.
    """
    # imported here: repro.api imports stay out of the services layer's
    # import time (the runner imports this module lazily and vice versa)
    from repro.api.build import build_system
    from repro.api.runner import _NUM_STREAMS, _make_workload
    from repro.api.spec import LatencySpec, ScenarioSpec, TransportSpec

    scenario = spec.scenario or ScenarioSpec()
    tspec = spec.transport or TransportSpec()
    latency_spec = spec.latency or LatencySpec()
    policy = RetryPolicy(timeout=latency_spec.timeout, retries=latency_spec.retries)
    loop = asyncio.new_event_loop()
    group = None
    holder: dict = {}

    def factory(cluster):
        coordinator = AsyncCoordinator({}, policy=policy, loop=loop)
        holder["coordinator"] = coordinator
        return coordinator

    try:
        built = build_system(spec, coordinator_factory=factory)
        built.initialize()
        coordinator: AsyncCoordinator = holder["coordinator"]
        if transports is None:
            group = ServiceGroup.for_cluster(built.cluster, tspec)
            loop.run_until_complete(group.start())
            transport_map = group.make_transports()
            mirrored = 0
        else:
            transport_map = dict(transports)
            mirrored = loop.run_until_complete(
                mirror_state(transport_map, built.cluster)
            )
        coordinator.transports.update(transport_map)
        if ops is None:
            streams = spawn_rngs(make_rng(spec.seed), _NUM_STREAMS)
            ops = _make_workload(spec, built.num_blocks, streams[1])
        wire_before = _wire_totals(transport_map.values())
        started = time.perf_counter()
        tally = loop.run_until_complete(
            _drive(
                built.engine,
                coordinator,
                ops,
                clients=scenario.clients,
                think_time=scenario.think_time,
                block_length=spec.workload.block_length,
                horizon=scenario.horizon,
            )
        )
        loop.run_until_complete(coordinator.drain())
        duration = time.perf_counter() - started
        tally.messages = coordinator.messages
        tally.timeouts = coordinator.timeouts
        tally.retries = coordinator.retries
        tally.max_in_flight = coordinator.max_in_flight
        tally.round_messages = coordinator.round_messages.copy()
        attempted = tally.reads_attempted + tally.writes_attempted
        return {
            "transport": tspec.to_dict(),
            "remote": transports is not None,
            "mirrored_records": mirrored,
            "clients": scenario.clients,
            "think_time": scenario.think_time,
            "ops_submitted": attempted,
            "wall_duration": duration,
            "throughput": attempted / duration if duration > 0 else 0.0,
            "summary": tally.summary(),
            "operation_latency": tally.operation_percentiles(),
            "wire": _wire_report(
                spec,
                wire_before,
                _wire_totals(transport_map.values()),
                attempted,
                tally,
            ),
        }
    finally:
        coordinator = holder.get("coordinator")
        if coordinator is not None:
            with contextlib.suppress(Exception):
                loop.run_until_complete(coordinator.aclose())
        if group is not None:
            with contextlib.suppress(Exception):
                loop.run_until_complete(group.aclose())
        loop.close()
