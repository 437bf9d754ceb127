"""The trace is only a recording: ``record_trace`` changes nothing else.

The event core has one path; ``trace.append`` is the only thing a traced
run does that an untraced one does not. Same seed, trace on vs off, must
therefore give identical results, ``NetworkStats``, ``round_messages``,
per-operation latencies and node contents — under fail-stop churn, a
partition, FIFO service queues and Byzantine nodes alike.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.cluster import FixedServiceTime
from repro.runtime import EventCoordinator
from tests.runtime.closed_loop import build_closed_loop
from tests.runtime.test_event_lockstep import (
    HORIZON,
    LATENCIES,
    _apply_faultload,
    _make_engine,
    _node_digest,
)


def _untraced(cluster, simulator, **kwargs):
    kwargs["record_trace"] = False
    return EventCoordinator(cluster, simulator, **kwargs)


def _fingerprint(coordinator_cls, faultload, latency, service, shards):
    driver, router = build_closed_loop(
        11, 40, 4, 0.0, 0.5,
        shards=shards, horizon=HORIZON, retries=1,
        latency=LATENCIES[latency](),
        service=FixedServiceTime(0.0004) if service else None,
        coordinator_cls=coordinator_cls,
        make_engine=partial(_make_engine, "trap-erc"),
    )
    _apply_faultload(faultload, driver.sim, driver.cluster)
    tally = driver.run()
    stats = driver.cluster.network.stats
    coordinators = [shard.coordinator for shard in router.shards]
    return {
        "summary": tally.summary(),
        "read_latencies": list(tally.read_latencies),
        "write_latencies": list(tally.write_latencies),
        "committed": dict(driver._committed),
        "stats": {
            name: getattr(stats, name)
            for name in stats.__dataclass_fields__
            if name != "by_kind"
        },
        "by_kind": dict(stats.by_kind),
        "round_messages": dict(router.round_messages()),
        "rounds_run": router.rounds_run,
        "in_flight": [c.max_in_flight for c in coordinators],
        "nodes": _node_digest(driver.cluster),
        "events": driver.sim.processed,
        "virtual_now": driver.sim.now,
    }, sum(c.trace_length for c in coordinators)


@pytest.mark.parametrize(
    "faultload, latency, service, shards",
    [
        ("churn", "lognormal", False, 1),  # fail-stop
        ("partition", "fixed", False, 1),
        ("partition", "two_tier", False, 4),
        ("churn", "lognormal", True, 4),  # queued
        ("byzantine", "lognormal", False, 1),
    ],
)
def test_traced_and_untraced_runs_are_the_same_run(faultload, latency, service, shards):
    traced, recorded = _fingerprint(EventCoordinator, faultload, latency, service, shards)
    untraced, nothing = _fingerprint(_untraced, faultload, latency, service, shards)
    assert recorded > 0 and nothing == 0
    assert traced == untraced
