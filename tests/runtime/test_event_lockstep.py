"""Lockstep equivalence: vectorized event core vs the frozen reference.

:class:`~repro.runtime.event.EventCoordinator` (struct-of-arrays session
table, batched deliveries, pooled waves) must replay
:class:`~tests.runtime.reference_coordinator.ReferenceEventCoordinator`
(the per-object pre-vectorization loop, kept verbatim as the oracle)
bit-for-bit: same values and versions, same message/timeout/drop
counters, same ``trace_hash``. Pinned here across all four protocols,
churn/partition/byzantine faultloads, and shards in {1, 4} — both as an
exhaustive deterministic grid and hypothesis-style over seeds, client
counts and latency models.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FixedLatency, FixedServiceTime
from repro.cluster.failures import exponential_trace
from repro.cluster.network import LognormalLatency, TwoTierLatency
from repro.cluster.node import ByzantineBehavior
from repro.cluster.rng import make_rng
from repro.core.replication import MajorityProtocol, RowaProtocol
from repro.core.trap_erc import TrapErcProtocol
from repro.core.trap_fr import TrapFrProtocol
from repro.runtime import EventCoordinator
from repro.sim import PartitionWindow, schedule_partitions, schedule_trace
from tests.runtime.closed_loop import K, N, build_closed_loop, quorum, shard_layout
from tests.runtime.reference_coordinator import ReferenceEventCoordinator

HORIZON = 60.0

PROTOCOLS = ("trap-erc", "trap-fr", "rowa", "majority")
FAULTLOADS = ("none", "churn", "partition", "byzantine")

LATENCIES = {
    "fixed": lambda: FixedLatency(0.001),
    "lognormal": lambda: LognormalLatency(),
    "two_tier": lambda: TwoTierLatency(
        local=0.0005, remote=0.004, rack_size=3, jitter=0.3
    ),
}


def _make_engine(protocol, cluster, code, coordinator, shard_index):
    layout = shard_layout(shard_index)
    stripe_id = f"lockstep-{shard_index}"
    if protocol == "trap-erc":
        return TrapErcProtocol(
            cluster, code, quorum(), layout=layout,
            stripe_id=stripe_id, coordinator=coordinator,
        )
    if protocol == "trap-fr":
        return TrapFrProtocol(
            cluster, N, K, quorum(), layout=layout,
            stripe_id=stripe_id, coordinator=coordinator,
        )
    cls = RowaProtocol if protocol == "rowa" else MajorityProtocol
    return cls(
        cluster, list(layout.consistency_group(0)), stripe_id,
        coordinator=coordinator,
    )


def _apply_faultload(kind, sim, cluster):
    if kind == "none":
        return
    if kind == "churn":
        trace = exponential_trace(
            N, mtbf=8.0, mttr=2.0, horizon=HORIZON, rng=make_rng(7)
        )
        schedule_trace(sim, cluster, trace, HORIZON)
    elif kind == "partition":
        windows = [
            PartitionWindow(0.02, 0.31, (0, 1)),
            PartitionWindow(0.45, 0.90, (4, 5, 6)),
            PartitionWindow(1.10, 2.00, (2,)),
        ]
        schedule_partitions(sim, cluster, windows, HORIZON)
    elif kind == "byzantine":
        cluster.node(2).set_byzantine(ByzantineBehavior("payload", 0.4, make_rng(11)))
        cluster.node(5).set_byzantine(ByzantineBehavior("stale", 0.4, make_rng(12)))
    else:  # pragma: no cover - guard against typo'd parametrization
        raise AssertionError(kind)


def _node_digest(cluster):
    """SHA-256 over every node's stored records (payloads + versions)."""
    digest = hashlib.sha256()
    for node in cluster.nodes:
        for key in sorted(node._data, key=repr):
            rec = node._data[key]
            digest.update(repr((node.node_id, key, rec.version)).encode())
            digest.update(np.ascontiguousarray(rec.payload).tobytes())
        for key in sorted(node._parity, key=repr):
            rec = node._parity[key]
            digest.update(repr((node.node_id, key)).encode())
            for name in rec.__dataclass_fields__:
                value = getattr(rec, name)
                if isinstance(value, np.ndarray):
                    digest.update(np.ascontiguousarray(value).tobytes())
                else:
                    digest.update(repr(value).encode())
    return digest.hexdigest()


def _run(coordinator_cls, protocol, faultload, shards, seed, clients,
         read_fraction, latency="fixed", service=False, retries=1):
    """One closed-loop run; returns the full observable fingerprint."""
    driver, router = build_closed_loop(
        seed, 30, clients, 0.0, read_fraction,
        shards=shards, horizon=HORIZON, retries=retries,
        latency=LATENCIES[latency](),
        service=FixedServiceTime(0.0004) if service else None,
        coordinator_cls=coordinator_cls,
        make_engine=partial(_make_engine, protocol),
    )
    cluster, sim, shard_objs = driver.cluster, driver.sim, router.shards
    _apply_faultload(faultload, sim, cluster)
    tally = driver.run()
    trace = router.trace_hash()
    stats = cluster.network.stats
    round_messages = sum(
        (shard.coordinator.round_messages for shard in shard_objs), start=type(
            shard_objs[0].coordinator.round_messages
        )()
    )
    return {
        "summary": tally.summary(),
        "read_latencies": list(tally.read_latencies),
        "write_latencies": list(tally.write_latencies),
        "committed": dict(driver._committed),
        "traffic": (
            stats.messages, stats.bytes_sent, stats.messages_dropped,
            stats.timeouts, stats.retries, stats.rpc_failures, stats.rounds,
        ),
        "delays": (stats.total_message_delay, stats.operation_latency),
        "by_kind": dict(stats.by_kind),
        "round_messages": dict(round_messages),
        "trace_hash": trace,
        "nodes": _node_digest(cluster),
        "virtual_now": sim.now,
    }


def _assert_lockstep(**kwargs):
    vectorized = _run(EventCoordinator, **kwargs)
    reference = _run(ReferenceEventCoordinator, **kwargs)
    assert vectorized == reference


class TestLockstepGrid:
    """Exhaustive deterministic grid: protocol x faultload x shards."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("faultload", FAULTLOADS)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_vectorized_matches_reference(self, protocol, faultload, shards):
        _assert_lockstep(
            protocol=protocol, faultload=faultload, shards=shards,
            seed=5, clients=3, read_fraction=0.5,
        )


class TestLockstepProperty:
    """Hypothesis sweep over seeds, clients, mixes and latency models."""

    @given(
        seed=st.integers(0, 2**16),
        clients=st.integers(1, 6),
        read_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        faultload=st.sampled_from(FAULTLOADS),
        shards=st.sampled_from([1, 4]),
        latency=st.sampled_from(sorted(LATENCIES)),
        protocol=st.sampled_from(PROTOCOLS),
    )
    @settings(max_examples=25, deadline=None)
    def test_fingerprints_identical(
        self, seed, clients, read_fraction, faultload, shards, latency, protocol
    ):
        _assert_lockstep(
            protocol=protocol, faultload=faultload, shards=shards, seed=seed,
            clients=clients, read_fraction=read_fraction, latency=latency,
        )

    @given(seed=st.integers(0, 2**12), retries=st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_queued_service_and_retries_identical(self, seed, retries):
        """Service queues (batched push_many) + retry ladder stay lockstep."""
        _assert_lockstep(
            protocol="trap-erc", faultload="churn", shards=4, seed=seed,
            clients=4, read_fraction=0.5, latency="lognormal",
            service=True, retries=retries,
        )
