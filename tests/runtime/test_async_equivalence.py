"""Property tests pinning AsyncCoordinator to the instant path.

The wall-clock backend's acceptance contract: over a zero-latency
in-process transport, all four protocol engines run their *unmodified*
round plans through :class:`AsyncCoordinator` and return exactly what
:class:`InstantCoordinator` returns — values, versions, result fields,
on-disk state, and per-kind message counts.

Message counts match because the async path issues quorum rounds
lazily: the first ``need`` requests go out concurrently and the round
widens one request per failure, reproducing the instant path's
sequential issue-until-threshold traffic. The one structural exemption
is ROWA's write round (``abort_on_reject`` + ``send_all``) under
failures: concurrent issues cannot be un-sent after the first reject,
so its message count may legitimately exceed the sequential loop's.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemSpec, build_system, protocol_names
from repro.cluster.rng import make_rng
from repro.runtime import AsyncCoordinator, RetryPolicy
from repro.services import ServiceGroup

N, K = 9, 6
BLOCK = 8
SPEC = SystemSpec.trapezoid(N, K, 2, 1, 1, 2, seed=5)
# generous timeout: inproc calls are microseconds, so retries never fire
# and the only failures are genuine error replies
POLICY = RetryPolicy(timeout=5.0, retries=0)


def build_pair(protocol: str):
    """One instant system + one async-over-inproc system, same init."""
    spec = SPEC.replace(protocol=protocol)
    instant = build_system(spec)
    loop = asyncio.new_event_loop()

    def factory(cluster):
        return AsyncCoordinator({}, policy=POLICY, loop=loop)

    live = build_system(spec, coordinator_factory=factory)
    group = ServiceGroup.for_cluster(live.cluster)  # inproc: nothing to start
    live.engine.coordinator.transports.update(group.make_transports())
    data = (
        make_rng(7)
        .integers(0, 256, size=(K, BLOCK), dtype=np.int64)
        .astype(np.uint8)
    )
    instant.initialize(data)
    live.initialize(data)
    return instant, live


def close_pair(live) -> None:
    """Tear down the live side, closing the loop :func:`build_pair` made
    (``AsyncCoordinator.close`` leaves a loop it was handed open)."""
    coordinator = live.engine.coordinator
    coordinator.close()
    coordinator._loop.close()


def drain(live) -> None:
    """Pump straggler replies (the instant path has none to wait for)."""
    coordinator = live.engine.coordinator
    coordinator._ensure_loop().run_until_complete(coordinator.drain())


def assert_read_equal(a, b):
    assert a.success == b.success
    assert a.version == b.version
    assert a.case == b.case
    assert a.check_level == b.check_level
    if a.success:
        assert np.array_equal(a.value, b.value)


def assert_write_equal(a, b):
    assert a.success == b.success
    assert a.version == b.version
    assert a.failed_level == b.failed_level


def node_state(cluster) -> dict:
    state = {}
    for node in cluster.nodes:
        records = {}
        for key, rec in node._data.items():
            records[key] = ("data", rec.payload.tobytes(), rec.version)
        for key, rec in node._parity.items():
            records[key] = ("parity", rec.payload.tobytes(), tuple(rec.versions))
        state[node.node_id] = records
    return state


def apply_alive(system, alive_ids):
    for node in system.cluster.nodes:
        if node.node_id in alive_ids and not node.alive:
            node.recover()
        elif node.node_id not in alive_ids and node.alive:
            node.fail()


alive_subsets = st.sets(st.integers(0, N - 1), max_size=N).map(
    lambda down: frozenset(range(N)) - down
)


def messages_comparable(protocol: str, alive) -> bool:
    """ROWA's abort_on_reject write fans out concurrently; under rejects
    (any dead replica) its traffic legitimately diverges."""
    return protocol != "rowa" or len(alive) == N


class TestAsyncInstantEquivalence:
    """Fresh synced state + one failure pattern: exact result equality."""

    @pytest.mark.parametrize("protocol", sorted(protocol_names()))
    @settings(max_examples=10, deadline=None)
    @given(alive=alive_subsets, block=st.integers(0, K - 1))
    def test_read_write_version_agree(self, protocol, alive, block):
        instant, live = build_pair(protocol)
        try:
            apply_alive(instant, alive)
            apply_alive(live, alive)

            assert_read_equal(
                instant.engine.read_block(block),
                live.engine.read_block(block),
            )
            value = np.full(BLOCK, 7, dtype=np.uint8)
            assert_write_equal(
                instant.engine.write_block(block, value),
                live.engine.write_block(block, value),
            )
            if hasattr(instant.engine, "latest_version"):
                assert instant.engine.latest_version(block) == live.engine.latest_version(block)
            drain(live)
            assert node_state(instant.cluster) == node_state(live.cluster)
            if messages_comparable(protocol, alive):
                assert (
                    instant.engine.coordinator.round_messages
                    == live.engine.coordinator.round_messages
                )
        finally:
            close_pair(live)


steps = st.lists(
    st.tuples(
        st.sets(st.integers(0, N - 1), max_size=3),  # down nodes
        st.booleans(),  # read?
        st.integers(0, K - 1),  # block
    ),
    min_size=1,
    max_size=5,
)

HISTORY_PROTOCOLS = ("trap-erc", "trap-fr", "rowa")
# majority excluded for the same reason as the event-path suite: its
# legacy read polls every replica for the global max version while a
# quorum-wait read legitimately stops at the majority threshold.


class TestAsyncHistoryEquivalence:
    """Multi-step histories with accumulated staleness stay in lockstep."""

    @pytest.mark.parametrize("protocol", HISTORY_PROTOCOLS)
    @settings(max_examples=8, deadline=None)
    @given(history=steps)
    def test_lockstep_history(self, protocol, history):
        instant, live = build_pair(protocol)
        try:
            version = 0
            for down, is_read, block in history:
                alive = frozenset(range(N)) - down
                apply_alive(instant, alive)
                apply_alive(live, alive)
                if is_read:
                    assert_read_equal(
                        instant.engine.read_block(block),
                        live.engine.read_block(block),
                    )
                else:
                    version += 1
                    value = np.full(BLOCK, version % 256, dtype=np.uint8)
                    assert_write_equal(
                        instant.engine.write_block(block, value),
                        live.engine.write_block(block, value),
                    )
                drain(live)
                assert node_state(instant.cluster) == node_state(live.cluster)
        finally:
            close_pair(live)
