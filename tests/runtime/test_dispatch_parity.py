"""Dispatch parity: every execution path answers through ``serve``.

One node, one scripted request sequence, four ways of delivering it —
``Network.rpc``, the event runtime unqueued and behind a service queue,
a live ``StorageNodeService`` — under each node condition: the replies
and the ``corrupted_replies`` / ``failed_rpcs`` / ``rpc_failures``
deltas must not depend on the path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, FixedLatency, FixedServiceTime, Simulator
from repro.cluster.node import ByzantineBehavior, MetadataByzantineBehavior
from repro.cluster.rng import make_rng
from repro.errors import NodeUnavailableError
from repro.runtime import EventCoordinator, Request, Round, make_service_queues
from repro.services import StorageNodeService

BLOCK = 8

#: the read-type RPCs a liar may corrupt around a write it may not
SCRIPT = (
    ("data_version", ("k",)),
    ("read_data", ("k",)),
    ("read_parity", ("p",)),
    ("parity_versions", ("p",)),
    ("write_data", ("k", np.full(BLOCK, 7, dtype=np.uint8), 9)),
    ("read_data", ("k",)),
)


def _cluster(condition: str) -> Cluster:
    cluster = Cluster(1)
    cluster.network.latency = FixedLatency(0.001)
    node = cluster.node(0)
    node.put_data("k", np.arange(BLOCK, dtype=np.uint8), 3)
    node.put_parity("p", np.arange(BLOCK, dtype=np.uint8)[::-1], np.array([3, 1]))
    cluster.reset_stats()
    if condition in ("storage-liar", "disarmed"):
        node.set_byzantine(ByzantineBehavior("mixed", 1.0, make_rng(4)))
    elif condition == "metadata-forger":
        behavior = MetadataByzantineBehavior("forge", 1.0, make_rng(5))
        behavior.prime(node)
        node.set_byzantine(behavior)
    elif condition == "dead":
        node.fail()
    if condition == "disarmed":
        node.clear_byzantine()
    return cluster


def _via_network(cluster: Cluster):
    replies = []
    for method, args in SCRIPT:
        try:
            replies.append(("ok", cluster.rpc(0, method, *args)))
        except NodeUnavailableError as exc:
            replies.append(("error", type(exc).__name__))
    return replies, cluster.network.stats.rpc_failures


def _via_event(cluster: Cluster, queued: bool):
    sim = Simulator()
    queues = (
        make_service_queues(sim, 1, FixedServiceTime(0.0005), rng=0) if queued else None
    )
    coordinator = EventCoordinator(cluster, sim, rng=0, queues=queues)
    replies = []
    for method, args in SCRIPT:

        def plan():
            return (yield Round([Request(0, method, args)]))

        (response,) = coordinator.execute(plan()).responses
        replies.append(
            ("ok", response.value)
            if response.ok
            else ("error", type(response.error).__name__)
        )
    return replies, cluster.network.stats.rpc_failures


def _via_service(cluster: Cluster):
    service = StorageNodeService(cluster.node(0))
    replies = []
    for serial, (method, args) in enumerate(SCRIPT):
        reply = service.dispatch({"id": serial, "method": method, "args": list(args)})
        replies.append(
            ("ok", reply["value"]) if reply["ok"] else ("error", reply["error"]["type"])
        )
    # no Network on this path: the service's own fault count stands in
    return replies, service.faults


PATHS = {
    "network-rpc": _via_network,
    "event": lambda cluster: _via_event(cluster, queued=False),
    "event-queued": lambda cluster: _via_event(cluster, queued=True),
    "service-dispatch": _via_service,
}


def _canonical(value):
    """Replies as plain comparable data (arrays -> lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    return value


def _observe(path: str, condition: str):
    cluster = _cluster(condition)
    replies, rpc_failures = PATHS[path](cluster)
    stats = cluster.node(0).stats
    return {
        "replies": _canonical(replies),
        "corrupted_replies": stats.corrupted_replies,
        "failed_rpcs": stats.failed_rpcs,
        "rpc_failures": rpc_failures,
    }


@pytest.mark.parametrize(
    "condition", ["honest", "storage-liar", "metadata-forger", "dead", "disarmed"]
)
@pytest.mark.parametrize("path", [p for p in PATHS if p != "network-rpc"])
def test_every_path_answers_like_network_rpc(path, condition):
    assert _observe(path, condition) == _observe("network-rpc", condition)


def test_the_conditions_are_distinguishable():
    """The parity above is not vacuous: each condition leaves its mark."""
    honest = _observe("network-rpc", "honest")
    assert honest["corrupted_replies"] == honest["failed_rpcs"] == 0
    assert honest["rpc_failures"] == 0
    assert all(kind == "ok" for kind, _ in honest["replies"])
    assert honest["replies"][-1] == ["ok", [[7] * BLOCK, 9]]  # the write landed
    assert _observe("network-rpc", "disarmed") == honest
    liar = _observe("network-rpc", "storage-liar")
    # at most one lie per read-type reply ("payload" spares version queries)
    assert 0 < liar["corrupted_replies"] <= 5
    assert liar["replies"] != honest["replies"]
    forger = _observe("network-rpc", "metadata-forger")
    assert forger["corrupted_replies"] == 3  # data_version + both read_data("k")
    assert forger["replies"][0] == ["ok", 4]
    dead = _observe("network-rpc", "dead")
    assert dead["failed_rpcs"] == dead["rpc_failures"] == len(SCRIPT)
    assert all(reply == ["error", "NodeUnavailableError"] for reply in dead["replies"])
