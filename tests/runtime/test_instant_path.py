"""The instant path's per-round dispatch against the per-request loop.

``InstantCoordinator.run_round`` looks up nodes, counters and the round's
policy once per round, calls ``Network.rpc`` directly and counts the
round's messages with one difference. The loop it replaced — one
``Cluster.rpc`` per request with a ``stats.messages`` difference around
each — is kept here as the oracle: both coordinators drive the same
operations on identically built systems, through dead, partitioned and
lying nodes and a sampled latency model, and every observable must agree.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemSpec, build_system, protocol_names
from repro.cluster.node import ByzantineBehavior
from repro.cluster.network import UniformLatency
from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError
from repro.runtime import InstantCoordinator
from repro.runtime.rounds import Request, Response, Round, RoundOutcome

N, K = 9, 6
BLOCK = 16
SPEC = SystemSpec.trapezoid(N, K, 2, 1, 1, 2, seed=5)


class PerRequestCoordinator(InstantCoordinator):
    """The loop ``run_round`` replaced, verbatim."""

    def run_round(self, round_):
        network = self.cluster.network
        outcome = RoundOutcome(round=round_)
        max_delay = 0.0
        for request in round_.requests:
            before = network.stats.messages
            try:
                value = self.cluster.rpc(
                    request.node_id, request.method, *request.args, **request.kwargs
                )
                response = Response(request=request, ok=True, value=value)
            except request.catches as exc:
                response = Response(request=request, ok=False, error=exc)
            outcome.messages += network.stats.messages - before
            max_delay = max(max_delay, network.last_rpc_delay)
            outcome.responses.append(response)
            accepted = round_.accept(response)
            if accepted:
                outcome.accepted.append(response)
            elif round_.abort_on_reject:
                break
            if (
                round_.need is not None
                and not round_.send_all
                and len(outcome.accepted) == round_.need
            ):
                break
        outcome.satisfied = (
            round_.need is None or len(outcome.accepted) >= round_.need
        ) and not (
            round_.abort_on_reject and len(outcome.accepted) < len(outcome.responses)
        )
        outcome.elapsed = max_delay
        network.record_round(max_delay)
        self.rounds_run += 1
        self.round_messages[round_.kind] += outcome.messages
        return outcome


def build(protocol: str, factory):
    built = build_system(SPEC.replace(protocol=protocol), coordinator_factory=factory)
    built.cluster.network.latency = UniformLatency(0.0005, 0.002)
    built.cluster.network.rng = make_rng(3)
    built.cluster.nodes[7].set_byzantine(ByzantineBehavior("mixed", 0.3, make_rng(4)))
    data = make_rng(7).integers(0, 256, size=(K, BLOCK), dtype=np.int64).astype(np.uint8)
    built.initialize(data)
    return built


def observables(built) -> dict:
    stats = asdict(built.cluster.network.stats)
    stats["by_kind"] = dict(stats["by_kind"])
    return {
        "network": stats,
        "round_messages": dict(built.engine.coordinator.round_messages),
        "rounds_run": built.engine.coordinator.rounds_run,
        "nodes": [asdict(node.stats) for node in built.cluster.nodes],
    }


def result_fields(result) -> dict:
    fields = {name: getattr(result, name) for name in result.__dataclass_fields__}
    value = fields.get("value")
    if value is not None:
        fields["value"] = value.tobytes()
    return fields


steps = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "fail", "recover", "partition", "heal"]),
        st.integers(0, N - 1),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("protocol", protocol_names())
@settings(max_examples=20, deadline=None)
@given(steps=steps)
def test_run_round_matches_per_request_loop(protocol, steps):
    fast = build(protocol, InstantCoordinator)
    slow = build(protocol, PerRequestCoordinator)
    assert type(fast.engine.coordinator) is InstantCoordinator
    assert type(slow.engine.coordinator) is PerRequestCoordinator
    for number, (op, target) in enumerate(steps):
        for built in (fast, slow):
            if op == "fail":
                built.cluster.fail(target)
            elif op == "recover":
                built.cluster.recover(target)
            elif op == "partition":
                built.cluster.network.partition([target])
            elif op == "heal":
                built.cluster.network.heal([target])
        if op in ("read", "write"):
            block = target % fast.num_blocks
            if op == "read":
                a, b = (x.engine.read_block(block) for x in (fast, slow))
            else:
                value = make_rng(100 + number).integers(0, 256, BLOCK).astype(np.uint8)
                a, b = (x.engine.write_block(block, value) for x in (fast, slow))
            # outcome.messages of every round folds into result.messages,
            # latency is the sum of the rounds' max-of-parallel delays
            assert result_fields(a) == result_fields(b)
        assert observables(fast) == observables(slow)


@pytest.mark.parametrize("factory", [InstantCoordinator, PerRequestCoordinator])
@pytest.mark.parametrize("node_id", [-1, N, N + 5])
def test_bad_node_id_is_a_configuration_error(factory, node_id):
    # Cluster.node's bounds check survives the direct node-table lookup:
    # no bare IndexError, and a negative id never wraps to another node.
    built = build("trap-erc", factory)
    before = observables(built)
    round_ = Round([Request(0, "keys"), Request(node_id, "keys")])
    with pytest.raises(ConfigurationError, match="node id"):
        built.engine.coordinator.run_round(round_)
    after = observables(built)
    # the good request before the bad one went out, nothing else moved
    assert after["network"]["messages"] == before["network"]["messages"] + 2
    assert after["rounds_run"] == before["rounds_run"]


@pytest.mark.parametrize("protocol", protocol_names())
def test_read_values_are_read_only_on_every_engine(protocol):
    built = build_system(SPEC.replace(protocol=protocol))
    data = make_rng(7).integers(0, 256, size=(K, BLOCK), dtype=np.int64).astype(np.uint8)
    built.initialize(data)
    result = built.engine.read_block(2)
    assert result.success and np.array_equal(result.value, data[2])
    assert not result.value.flags.writeable
