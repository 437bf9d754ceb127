"""Static rounds are shared safely between concurrent operations.

A TRAP engine builds the rounds that never change for a block — its
version polls, Case 1's direct reads, the decode gathers — once, and
every operation on that block yields the same objects.
Eight event-path clients hammer one block under lognormal latency with
short timeouts and retries while its home node fails and recovers, so
operations overlap in every round kind and resend from shared rounds.
The results and the message trace are pinned to literals recorded before
the rounds were shared, re-pinned once when Case 1 of a read became one
``read_data`` round, and once when N_i's level-0 poll became that read.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster, Simulator
from repro.cluster.network import LognormalLatency, Network
from repro.core import TrapErcProtocol, TrapFrProtocol
from repro.erasure import MDSCode, StripeLayout
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.runtime import PAYLOAD_ROUND, WRITE_ROUND, EventCoordinator, RetryPolicy
from repro.runtime.verify import METADATA_ROUND, BlockVerifier, MetadataQuorum

N, K, L = 9, 6, 16
CLIENTS, OPS = 8, 12
BLOCK = 2
META_NODES = tuple(range(N, N + 4))

#: engine -> (sha256 over every operation's outcome, trace hash)
PINNED = {
    "trap-erc": (
        "77d4365d2eab28aaa8cfd80b4ac92e56d4f2c11ab17e50131308c757b284dc98",
        "90e66731ceedb74719abc88532d29f8705f499f13223923ef3eea47fce59fc34",
    ),
    "trap-erc-verified": (
        "866f66a14921d5569cf1658d5fc1dd4c4e4951da5951888a0865adba6ec20cb2",
        "490a6908ca5cc43291f71040537f7e8729d555fd9bfd8b2a913707517dfd6c00",
    ),
}


def _spy(plan, seen: list):
    """``plan``, unchanged, appending every round it yields to ``seen``."""
    outcome = None
    while True:
        try:
            round_ = plan.send(outcome)
        except StopIteration as stop:
            return stop.value
        seen.append(round_)
        outcome = yield round_


def run_clients(verified: bool):
    """``(engine, coordinator, rounds yielded, outcome digest, outcomes)``."""
    cluster = Cluster(N + len(META_NODES) if verified else N,
                      network=Network(latency=LognormalLatency()))
    sim = Simulator()
    coordinator = EventCoordinator(
        cluster, sim, rng=11, policy=RetryPolicy(timeout=0.006, retries=2),
        record_trace=True,
    )
    verifier = (
        BlockVerifier(cluster, MetadataQuorum(META_NODES, 3, 3, f=1),
                      namespace="shared", signed=True)
        if verified else None
    )
    engine = TrapErcProtocol(
        cluster, MDSCode(N, K), TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2),
        layout=StripeLayout(N, K, tuple((b + 4) % N for b in range(N))),
        stripe_id="shared", coordinator=coordinator, verifier=verifier,
    )
    rng = np.random.default_rng(3)
    engine.initialize(rng.integers(0, 256, size=(K, L)).astype(np.uint8))
    cluster.reset_stats()
    home = engine.layout.node_of_block(BLOCK)
    sim.schedule_at(0.02, lambda: cluster.fail(home))
    sim.schedule_at(0.05, lambda: cluster.recover(home))

    seen: list = []
    outcomes: list[tuple] = []
    tape = rng.random((CLIENTS, OPS)) < 0.5

    def client(c: int, j: int) -> None:
        if j == OPS:
            return
        if tape[c, j]:
            plan = engine.read_plan(BLOCK)
        else:
            value = np.full(L, 16 * c + j, dtype=np.uint8)
            plan = engine.write_plan(BLOCK, value)

        def done(result) -> None:
            value = getattr(result, "value", None)
            outcomes.append((
                c, j, type(result).__name__, result.success, result.version,
                str(getattr(result, "case", None)), result.messages, result.reason,
                None if value is None else value.tobytes().hex(),
                repr(result.latency),
            ))
            client(c, j + 1)

        coordinator.submit(_spy(plan, seen), done)

    for c in range(CLIENTS):
        client(c, 0)
    sim.run()
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    return engine, coordinator, seen, digest, outcomes


@pytest.fixture(scope="module", params=list(PINNED))
def run(request):
    return request.param, run_clients(request.param.endswith("verified"))


def test_concurrent_clients_replay_the_pinned_run(run):
    name, (_, coordinator, _, digest, outcomes) = run
    stats = coordinator.cluster.network.stats
    assert len(outcomes) == CLIENTS * OPS
    assert stats.retries > 0 and stats.timeouts > 0
    assert (digest, coordinator.trace_hash()) == PINNED[name]


def _static_rounds(engine) -> tuple:
    return (*engine._polls[BLOCK], engine._direct[BLOCK], *engine._gathers[BLOCK])


def test_every_fixed_round_is_the_engines_own_object(run):
    _, (engine, _, seen, _, _) = run
    static = _static_rounds(engine)
    shared = 0
    for round_ in seen:
        if round_.kind in (WRITE_ROUND, METADATA_ROUND):
            continue  # built per operation
        assert any(round_ is fixed for fixed in static), round_.kind
        shared += 1
    assert shared > 10 * len(static)


def test_fixed_rounds_cannot_be_mutated(run):
    _, (engine, *_) = run
    for round_ in _static_rounds(engine):
        assert isinstance(round_.requests, tuple)
        with pytest.raises(TypeError):
            round_.requests[0] = round_.requests[0]
        with pytest.raises(AttributeError):
            round_.requests.append(round_.requests[0])
        with pytest.raises(AttributeError):  # Request is frozen
            round_.requests[0].node_id = -1


def _yielded(engine, op, block):
    """The rounds one instant-path operation yields, in order."""
    seen: list = []
    plan = engine.read_plan(block) if op == "read" else engine.write_plan(
        block, np.full(L, 9, dtype=np.uint8)
    )
    engine.coordinator.execute(_spy(plan, seen))
    return seen


#: engine -> (build(cluster), round kinds that carry per-operation data)
ENGINES = {
    "trap-erc": (
        lambda c: TrapErcProtocol(
            c, MDSCode(N, K), TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        ),
        {WRITE_ROUND},
    ),
    # the payload round goes to the replicas that hold the polled version
    "trap-fr": (
        lambda c: TrapFrProtocol(
            c, N, K, TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        ),
        {WRITE_ROUND, PAYLOAD_ROUND},
    ),
}


@pytest.mark.parametrize("name", list(ENGINES))
def test_operations_share_every_fixed_round(name):
    build, per_op = ENGINES[name]
    engine = build(Cluster(N))
    engine.initialize(np.zeros((K, L), dtype=np.uint8))
    for op in ("read", "write"):
        first = _yielded(engine, op, 1)
        again = _yielded(engine, op, 1)
        assert [r.kind for r in first] == [r.kind for r in again]
        for before, after in zip(first, again):
            assert (before is after) == (before.kind not in per_op)
