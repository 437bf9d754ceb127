"""Coordinator abstraction: one protocol plan, two execution paths.

A *plan* is a generator yielding :class:`~repro.runtime.rounds.Round`
objects and returning the operation's result object (``return`` inside
the generator). :class:`InstantCoordinator` — the default every engine
constructs when none is injected — replays rounds as the legacy
synchronous RPC loop, preserving the pre-runtime engines' RPC sequence,
message counts and results bit for bit. The event-driven counterpart
lives in :mod:`repro.runtime.event`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol, runtime_checkable

from repro.cluster.cluster import Cluster
from repro.runtime.rounds import Response, Round, RoundOutcome

__all__ = ["Plan", "OpHandle", "Coordinator", "InstantCoordinator"]

#: the protocol-plan generator type: yields rounds, receives outcomes
Plan = Generator[Round, RoundOutcome, Any]


@dataclass
class OpHandle:
    """One submitted operation: completion flag plus its result."""

    started_at: float = 0.0
    finished_at: float = 0.0
    done: bool = False
    result: Any = None


@runtime_checkable
class Coordinator(Protocol):
    """What an engine needs from an execution path.

    ``execute`` runs one plan to completion and returns its result;
    ``submit`` starts a plan and reports completion through ``on_done``
    (the event path interleaves many submitted plans; the instant path
    completes synchronously before returning).
    """

    mode: str

    def execute(self, plan: Plan) -> Any: ...

    def submit(self, plan: Plan, on_done: Callable[[Any], None] | None = None) -> OpHandle: ...


@dataclass
class InstantCoordinator:
    """The legacy synchronous path: every round is an inline RPC loop.

    Requests are issued sequentially in round order; a read round stops
    issuing at its quorum threshold (``need`` reached, ``send_all``
    False), a write round pushes to the whole fan-out and counts acks
    afterwards, and ``abort_on_reject`` stops at the first miss. This is
    exactly the control flow the engines used before the runtime
    refactor, so results and message counts are unchanged.

    Beyond replaying the legacy path it fixes the latency accounting:
    each round records its **max-of-parallel** sampled delay into
    ``network.stats.operation_latency`` (the old sum-of-messages counter
    survives as ``total_message_delay``).
    """

    cluster: Cluster
    mode: str = field(default="instant", init=False)
    rounds_run: int = field(default=0, init=False)
    round_messages: Counter = field(default_factory=Counter, init=False)

    def execute(self, plan: Plan) -> Any:
        outcome: RoundOutcome | None = None
        elapsed = 0.0
        while True:
            try:
                round_ = plan.send(outcome)  # first send(None) == next(plan)
            except StopIteration as stop:
                result = stop.value
                if hasattr(result, "latency"):
                    result.latency = elapsed
                return result
            outcome = self.run_round(round_)
            elapsed += outcome.elapsed

    def submit(self, plan: Plan, on_done: Callable[[Any], None] | None = None) -> OpHandle:
        result = self.execute(plan)
        handle = OpHandle(done=True, result=result)
        if on_done is not None:
            on_done(result)
        return handle

    # ------------------------------------------------------------------ #

    def run_round(self, round_: Round) -> RoundOutcome:
        # Whatever does not change inside a round is looked up once: the
        # node table, the fabric, the counters and the round's policy.
        network = self.cluster.network
        nodes = self.cluster.nodes
        num_nodes = len(nodes)
        rpc = network.rpc
        stats = network.stats
        accept = round_.accept
        abort_on_reject = round_.abort_on_reject
        # A read round stops issuing at this many accepted responses.
        stop_at = None if round_.send_all else round_.need
        responses: list[Response] = []
        accepted: list[Response] = []
        max_delay = 0.0
        # Only Network.rpc counts messages on this path, two per call,
        # so one difference over the round equals the per-request sum.
        messages_before = stats.messages
        for request in round_.requests:
            node_id = request.node_id
            if not 0 <= node_id < num_nodes:
                self.cluster.node(node_id)  # raises ConfigurationError
            try:
                value = rpc(nodes[node_id], request.method, request.args, request.kwargs)
                response = Response(request, True, value)
            except request.catches as exc:
                response = Response(request, False, None, exc)
            if network.last_rpc_delay > max_delay:
                max_delay = network.last_rpc_delay
            responses.append(response)
            if accept(response):
                accepted.append(response)
            elif abort_on_reject:
                break
            if len(accepted) == stop_at:
                break
        outcome = RoundOutcome(
            round=round_,
            responses=responses,
            accepted=accepted,
            satisfied=(round_.need is None or len(accepted) >= round_.need)
            and not (abort_on_reject and len(accepted) < len(responses)),
            elapsed=max_delay,
            messages=stats.messages - messages_before,
        )
        network.record_round(max_delay)
        self.rounds_run += 1
        self.round_messages[round_.kind] += outcome.messages
        return outcome
