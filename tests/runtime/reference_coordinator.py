"""Frozen per-object session layer: the pre-vectorization event path.

:class:`ReferenceEventCoordinator` is the per-message/per-object
implementation that :class:`~repro.runtime.event.EventCoordinator`
replaced when the hot loop moved to struct-of-arrays form (see
docs/PERFORMANCE.md, "The event core"). It is kept verbatim — one heap
entry and one closure per message leg, one :class:`_Attempt` object per
attempt, one :class:`~repro.runtime.rounds.QuorumWait` per round, eager
trace formatting — as the **lockstep oracle**: ``test_event_lockstep.py``
runs identical workloads through both coordinators and asserts values,
versions, message counts and ``trace_hash()`` match bit-for-bit (same
precedent as ``matmul_reference`` for the GF kernels and the seed
decode/optimize paths). It lives beside that suite, not in the
installed package; its last timing against the vectorized path (11.9x)
is recorded in docs/PERFORMANCE.md.

Semantics note: the two paths are event-for-event identical except on a
measure-zero edge — a message whose sampled one-way delay *exactly*
equals ``policy.timeout`` can order differently against other attempts'
timeouts in the same round (the vectorized path arms one wave timer
where this path arms per-attempt timers with interleaved sequence
numbers). No continuous latency model hits it, and a fixed model would
need ``delay == timeout``, which configs reject in practice.

Do not modify this module for performance; it is the oracle.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Callable, Mapping

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator, Timer
from repro.cluster.network import _payload_bytes
from repro.cluster.node import serve
from repro.cluster.rng import make_rng
from repro.errors import NodeUnavailableError, SimulationError
from repro.runtime.coordinator import OpHandle, Plan
from repro.runtime.drain import DrainSet
from repro.runtime.rounds import (
    QuorumWait,
    Request,
    Response,
    RetryPolicy,
    Round,
    RoundOutcome,
)

__all__ = ["ReferenceEventCoordinator"]


class _Attempt:
    """One in-flight request attempt (send leg + reply leg + timeout)."""

    __slots__ = ("request", "number", "resolved", "timer")

    def __init__(self, request: Request, number: int) -> None:
        self.request = request
        self.number = number
        self.resolved = False
        self.timer: Timer | None = None


class _RoundState:
    """Bookkeeping of one in-flight round."""

    __slots__ = ("round", "wait", "started_at", "messages", "on_complete")

    def __init__(self, round_: Round, started_at: float, on_complete) -> None:
        self.round = round_
        self.wait = QuorumWait(round_)
        self.started_at = started_at
        self.messages = 0
        self.on_complete = on_complete


class ReferenceEventCoordinator:
    """Per-object reference implementation of the event session layer.

    Drop-in API twin of :class:`~repro.runtime.event.EventCoordinator`
    (same constructor, same ``submit``/``execute``/``trace_hash``/
    ``shutdown`` surface); see that class for parameter docs.
    """

    mode = "event"

    def __init__(
        self,
        cluster: Cluster,
        simulator: Simulator,
        *,
        latency=None,
        rng=None,
        policy: RetryPolicy | None = None,
        record_trace: bool = False,
        queues: Mapping[int, Any] | None = None,
        site: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.sim = simulator
        if latency is None:
            latency = cluster.network.latency
        if latency is None:
            from repro.cluster.network import FixedLatency

            latency = FixedLatency()
        self.latency = latency
        self.rng = make_rng(rng)
        self.policy = policy if policy is not None else RetryPolicy()
        self.queues = queues
        self.site = site
        self.in_flight = 0
        self.max_in_flight = 0
        self.ops_completed = 0
        self.rounds_run = 0
        self.round_messages: Counter = Counter()
        self.outstanding = DrainSet()
        self._trace: list[str] | None = [] if record_trace else None
        self._draining = False

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def submit(self, plan: Plan, on_done: Callable[[Any], None] | None = None) -> OpHandle:
        """Start a plan; it completes asynchronously as the sim advances."""
        handle = OpHandle(started_at=self.sim.now)
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self._advance(plan, handle, on_done, None)
        return handle

    def execute(self, plan: Plan) -> Any:
        """Submit one plan and pump the simulator until it completes."""
        if self._draining:
            raise SimulationError(
                "re-entrant EventCoordinator.execute(); use submit() from "
                "simulator callbacks"
            )
        handle = self.submit(plan)
        self._draining = True
        try:
            while not handle.done:
                if not self.sim.step():
                    raise SimulationError(
                        "event queue drained before the operation completed"
                    )
        finally:
            self._draining = False
        return handle.result

    def trace_hash(self) -> str:
        """SHA-256 over the recorded message trace (determinism check)."""
        if self._trace is None:
            raise SimulationError("trace recording is off (record_trace=False)")
        digest = hashlib.sha256()
        for line in self._trace:
            digest.update(line.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()

    @property
    def trace_length(self) -> int:
        return len(self._trace) if self._trace is not None else 0

    def shutdown(self) -> int:
        """Cancel every outstanding attempt's timeout timer."""
        return self.outstanding.cancel_all()

    # ------------------------------------------------------------------ #
    # plan driving
    # ------------------------------------------------------------------ #

    def _advance(self, plan: Plan, handle: OpHandle, on_done, outcome) -> None:
        try:
            round_ = plan.send(outcome)
        except StopIteration as stop:
            handle.result = stop.value
            handle.finished_at = self.sim.now
            handle.done = True
            self.in_flight -= 1
            self.ops_completed += 1
            if hasattr(handle.result, "latency"):
                handle.result.latency = handle.finished_at - handle.started_at
            if on_done is not None:
                on_done(handle.result)
            return
        self._start_round(
            round_,
            lambda outcome: self._advance(plan, handle, on_done, outcome),
        )

    def _start_round(self, round_: Round, on_complete) -> None:
        state = _RoundState(round_, self.sim.now, on_complete)
        self.rounds_run += 1
        if not round_.requests:
            self._complete(state)
            return
        for request in round_.requests:
            self._send(state, _Attempt(request, 0))

    def _complete(self, state: _RoundState) -> None:
        wait = state.wait
        wait.done = True  # idempotent for the empty-round case
        outcome = RoundOutcome(
            round=state.round,
            responses=list(wait.responses),
            accepted=list(wait.accepted),
            satisfied=wait.satisfied or (state.round.need is None and not state.round.requests),
            elapsed=self.sim.now - state.started_at,
            messages=state.messages,
        )
        self.cluster.network.record_round(outcome.elapsed)
        state.on_complete(outcome)

    # ------------------------------------------------------------------ #
    # message session layer
    # ------------------------------------------------------------------ #

    def _record(self, kind: str, request: Request, attempt: int) -> None:
        if self._trace is not None:
            self._trace.append(
                f"{self.sim.now!r} {kind} node={request.node_id} "
                f"method={request.method} attempt={attempt}"
            )

    def _count_message(self, state: _RoundState) -> None:
        self.cluster.network.stats.messages += 1
        self.round_messages[state.round.kind] += 1
        if not state.wait.done:
            state.messages += 1

    def _send(self, state: _RoundState, attempt: _Attempt) -> None:
        net = self.cluster.network
        request = attempt.request
        self._record("send", request, attempt.number)
        self._count_message(state)
        net.stats.by_kind[request.method] += 1
        net.stats.bytes_sent += _payload_bytes(request.args, request.kwargs)
        attempt.timer = self.sim.schedule_in(
            self.policy.timeout, lambda: self._timeout(state, attempt)
        )
        self.outstanding.add(attempt, lambda: self._discard_attempt(attempt))
        if net.is_partitioned(request.node_id):
            # Silent drop: only the timeout resolves this attempt.
            net.stats.messages_dropped += 1
            self._record("drop", request, attempt.number)
            return
        delay = self.latency.sample_link(self.rng, self.site, request.node_id)
        net.stats.total_message_delay += delay
        self.sim.schedule_in(delay, lambda: self._deliver(state, attempt))

    def _deliver(self, state: _RoundState, attempt: _Attempt) -> None:
        if attempt.resolved:
            return  # timed out (and possibly resent) before arriving
        net = self.cluster.network
        request = attempt.request
        if net.is_partitioned(request.node_id):
            # Partition raced the message: dropped on the wire.
            net.stats.messages_dropped += 1
            self._record("drop", request, attempt.number)
            return
        self._record("deliver", request, attempt.number)
        queue = None if self.queues is None else self.queues.get(request.node_id)
        if queue is None:
            self._serve(state, attempt)
        else:
            queue.push(lambda: self._serve(state, attempt))

    def _serve(self, state: _RoundState, attempt: _Attempt) -> None:
        net = self.cluster.network
        request = attempt.request
        node = self.cluster.node(request.node_id)
        if not node.alive:
            # Fail-stop refusal: an error reply travels back immediately
            # (connection reset), distinct from the silent partition drop.
            node.stats.failed_rpcs += 1
            net.stats.rpc_failures += 1
            response = Response(
                request=request, ok=False, error=NodeUnavailableError(request.node_id)
            )
        else:
            try:
                value = serve(node, request.method, request.args, request.kwargs)
                response = Response(request=request, ok=True, value=value)
            except request.catches as exc:
                net.stats.rpc_failures += 1
                response = Response(request=request, ok=False, error=exc)
        delay = self.latency.sample_link(self.rng, request.node_id, self.site)
        net.stats.total_message_delay += delay
        self.sim.schedule_in(delay, lambda: self._reply(state, attempt, response))

    def _reply(self, state: _RoundState, attempt: _Attempt, response: Response) -> None:
        if attempt.resolved:
            return
        net = self.cluster.network
        request = attempt.request
        if net.is_partitioned(request.node_id):
            # The reply leg is cut too: the coordinator hears nothing.
            net.stats.messages_dropped += 1
            self._record("drop-reply", request, attempt.number)
            return
        self._record("reply", request, attempt.number)
        self._count_message(state)
        self._resolve(state, attempt, response)

    def _discard_attempt(self, attempt: _Attempt) -> None:
        """Drain-path cancel: kill the timer, deaden the attempt."""
        attempt.resolved = True
        if attempt.timer is not None:
            attempt.timer.cancel()

    def _timeout(self, state: _RoundState, attempt: _Attempt) -> None:
        if attempt.resolved:
            return
        attempt.resolved = True  # the original attempt is dead to the op
        self.outstanding.discard(attempt)
        if state.wait.done:
            return
        net = self.cluster.network
        net.stats.timeouts += 1
        self._record("timeout", attempt.request, attempt.number)
        if attempt.number < self.policy.retries:
            net.stats.retries += 1
            self._send(state, _Attempt(attempt.request, attempt.number + 1))
            return
        response = Response(
            request=attempt.request,
            ok=False,
            error=NodeUnavailableError(attempt.request.node_id),
        )
        self._resolve(state, attempt, response, cancel_timer=False)

    def _resolve(
        self,
        state: _RoundState,
        attempt: _Attempt,
        response: Response,
        cancel_timer: bool = True,
    ) -> None:
        attempt.resolved = True
        self.outstanding.discard(attempt)
        if cancel_timer and attempt.timer is not None:
            attempt.timer.cancel()
        if state.wait.done:
            return  # straggler: traffic only, the round already completed
        if state.wait.offer(response):
            self._complete(state)
