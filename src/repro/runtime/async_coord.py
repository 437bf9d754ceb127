"""Wall-clock coordinator: round plans on asyncio transports.

:class:`AsyncCoordinator` is the third execution path for the engines'
round plans. It mirrors the :class:`~repro.runtime.event.
EventCoordinator` send/deliver/reply lifecycle in *real* time: each
request is one ``transport.submit(...)`` future (in-process queue pair
or TCP — see :mod:`repro.services`) with one done-callback and one
``loop.call_later`` deadline that cancels it; a cancelled request is
resent per :class:`~repro.runtime.rounds.RetryPolicy` and, once the
attempts are spent, resolves as a :class:`NodeUnavailableError`
response. No task is created per request. A transport that reports the
node unreachable (refused connection, closed channel, a service
replying ``NodeUnavailableError``) fails the request immediately — the
dead-node RST path. Round completion runs through the same
:class:`~repro.runtime.rounds.QuorumWait` as the event path; stragglers
stay in the coordinator's ``outstanding`` set of futures and tasks
and are awaited by :meth:`drain` or cancelled by :meth:`aclose`. A
reply that arrives after its deadline is ignored (the node may still
have applied the request — at-least-once, as on the event path).

Message accounting mirrors the simulated paths: 2 messages (request +
reply) per resolved RPC, 1 for a send that times out unanswered.
Rounds with a threshold and ``send_all=False`` issue *quorum-first*:
the first ``need`` requests go out concurrently and further requests
are issued only as failures resolve, so a deterministic zero-latency
in-process run issues exactly the requests
:class:`~repro.runtime.coordinator.InstantCoordinator` would (the
equivalence property suite pins results *and* message counts).

The class lives in :mod:`repro.runtime` but depends only on asyncio and
the round primitives — transports are duck-typed (``submit(...) ->
Future``, ``await aclose()``), so the runtime layer never imports the
services subsystem.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import Counter
from functools import partial
from typing import Any, Callable

from repro.errors import NodeUnavailableError, SimulationError
from repro.runtime.coordinator import OpHandle, Plan
from repro.runtime.rounds import (
    QuorumWait,
    Request,
    Response,
    RetryPolicy,
    Round,
    RoundOutcome,
)

__all__ = ["AsyncCoordinator"]


class AsyncCoordinator:
    """Runs round plans against live node services on an event loop.

    ``transports`` maps node id → transport; it may be populated after
    construction (the wall-clock harness builds the coordinator first,
    starts services, then installs the transports). ``loop`` binds the
    coordinator to an externally owned event loop; without one a private
    loop is created on first synchronous :meth:`execute` and closed by
    :meth:`close`.
    """

    mode = "async"

    def __init__(
        self,
        transports: dict[int, Any] | None = None,
        *,
        policy: RetryPolicy | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.transports: dict[int, Any] = dict(transports or {})
        self.policy = policy if policy is not None else RetryPolicy()
        self.rounds_run = 0
        self.ops_completed = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.messages = 0
        self.timeouts = 0
        self.retries = 0
        self.round_messages: Counter = Counter()
        #: in-flight request futures and ``submit`` runner tasks; each
        #: leaves on completion, so ``len`` is the live in-flight count
        self.outstanding: set[asyncio.Future] = set()
        self.closed = False
        self._loop = loop
        self._owns_loop = False

    # ------------------------------------------------------------------ #
    # synchronous bridge (engines call read_block/write_block directly)

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._owns_loop = True
        return self._loop

    def execute(self, plan: Plan) -> Any:
        """Drive one plan to completion from synchronous code."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise SimulationError(
                "AsyncCoordinator.execute called from a running event loop; "
                "await execute_plan(plan) instead"
            )
        return self._ensure_loop().run_until_complete(self.execute_plan(plan))

    def submit(
        self, plan: Plan, on_done: Callable[[Any], None] | None = None
    ) -> OpHandle:
        """Start one plan; async context interleaves, sync completes now."""
        handle = OpHandle()

        async def runner():
            result = await self.execute_plan(plan)
            handle.done = True
            handle.result = result
            if on_done is not None:
                on_done(result)
            return result

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._ensure_loop().run_until_complete(runner())
        else:
            task = loop.create_task(runner())
            self.outstanding.add(task)
            task.add_done_callback(self.outstanding.discard)
        return handle

    def close(self) -> None:
        """Synchronous teardown: drain, close transports, release loop."""
        loop = self._loop
        if loop is None or loop.is_closed() or loop.is_running():
            return
        loop.run_until_complete(self.aclose())
        if self._owns_loop:
            loop.close()

    # ------------------------------------------------------------------ #
    # async core

    async def execute_plan(self, plan: Plan) -> Any:
        """Run one plan round by round; returns the plan's result."""
        if self.closed:
            raise SimulationError("AsyncCoordinator is closed")
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        outcome: RoundOutcome | None = None
        try:
            while True:
                try:
                    round_ = plan.send(outcome)  # first send(None) == next
                except StopIteration as stop:
                    result = stop.value
                    break
                outcome = await self.run_round(round_)
        finally:
            self.in_flight -= 1
        self.ops_completed += 1
        if hasattr(result, "latency"):
            result.latency = loop.time() - started
        return result

    async def run_round(self, round_: Round) -> RoundOutcome:
        """One fan-out round: issue, quorum-wait, widen on failures."""
        self.rounds_run += 1
        loop = asyncio.get_running_loop()
        started = loop.time()
        requests = round_.requests
        wait = QuorumWait(round_)
        if not requests:
            return RoundOutcome(round=round_, satisfied=round_.need is None)

        counted = 0

        def count() -> None:
            nonlocal counted
            self.messages += 1
            self.round_messages[round_.kind] += 1
            if not wait.done:
                counted += 1

        lazy = round_.need is not None and not round_.send_all
        policy = self.policy
        outstanding = self.outstanding
        next_ix = 0
        live = 0
        done_future = loop.create_future()

        def fail(exc: BaseException) -> None:
            if not done_future.done():
                done_future.set_exception(exc)

        def send(request: Request, attempt: int) -> None:
            transport = self.transports.get(request.node_id)
            if transport is None:
                fail(SimulationError(f"no transport for node {request.node_id}"))
                return
            count()  # the request leaves
            future = transport.submit(request.method, request.args, request.kwargs)
            deadline = loop.call_later(policy.timeout, future.cancel)
            outstanding.add(future)
            future.add_done_callback(partial(settled, request, attempt, deadline))

        def settled(request: Request, attempt: int, deadline, future) -> None:
            nonlocal live
            deadline.cancel()
            outstanding.discard(future)
            if future.cancelled():
                if self.closed:  # aclose(): the round ends with the coordinator
                    done_future.cancel()
                    return
                self.timeouts += 1
                if attempt < policy.retries:
                    self.retries += 1
                    send(request, attempt + 1)
                    return
                error = NodeUnavailableError(request.node_id)
                response = Response(request=request, ok=False, error=error)
            else:
                error = future.exception()
                if error is None:
                    response = Response(request=request, ok=True, value=future.result())
                elif isinstance(error, request.catches):
                    response = Response(request=request, ok=False, error=error)
                else:
                    fail(error)
                    return
                count()  # the reply (or error reply, or refusal) arrives
            live -= 1
            if wait.done or done_future.done():
                return  # straggler: background traffic only
            if wait.offer(response):
                if not done_future.done():
                    done_future.set_result(None)
            elif lazy:
                # widen exactly as the instant path would keep issuing
                while (
                    len(wait.accepted) + live < round_.need
                    and next_ix < len(requests)
                ):
                    issue_next()

        def issue_next() -> None:
            nonlocal next_ix, live
            request = requests[next_ix]
            next_ix += 1
            live += 1
            send(request, 0)

        initial = len(requests) if not lazy else min(round_.need, len(requests))
        while next_ix < initial:
            issue_next()
        await done_future
        return RoundOutcome(
            round=round_,
            responses=list(wait.responses),
            accepted=list(wait.accepted),
            satisfied=wait.satisfied,
            elapsed=loop.time() - started,
            messages=counted,
        )

    # ------------------------------------------------------------------ #
    # drain / shutdown

    async def drain(self) -> int:
        """Await every outstanding straggler, resends included; returns
        how many requests (and ``submit`` runners) were waited for."""
        waited = 0
        while self.outstanding:
            pending = list(self.outstanding)
            waited += len(pending)
            await asyncio.wait(pending)
        return waited

    async def aclose(self) -> None:
        """Cancel outstanding work and close every transport."""
        self.closed = True
        pending = list(self.outstanding)
        self.outstanding.clear()
        for item in pending:
            item.cancel()
        if pending:
            await asyncio.wait(pending)  # their done-callbacks have run
        for transport in self.transports.values():
            closer = getattr(transport, "aclose", None)
            if closer is not None:
                with contextlib.suppress(Exception):
                    await closer()
