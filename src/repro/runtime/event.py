"""Event-driven execution path: real messages on the discrete-event engine.

The session layer turns every :class:`~repro.runtime.rounds.Request` into
scheduled message deliveries on a :class:`~repro.cluster.events.Simulator`:

* **send** — the request leg is scheduled at ``now + sampled latency``;
  a per-attempt timeout timer is armed at ``now + policy.timeout``;
* **deliver** — at delivery time the destination is re-checked: a
  *partitioned* node silently drops the message (only the timeout will
  resolve it), a *failed* node refuses delivery (an error reply travels
  back — fast failure, like a connection reset), a healthy node executes
  the RPC and its reply (value or caught application error, e.g. a
  version-guard rejection) travels back after another sampled leg;
* **reply** — the reply leg is itself dropped if the partition cuts the
  node off while it is in flight; otherwise it resolves the attempt,
  cancels the timeout and feeds the round's quorum wait;
* **timeout/retry** — a silent attempt is resent up to
  ``policy.retries`` times, then resolves as failed.

Because node state is only touched at delivery time, failures, repairs
and partitions scheduled on the same simulator genuinely interleave
*mid-operation* — the regime the latency/faultload scenarios measure.

Delivery is at-least-once under retries: a late original delivery after a
resend can execute twice. The node-side version guards (monotonic
``write_data``, the Algorithm-1 line-26 delta guard) turn duplicates into
``StaleNodeError`` rejections instead of double-applies.

Determinism: every latency sample comes from the coordinator's own RNG
stream and every tie in the event queue breaks by insertion order, so one
seed reproduces the exact event sequence; ``trace_hash()`` digests the
recorded message trace to assert that end to end.

The vectorized event core
-------------------------

This implementation is the struct-of-arrays rewrite of the original
per-object session layer (kept verbatim as ``ReferenceEventCoordinator``
in ``tests/runtime/reference_coordinator.py``, the oracle of the
lockstep suite beside it). The observable behaviour — trace bytes, RNG
stream, statistics, results — is bit-identical; only the bookkeeping
shape changed:

* **session slots** — per-round quorum bookkeeping lives in numpy arrays
  indexed by a pooled session slot (:class:`_SessionTable`): replies
  needed/seen/accepted, per-round message and outstanding-attempt
  counts. Slots recycle through a free-list instead of allocating a
  ``QuorumWait`` + round-state object pair per round. (For the trapezoid
  protocol a round *is* one level, so the accepted counter doubles as
  the per-level occupancy threshold check.)
* **waves, not attempts** — one :class:`_Wave` covers every attempt of a
  fan-out that was sent at the same instant, with one pooled flags list
  and *one* timeout timer on a :class:`~repro.cluster.events.MonotoneLane`
  (constant timeout delay ⇒ non-decreasing deadlines ⇒ O(1) deque
  push/cancel instead of heap traffic). Wave objects recycle through a
  free-list once no scheduled event references them.
* **batched legs** — all request legs of a wave draw their latencies in
  one sized RNG call (``LatencyModel.sample_links``, bit-identical to
  sequential scalar draws), and deliveries/replies sharing a timestamp
  are scheduled as one batch event (``Simulator.schedule_batch``) and
  handed to the coordinator in a single call. Same-timestamp deliveries
  to one queued node enter its :class:`NodeServiceQueue` through one
  ``push_many`` call. The engine only groups *globally consecutive*
  events, so foreign events (failures, other coordinators) interleave
  exactly as they would in the per-event loop.
* **lazy traces** — the trace records ``(now, kind, node, method,
  attempt)`` tuples and formats them only inside ``trace_hash()``;
  ``Request``/``Response`` carry ``__slots__``. Response objects escape
  into plan-visible ``RoundOutcome``s, so they are slot-compressed but
  deliberately *not* pooled (recycling them would alias state the
  protocol engines still hold).

Known measure-zero edge vs the reference path: a sampled one-way delay
*exactly* equal to ``policy.timeout`` can order differently against
other attempts' timeouts in the same round (single wave timer vs
interleaved per-attempt timers). No continuous latency model hits it.

Node service queues
-------------------

By default a delivered request executes instantly (zero service time) —
the node is an infinite server and concurrent coordinators never contend.
Attaching a :class:`NodeServiceQueue` per node (the ``queues`` mapping of
:class:`EventCoordinator`) turns each node into a single FIFO server:
a delivered request joins the node's backlog, waits for the requests
ahead of it, occupies the server for a sampled
:class:`~repro.cluster.node.ServiceTimeModel` service time, and only then
executes (against the node's *then-current* state) and sends its reply.
Because the queue object is shared by every coordinator targeting the
node, many shards genuinely contend and the runtime becomes a closed
queueing network — queue waits, not just wire latency, shape the
operation percentiles, and throughput saturates at the service capacity.
Timeouts keep running while a request is queued, so an overloaded node
produces genuine client-visible failures. Without queues the delivery
path is byte-for-byte the pre-queue behaviour (same RNG draws, same
event insertion order, same trace).
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from typing import Any, Callable, Mapping

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator, Timer
from repro.cluster.network import _payload_bytes
from repro.cluster.node import QueueStats, ServiceTimeModel, serve
from repro.cluster.rng import make_rng, spawn_rngs
from repro.errors import NodeUnavailableError, SimulationError
from repro.runtime.coordinator import OpHandle, Plan
from repro.runtime.rounds import (
    Request,
    Response,
    RetryPolicy,
    Round,
    RoundOutcome,
    _default_accept,
)

__all__ = ["EventCoordinator", "NodeServiceQueue", "make_service_queues"]


class NodeServiceQueue:
    """One node's FIFO service station on the discrete-event engine.

    Jobs (zero-argument callables — the coordinator's execute-and-reply
    continuations) are served one at a time in arrival order; each
    occupies the server for ``model.sample(rng)`` virtual seconds before
    it runs. The queue is owned by the shared substrate, not by any one
    coordinator, so every shard delivering to the node joins the same
    backlog. ``stats`` accumulates waits/service/backlog for the
    queueing-theory checks and the saturation reports.
    """

    def __init__(
        self,
        simulator: Simulator,
        node_id: int,
        model: ServiceTimeModel,
        rng=None,
    ) -> None:
        self.sim = simulator
        self.node_id = int(node_id)
        self.model = model
        self.rng = make_rng(rng)
        self.busy = False
        self.stats = QueueStats()
        self._pending: deque[tuple[float, Callable[[], None]]] = deque()

    def __len__(self) -> int:
        """Backlog including the job in service."""
        return len(self._pending) + (1 if self.busy else 0)

    def push(self, job: Callable[[], None]) -> None:
        """Enqueue one delivered request; serve immediately if idle."""
        self.stats.arrivals += 1
        self._pending.append((self.sim.now, job))
        self.stats.max_queue_len = max(self.stats.max_queue_len, len(self))
        if not self.busy:
            self._start_next()

    def push_many(self, jobs) -> None:
        """Enqueue a batch of same-timestamp deliveries in one call.

        Stat-identical to ``push`` per job: arrivals count each job, the
        backlog high-water mark is taken after the whole batch lands
        (identical, since the backlog only grows within the batch), and
        service starts — drawing the same RNG sequence — iff the server
        was idle.
        """
        now = self.sim.now
        pending = self._pending
        self.stats.arrivals += len(jobs)
        for job in jobs:
            pending.append((now, job))
        self.stats.max_queue_len = max(self.stats.max_queue_len, len(self))
        if not self.busy and pending:
            self._start_next()

    def _start_next(self) -> None:
        arrived, job = self._pending.popleft()
        self.busy = True
        self.stats.started += 1
        self.stats.total_wait += self.sim.now - arrived
        service = float(self.model.sample(self.rng))
        self.stats.total_service += service
        self.sim.schedule_in(service, lambda: self._finish(job))

    def _finish(self, job: Callable[[], None]) -> None:
        self.stats.served += 1
        job()
        self.busy = False
        if self._pending:
            self._start_next()


def make_service_queues(
    simulator: Simulator,
    num_nodes: int,
    model: ServiceTimeModel,
    rng=None,
) -> dict[int, NodeServiceQueue]:
    """One shared :class:`NodeServiceQueue` per node id.

    Each queue samples service times from its own child stream of
    ``rng``, so the schedule is independent of which coordinators happen
    to deliver to the node (per-node streams, the standard HPC practice).
    """
    rngs = spawn_rngs(make_rng(rng), num_nodes)
    return {
        i: NodeServiceQueue(simulator, i, model, rngs[i])
        for i in range(num_nodes)
    }


def _answer(nodes, stats, request: Request) -> Response:
    """One delivered request, answered against the node's current state.

    A failed node refuses: an error reply travels back immediately
    (connection reset), distinct from the silent partition drop. A live
    one answers through :func:`~repro.cluster.node.serve` as it serves
    the request, so messages that were queued or in flight when a node
    turned Byzantine are affected too.
    """
    node_id = request.node_id
    node = nodes[node_id]
    if not node.alive:
        node.stats.failed_rpcs += 1
        stats.rpc_failures += 1
        return Response(request, False, None, NodeUnavailableError(node_id))
    try:
        return Response(
            request, True, serve(node, request.method, request.args, request.kwargs)
        )
    except request.catches as exc:
        stats.rpc_failures += 1
        return Response(request, False, None, exc)


class _SessionTable:
    """Struct-of-arrays bookkeeping for in-flight rounds.

    One *slot* per in-flight round, recycled through ``free``. The numpy
    int arrays hold the quorum counters the per-object path kept in
    ``QuorumWait`` instances: replies needed (−1 encodes the gather-all
    ``need=None``), requests total, replies resolved/accepted (the
    per-level occupancy for trapezoid thresholds), messages attributed to
    the round, and unresolved attempts (the slot cannot recycle while a
    straggler attempt still points at it).
    """

    __slots__ = (
        "capacity",
        "need",
        "total",
        "resolved",
        "accepted",
        "messages",
        "attempts",
        "done",
        "started",
        "rounds",
        "responses",
        "accepted_of",
        "on_complete",
        "free",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.need = np.zeros(capacity, dtype=np.int64)
        self.total = np.zeros(capacity, dtype=np.int64)
        self.resolved = np.zeros(capacity, dtype=np.int64)
        self.accepted = np.zeros(capacity, dtype=np.int64)
        self.messages = np.zeros(capacity, dtype=np.int64)
        self.attempts = np.zeros(capacity, dtype=np.int64)
        self.done = np.zeros(capacity, dtype=bool)
        self.started = np.zeros(capacity, dtype=np.float64)
        self.rounds: list[Round | None] = [None] * capacity
        self.responses: list[list | None] = [None] * capacity
        self.accepted_of: list[list | None] = [None] * capacity
        self.on_complete: list = [None] * capacity
        self.free = list(range(capacity - 1, -1, -1))

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in (
            "need",
            "total",
            "resolved",
            "accepted",
            "messages",
            "attempts",
        ):
            grown = np.zeros(new, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        done = np.zeros(new, dtype=bool)
        done[:old] = self.done
        self.done = done
        started = np.zeros(new, dtype=np.float64)
        started[:old] = self.started
        self.started = started
        self.rounds.extend([None] * old)
        self.responses.extend([None] * old)
        self.accepted_of.extend([None] * old)
        self.on_complete.extend([None] * old)
        self.free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def alloc(self, round_: Round, now: float, on_complete) -> int:
        if not self.free:
            self._grow()
        slot = self.free.pop()
        need = round_.need
        self.need[slot] = -1 if need is None else need
        self.total[slot] = len(round_.requests)
        self.resolved[slot] = 0
        self.accepted[slot] = 0
        self.messages[slot] = 0
        self.attempts[slot] = 0
        self.done[slot] = False
        self.started[slot] = now
        self.rounds[slot] = round_
        self.responses[slot] = []
        self.accepted_of[slot] = []
        self.on_complete[slot] = on_complete
        return slot

    def release(self, slot: int) -> None:
        self.rounds[slot] = None
        self.responses[slot] = None
        self.accepted_of[slot] = None
        self.on_complete[slot] = None
        self.free.append(slot)


class _Wave:
    """All attempts of one fan-out sent at the same instant.

    Replaces the per-attempt ``_Attempt`` objects: one shared flags list,
    one live-count, one timeout timer for the whole wave. ``refs`` counts
    scheduled events (delivery/reply groups, queued serve jobs, the armed
    timer) still referencing the wave — it recycles through the
    coordinator's free-list only once ``live`` and ``refs`` both hit 0.
    A resend is its own single-request wave at ``number + 1``.
    """

    __slots__ = ("slot", "requests", "number", "resolved", "live", "refs", "timer")

    def __init__(self) -> None:
        self.slot = -1
        self.requests: list[Request] | None = None
        self.number = 0
        self.resolved: list[bool] = []
        self.live = 0
        self.refs = 0
        self.timer: Timer | None = None


class _WaveSet:
    """Drain set over waves, reporting per-attempt counts.

    API twin of :class:`~repro.runtime.drain.DrainSet` as the old
    per-attempt path used it: ``len`` is the number of unresolved
    *attempts* (summed over member waves), and ``cancel_all`` deadens
    them all, returning that count.
    """

    __slots__ = ("_waves",)

    def __init__(self) -> None:
        self._waves: dict[_Wave, None] = {}

    def add(self, wave: _Wave) -> None:
        self._waves[wave] = None

    def discard(self, wave: _Wave) -> None:
        self._waves.pop(wave, None)

    def __len__(self) -> int:
        return sum(wave.live for wave in self._waves)

    def __contains__(self, wave: _Wave) -> bool:
        return wave in self._waves

    def cancel_all(self) -> int:
        count = 0
        for wave in list(self._waves):
            count += wave.live
            resolved = wave.resolved
            for i in range(len(resolved)):
                resolved[i] = True
            wave.live = 0
            timer = wave.timer
            if timer is not None:
                timer.cancel()
                wave.timer = None
                wave.refs -= 1
            # No recycling here: in-flight delivery/reply groups may
            # still reference the wave; they drain via the resolved
            # flags and release it when their refs reach zero.
        self._waves.clear()
        return count


class EventCoordinator:
    """Run protocol plans as concurrent message sessions on a simulator.

    Parameters
    ----------
    cluster:
        The storage cluster (shared with any instant-path engines, e.g.
        an out-of-band anti-entropy service).
    simulator:
        The discrete-event loop; failure/repair/partition schedules on
        the same simulator interleave with in-flight operations.
    latency:
        Per-message-leg latency model. Defaults to the cluster network's
        model, falling back to :class:`~repro.cluster.network.FixedLatency`.
    rng:
        Seed or Generator for latency sampling (determinism boundary).
    policy:
        Timeout/retry policy applied to every request.
    record_trace:
        Keep the full message trace for ``trace_hash()`` (deterministic
        replay checks).
    queues:
        Optional node-id -> :class:`NodeServiceQueue` mapping. Deliveries
        to a queued node wait their FIFO turn and a sampled service time
        before executing; nodes absent from the mapping (or the default
        ``None``) serve instantly, byte-identically to the queue-free
        path. Share one mapping across every coordinator on the substrate
        so shards contend for the same servers.
    site:
        Where this coordinator sits for per-link latency models
        (``LatencyModel.sample_link``): a node id whose rack the
        coordinator shares, or ``None`` for an off-cluster client.
        Distribution-only models ignore it.
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
        queues: Mapping[int, NodeServiceQueue] | None = None,
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
        #: in-flight waves with live timeout timers (len() reports
        #: unresolved attempts — drain discipline shared with the async
        #: backend, see runtime/drain.py)
        self.outstanding = _WaveSet()
        #: trace entries are lazy (now, kind, node, method, attempt)
        #: tuples; ``trace_hash`` formats them
        self._trace: list[tuple] | None = [] if record_trace else None
        self._draining = False
        self._table = _SessionTable()
        self._wave_pool: list[_Wave] = []
        #: constant timeout delay ⇒ deadlines arm in non-decreasing
        #: order ⇒ one shared deque lane per distinct timeout value
        self._lane = simulator.monotone_lane(key=("timeout", self.policy.timeout))
        self._deliver_id = simulator.register_batch_handler(self._deliver_batch)
        self._reply_id = simulator.register_batch_handler(self._reply_batch)

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
        """Submit one plan and pump the simulator until it completes.

        Single-operation convenience (tests, path-equivalence checks).
        Must not be called from inside a simulator callback — concurrent
        clients submit() instead.
        """
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
        update = digest.update
        for now, kind, node, method, attempt in self._trace:
            update(
                f"{now!r} {kind} node={node} method={method} "
                f"attempt={attempt}\n".encode("ascii")
            )
        return digest.hexdigest()

    @property
    def trace_length(self) -> int:
        return len(self._trace) if self._trace is not None else 0

    def shutdown(self) -> int:
        """Cancel every outstanding attempt's timeout timer.

        Call when a coordinator is discarded mid-simulation (a finished
        sweep point, an aborted run): pending attempts are marked
        resolved and their armed timers cancelled, so the shared
        simulator's queues stop retaining dead sessions. Returns how
        many attempts were live. The coordinator stays usable —
        shutdown drains, it does not poison.
        """
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
        self.rounds_run += 1
        if not round_.requests:
            # Empty fan-out: complete on the spot (need=None is satisfied
            # vacuously, a threshold is not).
            outcome = RoundOutcome(
                round=round_,
                responses=[],
                accepted=[],
                satisfied=round_.need is None,
                elapsed=0.0,
                messages=0,
            )
            self.cluster.network.record_round(0.0)
            on_complete(outcome)
            return
        slot = self._table.alloc(round_, self.sim.now, on_complete)
        self._send_wave(slot, round_.requests, 0)

    def _complete(self, slot: int, satisfied: bool) -> None:
        table = self._table
        table.done[slot] = True
        round_ = table.rounds[slot]
        elapsed = self.sim.now - float(table.started[slot])
        outcome = RoundOutcome(
            round=round_,
            responses=list(table.responses[slot]),
            accepted=list(table.accepted_of[slot]),
            satisfied=satisfied,
            elapsed=elapsed,
            messages=int(table.messages[slot]),
        )
        self.cluster.network.record_round(elapsed)
        table.on_complete[slot](outcome)

    # ------------------------------------------------------------------ #
    # quorum bookkeeping (SoA mirror of rounds.QuorumWait.offer)
    # ------------------------------------------------------------------ #

    def _offer(self, slot: int, response: Response) -> bool:
        """Record one resolved response; True when the round completed."""
        table = self._table
        round_ = table.rounds[slot]
        table.responses[slot].append(response)
        table.resolved[slot] += 1
        accept = round_.accept
        ok = response.ok if accept is _default_accept else accept(response)
        if ok:
            table.accepted_of[slot].append(response)
            table.accepted[slot] += 1
        if not ok and round_.abort_on_reject:
            self._complete(slot, False)
            return True
        need = round_.need
        accepted = table.accepted[slot]
        if need is not None:
            if accepted >= need:
                self._complete(slot, True)
                return True
            if accepted + (table.total[slot] - table.resolved[slot]) < need:
                self._complete(slot, False)
                return True
        if table.resolved[slot] == table.total[slot]:
            self._complete(slot, need is None or accepted >= need)
            return True
        return False

    # ------------------------------------------------------------------ #
    # message session layer (wave-batched)
    # ------------------------------------------------------------------ #

    def _new_wave(self, slot: int, requests: list[Request], number: int) -> _Wave:
        pool = self._wave_pool
        wave = pool.pop() if pool else _Wave()
        wave.slot = slot
        wave.requests = requests
        wave.number = number
        wave.resolved = [False] * len(requests)
        wave.live = len(requests)
        wave.refs = 0
        wave.timer = None
        return wave

    def _maybe_recycle(self, wave: _Wave) -> None:
        if wave.live == 0 and wave.refs == 0:
            wave.requests = None
            wave.timer = None
            self._wave_pool.append(wave)

    def _send_wave(self, slot: int, requests: list[Request], number: int) -> None:
        sim = self.sim
        now = sim.now
        net = self.cluster.network
        stats = net.stats
        table = self._table
        trace = self._trace
        partitioned = net._partitioned
        by_kind = stats.by_kind
        n = len(requests)
        wave = self._new_wave(slot, requests, number)
        bytes_sent = 0
        if trace is None and not partitioned:
            # Hot path: no trace formatting, no partition filtering. The
            # inlined payload scan skips the per-request list allocation
            # of ``_payload_bytes``.
            for request in requests:
                by_kind[request.method] += 1
                for value in request.args:
                    if isinstance(value, np.ndarray):
                        bytes_sent += value.nbytes
                if request.kwargs:
                    for value in request.kwargs.values():
                        if isinstance(value, np.ndarray):
                            bytes_sent += value.nbytes
            send_ids = range(n)
        else:
            send_ids = []
            for idx, request in enumerate(requests):
                node_id = request.node_id
                if trace is not None:
                    trace.append((now, "send", node_id, request.method, number))
                by_kind[request.method] += 1
                bytes_sent += _payload_bytes(request.args, request.kwargs)
                if node_id in partitioned:
                    # Silent drop: only the timeout resolves this attempt.
                    stats.messages_dropped += 1
                    if trace is not None:
                        trace.append((now, "drop", node_id, request.method, number))
                else:
                    send_ids.append(idx)
        stats.messages += n
        stats.bytes_sent += bytes_sent
        self.round_messages[table.rounds[slot].kind] += n
        table.messages[slot] += n
        table.attempts[slot] += n
        wave.timer = self._lane.schedule_call(
            now + self.policy.timeout, self._timeout_wave, wave
        )
        wave.refs += 1
        self.outstanding.add(wave)
        if send_ids:
            if len(send_ids) == n:
                peers = [request.node_id for request in requests]
            else:
                peers = [requests[i].node_id for i in send_ids]
            delays = self.latency.sample_links(self.rng, self.site, peers)
            # sum() with a start value performs the same left-to-right
            # float adds as the per-message reference path.
            stats.total_message_delay = sum(delays, stats.total_message_delay)
            self._schedule_groups(wave, self._deliver_id, send_ids, None, delays, now)

    def _schedule_groups(
        self,
        wave: _Wave,
        handler_id: int,
        idxs: list[int],
        responses: list[Response] | None,
        delays: list[float],
        now: float,
    ) -> None:
        """Schedule one batch event per distinct arrival time.

        Requests sharing a timestamp keep their relative order inside
        the group; the round's event allocation is atomic, so no foreign
        event can order between members of one group (see the semantics
        note in ``tests/runtime/reference_coordinator.py``).
        """
        sim = self.sim
        first = delays[0]
        if delays.count(first) == len(delays):
            # Uniform arrival time (fixed latency, or a single request):
            # one batch event, no grouping dict. The caller's lists are
            # consumed here, never reused, so they ride along as-is.
            at = now + first
            if responses is None:
                sim.schedule_batch(at, handler_id, (wave, idxs))
            else:
                sim.schedule_batch(at, handler_id, (wave, idxs, responses))
            wave.refs += 1
            return
        groups: dict[float, list] = {}
        for pos, idx in enumerate(idxs):
            at = now + delays[pos]
            group = groups.get(at)
            if group is None:
                groups[at] = group = ([], [] if responses is not None else None)
            group[0].append(idx)
            if responses is not None:
                group[1].append(responses[pos])
        for at, (gidxs, gresps) in groups.items():
            if gresps is None:
                sim.schedule_batch(at, handler_id, (wave, gidxs))
            else:
                sim.schedule_batch(at, handler_id, (wave, gidxs, gresps))
            wave.refs += 1

    # -- delivery ------------------------------------------------------- #

    def _deliver_batch(self, payloads: list) -> None:
        for payload in payloads:
            self._deliver_group(payload[0], payload[1])

    def _deliver_group(self, wave: _Wave, idxs) -> None:
        wave.refs -= 1
        net = self.cluster.network
        stats = net.stats
        trace = self._trace
        resolved = wave.resolved
        queues = self.queues
        if trace is None and not net._partitioned and queues is None:
            # Hot path: every delivery lands and serves instantly.
            serve_now = [idx for idx in idxs if not resolved[idx]]
            if serve_now:
                self._serve_group(wave, serve_now)
            self._maybe_recycle(wave)
            return
        now = self.sim.now
        requests = wave.requests
        number = wave.number
        partitioned = net._partitioned
        serve_now: list[int] = []
        queued: dict[NodeServiceQueue, list] | None = None
        for idx in idxs:
            if resolved[idx]:
                continue  # timed out (and possibly resent) before arriving
            request = requests[idx]
            node_id = request.node_id
            if node_id in partitioned:
                # Partition raced the message: dropped on the wire.
                stats.messages_dropped += 1
                if trace is not None:
                    trace.append((now, "drop", node_id, request.method, number))
                continue
            if trace is not None:
                trace.append((now, "deliver", node_id, request.method, number))
            queue = None if queues is None else queues.get(node_id)
            if queue is None:
                serve_now.append(idx)
            else:
                # The request joins the node's FIFO backlog; it executes
                # once the server reaches it (queue wait + sampled
                # service time), against the node's then-current state.
                if queued is None:
                    queued = {}
                jobs = queued.get(queue)
                if jobs is None:
                    queued[queue] = jobs = []
                wave.refs += 1
                jobs.append(self._queued_job(wave, idx))
        if queued is not None:
            for queue, jobs in queued.items():
                queue.push_many(jobs)
        if serve_now:
            self._serve_group(wave, serve_now)
        self._maybe_recycle(wave)

    def _queued_job(self, wave: _Wave, idx: int) -> Callable[[], None]:
        return lambda: self._serve_queued(wave, idx)

    # -- service -------------------------------------------------------- #

    def _serve_group(self, wave: _Wave, idxs: list[int]) -> None:
        requests = wave.requests
        nodes = self.cluster.nodes
        stats = self.cluster.network.stats
        responses = [_answer(nodes, stats, requests[idx]) for idx in idxs]
        peers = [requests[idx].node_id for idx in idxs]
        delays = self.latency.sample_links(self.rng, self.site, peers)
        stats.total_message_delay = sum(delays, stats.total_message_delay)
        self._schedule_groups(
            wave, self._reply_id, idxs, responses, delays, self.sim.now
        )

    def _serve_queued(self, wave: _Wave, idx: int) -> None:
        # Runs when the node's FIFO server reaches the job. The RPC
        # executes even if the attempt has timed out meanwhile
        # (at-least-once delivery); the reply leg is then discarded on
        # arrival by the resolved flag.
        wave.refs -= 1
        request = wave.requests[idx]
        net = self.cluster.network
        response = _answer(self.cluster.nodes, net.stats, request)
        delay = self.latency.sample_link(self.rng, request.node_id, self.site)
        net.stats.total_message_delay += delay
        self.sim.schedule_batch(
            self.sim.now + delay, self._reply_id, (wave, (idx,), (response,))
        )
        wave.refs += 1

    # -- replies -------------------------------------------------------- #

    def _reply_batch(self, payloads: list) -> None:
        for payload in payloads:
            self._reply_group(payload[0], payload[1], payload[2])

    def _reply_group(self, wave: _Wave, idxs, responses) -> None:
        wave.refs -= 1
        table = self._table
        slot = wave.slot
        net = self.cluster.network
        stats = net.stats
        trace = self._trace
        resolved = wave.resolved
        partitioned = net._partitioned
        round_messages = self.round_messages
        done = bool(table.done[slot])
        if trace is None and not partitioned:
            # Hot path: every reply lands (no trace, no partitions). The
            # quorum counters are mirrored into plain-int locals for the
            # duration of the group — one numpy scalar read/write per
            # *group* instead of several per reply — and flushed back
            # before any completion callback can observe the table.
            fresh = 0    # unresolved attempts this group resolves
            offered = 0  # replies fed to the quorum wait (pre-done)
            loaded = flushed = abort = False
            need = acc = res = total = 0
            accept = resp_list = acc_list = None
            for pos, idx in enumerate(idxs):
                if resolved[idx]:
                    continue
                resolved[idx] = True
                fresh += 1
                if done:
                    continue  # straggler: traffic only
                if not loaded:
                    loaded = True
                    round_ = table.rounds[slot]
                    need = round_.need
                    accept = round_.accept
                    abort = round_.abort_on_reject
                    resp_list = table.responses[slot]
                    acc_list = table.accepted_of[slot]
                    res = int(table.resolved[slot])
                    acc = int(table.accepted[slot])
                    total = int(table.total[slot])
                response = responses[pos]
                offered += 1
                resp_list.append(response)
                res += 1
                ok = response.ok if accept is _default_accept else accept(response)
                if ok:
                    acc_list.append(response)
                    acc += 1
                # Completion logic of _offer over the mirrored locals.
                satisfied = None
                if not ok and abort:
                    satisfied = False
                elif need is not None:
                    if acc >= need:
                        satisfied = True
                    elif acc + (total - res) < need:
                        satisfied = False
                elif res == total:
                    satisfied = True
                if satisfied is not None:
                    table.resolved[slot] = res
                    table.accepted[slot] = acc
                    table.messages[slot] += offered
                    flushed = True
                    self._complete(slot, satisfied)
                    done = True
            if fresh:
                stats.messages += fresh
                # fresh > 0 ⇒ attempts[slot] > 0 ⇒ the slot is still
                # live, so the kind lookup is safe even post-completion.
                round_messages[table.rounds[slot].kind] += fresh
                wave.live -= fresh
                table.attempts[slot] -= fresh
                if loaded and not flushed:
                    table.resolved[slot] = res
                    table.accepted[slot] = acc
                    table.messages[slot] += offered
                if done and table.attempts[slot] == 0:
                    table.release(slot)
        else:
            now = self.sim.now
            requests = wave.requests
            number = wave.number
            # The slot is guaranteed live (and still this wave's round)
            # while any of the wave's attempts is unresolved, so look the
            # kind up lazily at the first unresolved reply instead of
            # upfront — a fully-resolved straggler group may arrive after
            # slot release.
            kind: str | None = None
            for pos, idx in enumerate(idxs):
                if resolved[idx]:
                    continue
                request = requests[idx]
                node_id = request.node_id
                if node_id in partitioned:
                    # The reply leg is cut too: the coordinator hears
                    # nothing.
                    stats.messages_dropped += 1
                    if trace is not None:
                        trace.append(
                            (now, "drop-reply", node_id, request.method, number)
                        )
                    continue
                if trace is not None:
                    trace.append((now, "reply", node_id, request.method, number))
                stats.messages += 1
                if kind is None:
                    kind = table.rounds[slot].kind
                round_messages[kind] += 1
                resolved[idx] = True
                wave.live -= 1
                table.attempts[slot] -= 1
                if not done:
                    table.messages[slot] += 1
                    done = self._offer(slot, responses[pos])
                # else: straggler — traffic only, the round completed
                if done and table.attempts[slot] == 0:
                    table.release(slot)
        if wave.live == 0:
            self.outstanding.discard(wave)
            timer = wave.timer
            if timer is not None:
                timer.cancel()
                wave.timer = None
                wave.refs -= 1
        self._maybe_recycle(wave)

    # -- timeouts ------------------------------------------------------- #

    def _timeout_wave(self, wave: _Wave) -> None:
        wave.refs -= 1
        wave.timer = None
        if wave.live == 0:
            self._maybe_recycle(wave)
            return
        table = self._table
        slot = wave.slot
        net = self.cluster.network
        stats = net.stats
        trace = self._trace
        now = self.sim.now
        requests = wave.requests
        resolved = wave.resolved
        number = wave.number
        retries = self.policy.retries
        done = bool(table.done[slot])
        for idx in range(len(requests)):
            if resolved[idx]:
                continue
            request = requests[idx]
            resolved[idx] = True
            wave.live -= 1
            table.attempts[slot] -= 1
            if done:
                # The round completed without this attempt: drop it
                # quietly. Straggler *responses* keep flowing (they are
                # real traffic), but nothing retransmits on behalf of a
                # finished operation.
                if table.attempts[slot] == 0:
                    table.release(slot)
                continue
            stats.timeouts += 1
            if trace is not None:
                trace.append((now, "timeout", request.node_id, request.method, number))
            if number < retries:
                stats.retries += 1
                self._send_wave(slot, [request], number + 1)
                continue
            response = Response(
                request=request,
                ok=False,
                error=NodeUnavailableError(request.node_id),
            )
            done = self._offer(slot, response)
            if done and table.attempts[slot] == 0:
                table.release(slot)
        self.outstanding.discard(wave)
        self._maybe_recycle(wave)
