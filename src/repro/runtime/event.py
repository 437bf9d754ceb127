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

The event core
--------------

The observable behaviour — trace bytes, RNG stream, statistics, results
— is pinned bit for bit by the per-object reference loop kept verbatim
as ``ReferenceEventCoordinator`` in
``tests/runtime/reference_coordinator.py`` (the oracle of the lockstep
suite beside it). The bookkeeping is shaped so that one simulated
message costs a heap pop, a node call, a :class:`Response` and a heap
push, in plain Python objects:

* **one object per round** — :class:`_RoundState` is the
  :class:`~repro.runtime.rounds.QuorumWait` every backend completes
  rounds with (plain ints and lists; the quorum arithmetic exists once)
  plus the round's start time, message count and the operation it
  belongs to. It is reachable only from its waves, so a finished or
  abandoned round is freed by reference counting — no slot table, no
  free-list, no straggler count. (An earlier struct-of-arrays table kept
  these counters in numpy arrays; they were only ever read and written
  one scalar at a time, and a numpy scalar read-modify-write costs
  several times a Python int's.)
* **waves, not attempts** — one :class:`_Wave` covers every attempt of a
  fan-out that was sent at the same instant, with one flags list and
  *one* timeout timer on a :class:`~repro.cluster.events.MonotoneLane`
  (constant timeout delay ⇒ non-decreasing deadlines ⇒ O(1) deque
  push/cancel instead of heap traffic).
* **one body per leg** — ``_deliver`` and ``_reply`` are the batch
  handlers of the two message legs; an event carries ``(wave, indices,
  requests)`` out and ``(wave, indices, responses)`` back. How many
  legs ride in one event is decided by the input alone (``_launch``):
  legs that all take the same time (a fan-out under a constant latency)
  travel as *one* heap entry per wave, legs with distinct arrival times
  — every leg under a continuous model — as one entry each, from the
  heap to ``_answer`` to the next heap push with no grouping dict in
  between. The engine only groups *globally consecutive* events, so
  foreign events (failures, other coordinators) interleave exactly as
  they would in a per-event loop.
* **block-drawn latencies** — every wave draws through the bound stream
  ``latency.stream(rng, site)``; distribution-only models serve it from
  512-draw blocks, stream-identical to scalar draws because the
  coordinator owns ``rng`` (see ``LatencyModel.stream``).
* **columnar traces** — a traced message costs two appends to one
  :class:`_TraceBuffer`: its time as a raw double and one integer code
  packing ``(kind, node, method, attempt)`` against the coordinator's
  ``(node, method)`` table. Each wave looks its requests up in that
  table once, so every later leg of an attempt reuses the wave's codes.
  16 B per entry at rest (~17 with the arrays' over-allocation) where
  a list of ``(now, kind, node, method, attempt)`` tuples holds ~107 B,
  and no float or tuple object is kept per entry. The
  buffer folds its lines into a running SHA-256 whenever it holds
  2^20 entries (16 MiB), so a traced run's memory is bounded however
  long it runs; ``trace_hash()`` folds the tail into a copy of that
  digest. The lines are formatted only there, byte-identical to the
  per-message reference, and the two appends are the only difference
  between a traced and an untraced run: there is one path.

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
from array import array
from collections import Counter, deque
from typing import Any, Callable, Mapping

from numpy import ndarray

from repro.cluster.cluster import Cluster
from repro.cluster.events import Simulator, Timer
from repro.cluster.network import FixedLatency
from repro.cluster.node import QueueStats, ServiceTimeModel, serve
from repro.cluster.rng import make_rng, spawn_rngs
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

__all__ = ["EventCoordinator", "NodeServiceQueue", "make_service_queues"]


class NodeServiceQueue:
    """One node's FIFO service station on the discrete-event engine.

    Jobs (``callback(*args)`` — the coordinator's execute-and-reply
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
        self._pending: deque[tuple[float, Callable[..., None], tuple]] = deque()

    def __len__(self) -> int:
        """Backlog including the job in service."""
        return len(self._pending) + (1 if self.busy else 0)

    def push(self, callback: Callable[..., None], *args) -> None:
        """Enqueue one delivered request; serve immediately if idle."""
        stats = self.stats
        stats.arrivals += 1
        self._pending.append((self.sim.now, callback, args))
        stats.max_queue_len = max(stats.max_queue_len, len(self))
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        arrived, callback, args = self._pending.popleft()
        sim = self.sim
        stats = self.stats
        self.busy = True
        stats.started += 1
        stats.total_wait += sim.now - arrived
        service = float(self.model.sample(self.rng))
        stats.total_service += service
        sim.schedule_call(sim.now + service, self._finish, callback, args)

    def _finish(self, callback: Callable[..., None], args: tuple) -> None:
        self.stats.served += 1
        callback(*args)
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


#: trace kinds, the low three bits of a trace code (a send is 0)
_DROP, _DELIVER, _REPLY, _DROP_REPLY, _TIMEOUT = range(1, 6)
_KINDS = ("send", "drop", "deliver", "reply", "drop-reply", "timeout")


class _TraceBuffer:
    """The message trace: columnar, folded into a running SHA-256.

    Entry ``i`` is ``times[i]`` (the virtual time, a raw double) and
    ``codes[i] = attempt << 32 | pair << 3 | kind``, where ``pair``
    (< 2^29) indexes the ``(node, method)`` table. It stands for the line
    ``f"{now!r} {kind} node={node} method={method} attempt={attempt}\\n"``,
    and the trace hash is the SHA-256 of all lines in order. When
    ``fold`` entries are buffered, the next wave formats them into the
    running digest and empties the buffer, so it never holds much more
    than ``fold`` entries.
    """

    __slots__ = ("times", "codes", "_pairs", "_texts", "_digest", "_folded")

    #: entries buffered before they fold into the digest (16 MiB)
    fold = 1 << 20
    #: entries formatted per digest update
    batch = 1 << 12

    def __init__(self) -> None:
        self.times = array("d")
        self.codes = array("q")
        self._pairs: dict[tuple[int, str], int] = {}
        #: code -> the line after its time, built when first folded
        self._texts: dict[int, str] = {}
        self._digest = hashlib.sha256()
        self._folded = 0

    def __len__(self) -> int:
        return self._folded + len(self.times)

    def wave(self, requests: list[Request], number: int) -> list[int]:
        """The kind-0 codes of a new wave's attempts; folds a full buffer."""
        if len(self.times) >= self.fold:
            self._folded += len(self.times)
            self._feed(self._digest)
            del self.times[:], self.codes[:]
        pairs = self._pairs
        base = number << 32
        codes = []
        for request in requests:
            key = (request.node_id, request.method)
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = len(pairs)
            codes.append(base | pair << 3)
        return codes

    def hexdigest(self) -> str:
        """The hash of every entry so far; the buffer is left as it is."""
        digest = self._digest.copy()
        self._feed(digest)
        return digest.hexdigest()

    def _feed(self, digest) -> None:
        times, codes, texts = self.times, self.codes, self._texts
        new = set(codes).difference(texts)
        if new:
            keys = list(self._pairs)
            for code in new:
                node, method = keys[code >> 3 & 0x1FFFFFFF]
                texts[code] = (
                    f" {_KINDS[code & 7]} node={node} method={method} "
                    f"attempt={code >> 32}\n"
                )
        for start in range(0, len(times), self.batch):
            stop = start + self.batch
            digest.update("".join([
                f"{now!r}{texts[code]}"
                for now, code in zip(times[start:stop], codes[start:stop])
            ]).encode("ascii"))


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


class _RoundState(QuorumWait):
    """One in-flight round: its quorum wait plus the session's own facts.

    ``op`` is the ``(plan, handle, on_done)`` of the operation waiting on
    the round, dropped when the round completes or is abandoned so that
    straggler messages still in flight pin nothing but the state itself.
    """

    def __init__(self, round_: Round, op: tuple, started: float) -> None:
        super().__init__(round_)
        self.op = op
        self.started = started
        #: traffic attributed to the round up to its completion
        self.messages = 0


class _Wave:
    """All attempts of one fan-out sent at the same instant.

    One shared flags list, one live-count, one timeout timer for the
    whole wave. A resend is its own single-request wave at
    ``number + 1``.
    """

    __slots__ = ("state", "requests", "number", "resolved", "live", "timer", "codes")

    def __init__(
        self,
        state: _RoundState,
        requests: list[Request],
        number: int,
        codes: list[int] | None,
    ) -> None:
        self.state = state
        self.requests = requests
        self.number = number
        self.resolved = [False] * len(requests)
        self.live = len(requests)
        self.timer: Timer | None = None
        #: each attempt's kind-0 trace code (None when untraced)
        self.codes = codes


class _WaveSet:
    """The waves that still have unresolved attempts.

    ``len`` is the number of unresolved *attempts* (summed over member
    waves), as the async backend's ``outstanding`` set reports its
    in-flight requests.
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

    def drain(self) -> list[_Wave]:
        """Empty the set; returns the waves it held."""
        waves = list(self._waves)
        self._waves.clear()
        return waves


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
        The coordinator **owns** it: latencies are drawn ahead in blocks
        (``LatencyModel.stream``), so a Generator passed here must not be
        drawn from by anything else.
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
        #: unresolved attempts, as on the async backend)
        self.outstanding = _WaveSet()
        self._trace = _TraceBuffer() if record_trace else None
        self._draining = False
        self._draw = latency.stream(self.rng, site)
        #: constant timeout delay ⇒ deadlines arm in non-decreasing
        #: order ⇒ one shared deque lane per distinct timeout value
        self._lane = simulator.monotone_lane(key=("timeout", self.policy.timeout))
        self._deliver_id = simulator.register_batch_handler(self._deliver)
        self._reply_id = simulator.register_batch_handler(self._reply)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def submit(self, plan: Plan, on_done: Callable[[Any], None] | None = None) -> OpHandle:
        """Start a plan; it completes asynchronously as the sim advances."""
        handle = OpHandle(started_at=self.sim.now)
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self._advance((plan, handle, on_done), None)
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
        return self._trace.hexdigest()

    @property
    def trace_length(self) -> int:
        return len(self._trace) if self._trace is not None else 0

    def shutdown(self) -> int:
        """Abandon every operation still in flight; returns live attempts.

        Call when a coordinator is discarded mid-simulation (a finished
        sweep point, an aborted run). Every outstanding attempt is marked
        resolved and its armed timer cancelled, so the shared simulator
        fires nothing more on their behalf (messages already on the wire
        still arrive, count as traffic and are ignored). An operation
        whose round was still waiting is *abandoned*: its plan is closed,
        its ``on_done`` never fires, its handle stays ``done == False``,
        and it no longer counts in ``in_flight``. The coordinator stays
        usable — shutdown drains, it does not poison.
        """
        cancelled = 0
        for wave in self.outstanding.drain():
            cancelled += wave.live
            wave.resolved[:] = [True] * len(wave.requests)
            wave.live = 0
            if wave.timer is not None:  # None: shut down from its own timeout
                wave.timer.cancel()
                wave.timer = None
            state = wave.state
            if not state.done:
                state.done = True
                plan = state.op[0]
                state.op = None
                self.in_flight -= 1
                plan.close()
        return cancelled

    # ------------------------------------------------------------------ #
    # plan driving
    # ------------------------------------------------------------------ #

    def _advance(self, op: tuple, outcome: RoundOutcome | None) -> None:
        plan, handle, on_done = op
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
        self.rounds_run += 1
        if round_.requests:
            self._send_wave(
                _RoundState(round_, op, self.sim.now), round_.requests, 0
            )
            return
        # Empty fan-out: complete on the spot (need=None is satisfied
        # vacuously, a threshold is not).
        self.cluster.network.record_round(0.0)
        self._advance(op, RoundOutcome(round=round_, satisfied=round_.need is None))

    def _complete(self, state: _RoundState) -> None:
        """Hand a round whose wait just finished back to its plan."""
        op, state.op = state.op, None
        elapsed = self.sim.now - state.started
        self.cluster.network.record_round(elapsed)
        self._advance(
            op,
            RoundOutcome(
                round=state.round,
                responses=state.responses,
                accepted=state.accepted,
                satisfied=state.satisfied,
                elapsed=elapsed,
                messages=state.messages,
            ),
        )

    # ------------------------------------------------------------------ #
    # message session layer
    # ------------------------------------------------------------------ #

    def _send_wave(self, state: _RoundState, requests: list[Request], number: int) -> None:
        now = self.sim.now
        net = self.cluster.network
        stats = net.stats
        trace = self._trace
        partitioned = net._partitioned
        by_kind = stats.by_kind
        codes = trace.wave(requests, number) if trace is not None else None
        wave = _Wave(state, requests, number, codes)
        n = len(requests)
        idxs = list(range(n))
        bytes_sent = 0
        for idx, request in enumerate(requests):
            node_id = request.node_id
            if trace is not None:
                trace.times.append(now)
                trace.codes.append(codes[idx])
            by_kind[request.method] += 1
            # network._payload_bytes, inlined: one call per message adds
            # up under wide fan-outs
            for value in request.args:
                if isinstance(value, ndarray):
                    bytes_sent += value.nbytes
            if request.kwargs:
                for value in request.kwargs.values():
                    if isinstance(value, ndarray):
                        bytes_sent += value.nbytes
            if node_id in partitioned:
                # Silent drop: only the timeout resolves this attempt.
                stats.messages_dropped += 1
                if trace is not None:
                    trace.times.append(now)
                    trace.codes.append(codes[idx] | _DROP)
                idxs.remove(idx)
        stats.messages += n
        stats.bytes_sent += bytes_sent
        self.round_messages[state.round.kind] += n
        state.messages += n
        wave.timer = self._lane.schedule_call(
            now + self.policy.timeout, self._timeout_wave, wave
        )
        self.outstanding.add(wave)
        if idxs:
            sent = [requests[idx] for idx in idxs]
            self._launch(
                self._deliver_id, wave, idxs, sent, [request.node_id for request in sent]
            )

    def _launch(
        self, handler_id: int, wave: _Wave, idxs: list[int], items: list, peers: list[int]
    ) -> None:
        """Put the message legs ``idxs`` of ``wave`` on the wire.

        ``items`` are what the legs carry (requests out, responses back),
        ``peers`` the node at the far end of each. Legs that all take
        the same time (a lone message, or a fan-out under a constant
        latency) arrive as one event carrying the lists; otherwise each
        leg is its own event. Either way the legs keep their order and
        the allocation of their events is atomic, so no foreign event
        can order between two legs that arrive at the same instant (see
        the semantics note in ``tests/runtime/reference_coordinator.py``).
        """
        sim = self.sim
        now = sim.now
        stats = self.cluster.network.stats
        delays = self._draw(peers)
        # sum() with a start value performs the same left-to-right
        # float adds as the per-message reference path.
        stats.total_message_delay = sum(delays, stats.total_message_delay)
        first = delays[0]
        if delays.count(first) == len(delays):
            sim.schedule_batch(now + first, handler_id, (wave, idxs, items))
        else:
            schedule = sim.schedule_batch
            for idx, item, delay in zip(idxs, items, delays):
                schedule(now + delay, handler_id, (wave, (idx,), (item,)))

    def _deliver(self, payloads: list[tuple]) -> None:
        """Request legs ``(wave, idxs, requests)`` arriving at their nodes."""
        cluster = self.cluster
        nodes = cluster.nodes
        net = cluster.network
        stats = net.stats
        partitioned = net._partitioned
        trace = self._trace
        queues = self.queues
        now = self.sim.now
        for wave, idxs, requests in payloads:
            resolved = wave.resolved
            served = []
            responses = []
            peers = []
            for idx, request in zip(idxs, requests):
                if resolved[idx]:
                    continue  # timed out (and possibly resent) before arriving
                node_id = request.node_id
                if node_id in partitioned:
                    # Partition raced the message: dropped on the wire.
                    stats.messages_dropped += 1
                    if trace is not None:
                        trace.times.append(now)
                        trace.codes.append(wave.codes[idx] | _DROP)
                    continue
                if trace is not None:
                    trace.times.append(now)
                    trace.codes.append(wave.codes[idx] | _DELIVER)
                if queues is not None and (queue := queues.get(node_id)) is not None:
                    # The request joins the node's FIFO backlog; it
                    # executes once the server reaches it (queue wait +
                    # sampled service time), against the node's
                    # then-current state.
                    queue.push(self._serve_queued, wave, idx)
                else:
                    served.append(idx)
                    responses.append(_answer(nodes, stats, request))
                    peers.append(node_id)
            if served:
                self._launch(self._reply_id, wave, served, responses, peers)

    def _serve_queued(self, wave: _Wave, idx: int) -> None:
        # Runs when the node's FIFO server reaches the job. The RPC
        # executes even if the attempt has timed out meanwhile
        # (at-least-once delivery); the reply leg is then discarded on
        # arrival by the resolved flag.
        request = wave.requests[idx]
        cluster = self.cluster
        response = _answer(cluster.nodes, cluster.network.stats, request)
        self._launch(self._reply_id, wave, [idx], [response], [request.node_id])

    def _reply(self, payloads: list[tuple]) -> None:
        """Reply legs ``(wave, idxs, responses)`` arriving back."""
        net = self.cluster.network
        stats = net.stats
        partitioned = net._partitioned
        trace = self._trace
        now = self.sim.now
        for wave, idxs, responses in payloads:
            resolved = wave.resolved
            state = wave.state
            heard = 0
            for idx, response in zip(idxs, responses):
                if resolved[idx]:
                    continue
                if response.request.node_id in partitioned:
                    # The reply leg is cut too: the coordinator hears
                    # nothing.
                    stats.messages_dropped += 1
                    if trace is not None:
                        trace.times.append(now)
                        trace.codes.append(wave.codes[idx] | _DROP_REPLY)
                    continue
                if trace is not None:
                    trace.times.append(now)
                    trace.codes.append(wave.codes[idx] | _REPLY)
                resolved[idx] = True
                heard += 1
                if not state.done:
                    state.messages += 1
                    if state.offer(response):
                        # counters are exact before the plan runs again
                        self._count_replies(wave, heard)
                        heard = 0
                        self._complete(state)
                # else: straggler — traffic only, the round completed
            if heard:
                self._count_replies(wave, heard)

    def _count_replies(self, wave: _Wave, heard: int) -> None:
        """Book ``heard`` replies of ``wave``; retire it with its last one."""
        self.cluster.network.stats.messages += heard
        self.round_messages[wave.state.round.kind] += heard
        wave.live -= heard
        if wave.live == 0:
            self.outstanding.discard(wave)
            wave.timer.cancel()
            wave.timer = None

    def _timeout_wave(self, wave: _Wave) -> None:
        wave.timer = None
        state = wave.state
        stats = self.cluster.network.stats
        trace = self._trace
        now = self.sim.now
        resolved = wave.resolved
        number = wave.number
        for idx, request in enumerate(wave.requests):
            if resolved[idx]:
                continue
            resolved[idx] = True
            wave.live -= 1
            if state.done:
                # The round completed without this attempt: drop it
                # quietly. Straggler *responses* keep flowing (they are
                # real traffic), but nothing retransmits on behalf of a
                # finished operation.
                continue
            stats.timeouts += 1
            if trace is not None:
                trace.times.append(now)
                trace.codes.append(wave.codes[idx] | _TIMEOUT)
            if number < self.policy.retries:
                stats.retries += 1
                self._send_wave(state, [request], number + 1)
            elif state.offer(
                Response(request, False, None, NodeUnavailableError(request.node_id))
            ):
                self._complete(state)
        self.outstanding.discard(wave)
