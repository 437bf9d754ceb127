"""Minimal discrete-event simulation engine.

A binary-heap event queue with stable FIFO ordering for simultaneous
events. Drives the history-model experiments (failure/repair transitions
from a :class:`~repro.cluster.failures.FailureTrace`, workload operation
arrivals) and the event-driven protocol runtime in :mod:`repro.runtime`,
whose message timeouts need the cancellable :class:`Timer` handles that
``schedule_at``/``schedule_in`` return.

Four mechanisms keep the engine fast at million-event scale:

* **One drain loop** — :meth:`Simulator.step`, :meth:`Simulator.run` and
  :meth:`Simulator.run_until` are one loop body (``_drain``) with a
  horizon and an event budget. It picks the next event by comparing
  ``time`` then ``seq`` field by field (no key tuples), prunes cancelled
  heads of the heap and of every lane where they sit, and calls the
  event without another Python frame in between.
* **Heap compaction** — cancellation is lazy (a cancelled entry stays
  queued until it surfaces), but the engine counts housed-dead entries
  and rebuilds the heap once more than half of it is cancelled timers,
  so churn-heavy runs (every resolved message cancels its timeout) keep
  the heap proportional to *live* events instead of total ever armed.
* **Monotone lanes** (:meth:`Simulator.monotone_lane`) — a deque-backed
  side channel for callers whose deadlines are scheduled in
  non-decreasing order (constant-delay timeout timers). Push and cancel
  are O(1) with no heap traffic; the drain loop merges lane heads with
  the heap by the same ``(time, seq)`` order, so ordering is exactly as
  if every entry had gone through the heap.
* **Batch entries** (:meth:`Simulator.register_batch_handler` /
  :meth:`Simulator.schedule_batch`) — events that share one timestamp
  and one registered handler are popped as a group and handed over in a
  single ``handler(payloads)`` call, instead of one Python callback per
  event. Grouping only spans *globally consecutive* events: a foreign
  event (heap or lane) ordered between two batch entries breaks the
  group, so handlers observe the same interleaving a per-event loop
  would. A batch entry allocates no :class:`Timer` and cannot be
  cancelled: the message layer that schedules them deadens a message by
  a flag its handler checks, never by cancelling the entry.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Timer", "Simulator", "MonotoneLane"]

#: compaction triggers only past this many dead entries (tiny queues are
#: cheaper to prune lazily than to rebuild)
_COMPACT_MIN = 64

_INF = float("inf")


class Timer:
    """Cancellable handle for one scheduled event.

    Cancellation is lazy: the entry stays in its container (heap or
    lane) and is discarded when it surfaces, so ``cancel()`` is O(1) and
    safe to call from any callback (including after the event already
    ran, where it is a no-op). While housed, a cancelled timer is
    counted by its container so compaction can trigger once dead
    entries dominate.
    """

    __slots__ = ("time", "cancelled", "_home")

    def __init__(self, time: float, home=None) -> None:
        self.time = time
        self.cancelled = False
        self._home = home

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            home = self._home
            if home is not None:
                home._dead += 1


class MonotoneLane:
    """Deque-backed event lane for monotonically non-decreasing deadlines.

    Made by :meth:`Simulator.monotone_lane`. ``schedule_call`` appends in
    O(1) but requires each deadline to be >= the lane's current tail —
    the natural shape of constant-delay timeout timers, where deadline
    ``now + T`` only grows as the simulation advances. Entries carry
    global sequence numbers, and the simulator merges lane heads with
    the heap by ``(time, seq)``, so lane events fire in exactly the
    order they would have from the heap.
    """

    __slots__ = ("_sim", "_entries", "_dead")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._entries: deque = deque()
        self._dead = 0

    def __len__(self) -> int:
        return len(self._entries) - self._dead

    def schedule_call(self, time: float, callback, *args) -> Timer:
        """Schedule ``callback(*args)`` at absolute time ``time`` (>= tail)."""
        sim = self._sim
        entries = self._entries
        if time < sim.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {sim.now}"
            )
        if entries and time < entries[-1][0]:
            raise SimulationError(
                f"monotone lane requires non-decreasing deadlines: "
                f"{time} < tail {entries[-1][0]}"
            )
        timer = Timer(time, self)
        entries.append((time, sim._seq, callback, args, timer))
        sim._seq += 1
        if self._dead > _COMPACT_MIN and self._dead * 2 > len(entries):
            self._compact()
        return timer

    def _compact(self) -> None:
        self._entries = deque(
            entry for entry in self._entries if not entry[4].cancelled
        )
        self._dead = 0

    def _head(self):
        """The first live entry (cancelled heads dropped), or None."""
        entries = self._entries
        while entries:
            head = entries[0]
            if not head[4].cancelled:
                return head
            entries.popleft()
            head[4]._home = None
            self._dead -= 1
        return None


class Simulator:
    """Discrete-event loop with virtual time."""

    def __init__(self) -> None:
        #: current virtual time; only the drain loop advances it
        self.now = 0.0
        self._seq = 0
        #: heap entries ``(time, seq, callback, args, timer)``; a batch
        #: entry is ``(time, seq, handler id, payload, None)``
        self._queue: list[tuple] = []
        self._dead = 0
        self._lanes: list[MonotoneLane] = []
        self._lane_cache: dict = {}
        self._handlers: list[Callable[[list], None]] = []
        self.processed = 0
        #: high-water mark of raw heap entries (live + not-yet-pruned
        #: cancelled) — the compaction regression tests bound this
        self.peak_queue_depth = 0

    @property
    def queue_depth(self) -> int:
        """Raw heap entries currently housed, including cancelled ones."""
        return len(self._queue)

    def __len__(self) -> int:
        """Pending (non-cancelled) events still queued."""
        return (
            len(self._queue)
            - self._dead
            + sum(len(lane) for lane in self._lanes)
        )

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule_call(self, time: float, callback, *args) -> Timer:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        timer = Timer(time, self)
        queue = self._queue
        heapq.heappush(queue, (time, self._seq, callback, args, timer))
        self._seq += 1
        depth = len(queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        if self._dead > _COMPACT_MIN and self._dead * 2 > depth:
            self._compact()
        return timer

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        return self.schedule_call(float(time), callback)

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_call(self.now + delay, callback)

    def monotone_lane(self, key=None) -> MonotoneLane:
        """A :class:`MonotoneLane` merged into this simulator's loop.

        With a ``key``, callers sharing the key share one lane — e.g.
        every shard coordinator arming constant-``timeout`` timers uses
        ``("timeout", T)``, keeping the per-step lane scan O(distinct
        timeouts) instead of O(coordinators). Sharing is only sound when
        all users push non-decreasing deadlines, which a shared ``now``
        plus a constant delay guarantees.
        """
        if key is not None:
            lane = self._lane_cache.get(key)
            if lane is not None:
                return lane
        lane = MonotoneLane(self)
        self._lanes.append(lane)
        if key is not None:
            self._lane_cache[key] = lane
        return lane

    def register_batch_handler(self, handler: Callable[[list], None]) -> int:
        """Register a vectorized handler; returns its id for ``schedule_batch``."""
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def schedule_batch(self, time: float, handler_id: int, payload: Any) -> None:
        """Schedule ``payload`` for the batch handler ``handler_id``.

        Consecutive pending events sharing ``(time, handler_id)`` are
        drained as one ``handler(payloads)`` call; an unrelated event
        ordered between them splits the group. Returns nothing: a batch
        entry cannot be cancelled (see the module docstring).
        """
        # schedule_call's body with no Timer (the two hottest entry
        # points of the engine; a shared helper costs a frame per event)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        queue = self._queue
        heapq.heappush(queue, (time, self._seq, handler_id, payload, None))
        self._seq += 1
        depth = len(queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        if self._dead > _COMPACT_MIN and self._dead * 2 > depth:
            self._compact()

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #

    def _compact(self) -> None:
        """Rebuild the heap, in place, without cancelled entries."""
        queue = self._queue
        queue[:] = [
            entry for entry in queue if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(queue)
        self._dead = 0

    def _lane_before(self, time: float, seq: int) -> bool:
        """Is any live lane entry ordered before ``(time, seq)``?"""
        for lane in self._lanes:
            head = lane._head()
            if head is not None and (
                head[0] < time or (head[0] == time and head[1] < seq)
            ):
                return True
        return False

    def _drain(self, horizon: float, budget: float) -> int:
        """Run events up to ``horizon``, at most ``budget`` of them.

        The one loop behind ``step``/``run``/``run_until``. A run of
        batch entries dispatched in one handler call counts once against
        the budget (and once per heap entry in ``processed``).
        """
        queue = self._queue
        lanes = self._lanes
        handlers = self._handlers
        pop = heapq.heappop
        done = 0
        while done < budget:
            while queue:
                head = queue[0]
                timer = head[4]
                if timer is None or not timer.cancelled:
                    break
                pop(queue)
                timer._home = None
                self._dead -= 1
            else:
                head = None
            source = None
            for lane in lanes:
                entries = lane._entries
                if not entries:
                    continue
                first = entries[0]
                if first[4].cancelled:
                    first = lane._head()
                    if first is None:
                        continue
                if (
                    head is None
                    or first[0] < head[0]
                    or (first[0] == head[0] and first[1] < head[1])
                ):
                    head, source = first, lane
            if head is None or head[0] > horizon:
                break
            if source is None:
                pop(queue)
            else:
                source._entries.popleft()
            time, _, callback, args, timer = head
            self.now = time
            self.processed += 1
            done += 1
            if timer is not None:
                timer._home = None
                if args:
                    callback(*args)
                else:
                    callback()
                continue
            # Batch entry: absorb the run of same-(time, handler) entries
            # that are globally next, then dispatch once.
            payloads = [args]
            while queue:
                head = queue[0]
                if head[0] != time:
                    break
                timer = head[4]
                if timer is not None:
                    if not timer.cancelled:
                        break
                    pop(queue)
                    timer._home = None
                    self._dead -= 1
                elif head[2] != callback or self._lane_before(time, head[1]):
                    break
                else:
                    pop(queue)
                    payloads.append(head[3])
                    self.processed += 1
            handlers[callback](payloads)
        return done

    def step(self) -> bool:
        """Run the next live event; returns False when the queue is empty."""
        return self._drain(_INF, 1) == 1

    def run_until(self, horizon: float) -> None:
        """Process events with time <= horizon, then advance to horizon."""
        self._drain(horizon, _INF)
        self.now = max(self.now, horizon)

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue (bounded by ``max_events`` if given)."""
        self._drain(_INF, _INF if max_events is None else max_events)
