"""Event-engine mechanics: compaction, monotone lanes, batch drain.

The event core leans on three :class:`Simulator` mechanisms (heap
compaction of cancelled timers, deque-backed monotone lanes, and
same-timestamp batch grouping); each is pinned here in isolation,
including the regression bound on peak heap depth under cancel-heavy
churn that motivated compaction, and together as a property: whatever
mix is scheduled, ``run``, ``run_until`` and a ``step`` loop fire it in
``(time, seq)`` order with the same batch grouping.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import MonotoneLane, Simulator, Timer
from repro.errors import SimulationError


class TestOrdering:
    def test_time_then_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("late"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "late"]
        assert sim.now == 2.0
        assert sim.processed == 3

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_advances_to_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.5, lambda: fired.append(0.5))
        sim.schedule_at(2.5, lambda: fired.append(2.5))
        sim.run_until(1.0)
        assert fired == [0.5]
        assert sim.now == 1.0
        assert len(sim) == 1


class TestCompaction:
    def test_cancelled_timer_is_lazy_but_counted(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_in(1.0, lambda: fired.append("x"))
        timer.cancel()
        timer.cancel()  # idempotent
        assert sim.queue_depth == 1  # still housed
        assert len(sim) == 0  # but not live
        sim.run()
        assert fired == []

    def test_peak_heap_bounded_under_cancel_churn(self):
        """Arm-and-cancel churn must not grow the heap past ~2x live.

        This is the workload shape of the event runtime before lanes:
        every resolved message cancels its timeout timer, so without
        compaction the heap holds every timer ever armed (10_000 here).
        """
        sim = Simulator()
        live = sim.schedule_at(10_000.0, lambda: None)  # one long-lived event
        for i in range(10_000):
            timer = sim.schedule_at(float(i + 1), lambda: None)
            timer.cancel()
            sim.run_until(float(i))
        assert live is not None
        assert len(sim) == 1
        # >50% dead triggers a rebuild, so the raw heap stays near the
        # compaction threshold instead of the 10_001 armed entries.
        assert sim.peak_queue_depth < 200
        assert sim.queue_depth < 200

    def test_dead_heads_pruned_without_running(self):
        sim = Simulator()
        order = []
        dead = sim.schedule_at(1.0, lambda: order.append("dead"))
        sim.schedule_at(1.0, lambda: order.append("live"))
        dead.cancel()
        sim.run()
        assert order == ["live"]
        assert sim.processed == 1


class TestMonotoneLane:
    def test_merges_with_heap_in_global_order(self):
        sim = Simulator()
        lane = sim.monotone_lane()
        order = []
        sim.schedule_at(1.0, lambda: order.append("h1"))
        lane.schedule_call(1.5, lambda: order.append("l1"))
        sim.schedule_at(2.0, lambda: order.append("h2"))
        lane.schedule_call(2.5, lambda: order.append("l2"))
        sim.run()
        assert order == ["h1", "l1", "h2", "l2"]

    def test_same_time_resolves_by_schedule_order(self):
        sim = Simulator()
        lane = sim.monotone_lane()
        order = []
        sim.schedule_at(1.0, lambda: order.append("heap-first"))
        lane.schedule_call(1.0, lambda: order.append("lane-second"))
        sim.schedule_at(1.0, lambda: order.append("heap-third"))
        sim.run()
        assert order == ["heap-first", "lane-second", "heap-third"]

    def test_rejects_non_monotone_deadline(self):
        sim = Simulator()
        lane = sim.monotone_lane()
        lane.schedule_call(2.0, lambda: None)
        with pytest.raises(SimulationError, match="non-decreasing"):
            lane.schedule_call(1.0, lambda: None)

    def test_keyed_lanes_are_shared(self):
        sim = Simulator()
        assert sim.monotone_lane(key=("timeout", 0.05)) is sim.monotone_lane(
            key=("timeout", 0.05)
        )
        assert sim.monotone_lane(key=("timeout", 0.1)) is not sim.monotone_lane(
            key=("timeout", 0.05)
        )
        assert sim.monotone_lane() is not sim.monotone_lane()

    def test_lane_cancel_and_compaction(self):
        sim = Simulator()
        lane = sim.monotone_lane()
        fired = []
        timers = [
            lane.schedule_call(float(i), lambda i=i: fired.append(i))
            for i in range(300)
        ]
        for timer in timers[:299]:
            timer.cancel()
        assert len(lane) == 1
        # Compaction (>50% dead past the floor) keeps the deque small.
        lane.schedule_call(300.0, lambda: fired.append(300))
        assert len(lane._entries) < 150
        sim.run()
        assert fired == [299, 300]


class TestBatchDrain:
    def test_same_time_events_dispatch_in_one_call(self):
        sim = Simulator()
        calls = []
        handler = sim.register_batch_handler(lambda payloads: calls.append(payloads))
        for i in range(5):
            sim.schedule_batch(1.0, handler, i)
        sim.run()
        assert calls == [[0, 1, 2, 3, 4]]
        assert sim.processed == 5

    def test_foreign_event_splits_the_group(self):
        """A plain event sequenced between batch entries breaks the run —
        handlers observe exactly the per-event interleaving."""
        sim = Simulator()
        order = []
        handler = sim.register_batch_handler(lambda p: order.append(("batch", p)))
        sim.schedule_batch(1.0, handler, "a")
        sim.schedule_at(1.0, lambda: order.append(("plain", None)))
        sim.schedule_batch(1.0, handler, "b")
        sim.run()
        assert order == [
            ("batch", ["a"]),
            ("plain", None),
            ("batch", ["b"]),
        ]

    def test_lane_event_splits_the_group(self):
        sim = Simulator()
        order = []
        handler = sim.register_batch_handler(lambda p: order.append(("batch", p)))
        lane = sim.monotone_lane()
        sim.schedule_batch(1.0, handler, "a")
        lane.schedule_call(1.0, lambda: order.append(("lane", None)))
        sim.schedule_batch(1.0, handler, "b")
        sim.run()
        assert order == [("batch", ["a"]), ("lane", None), ("batch", ["b"])]

    def test_distinct_handlers_do_not_merge(self):
        sim = Simulator()
        order = []
        h1 = sim.register_batch_handler(lambda p: order.append(("h1", p)))
        h2 = sim.register_batch_handler(lambda p: order.append(("h2", p)))
        sim.schedule_batch(1.0, h1, 1)
        sim.schedule_batch(1.0, h2, 2)
        sim.schedule_batch(1.0, h1, 3)
        sim.run()
        assert order == [("h1", [1]), ("h2", [2]), ("h1", [3])]

    def test_different_times_do_not_merge(self):
        sim = Simulator()
        calls = []
        handler = sim.register_batch_handler(lambda p: calls.append((sim.now, p)))
        sim.schedule_batch(1.0, handler, "a")
        sim.schedule_batch(2.0, handler, "b")
        sim.run()
        assert calls == [(1.0, ["a"]), (2.0, ["b"])]

    def test_batch_entries_have_no_timer_and_cancelled_timers_do_not_split(self):
        """A batch entry allocates no Timer (nothing to cancel: the
        message layer deadens a message by a flag), and a *cancelled*
        plain timer sequenced between two batch entries is pruned, not
        treated as a foreign event."""
        sim = Simulator()
        calls = []
        handler = sim.register_batch_handler(lambda p: calls.append(p))
        assert sim.schedule_batch(1.0, handler, "a") is None
        timer = sim.schedule_at(1.0, lambda: calls.append("timer"))
        assert sim.schedule_batch(1.0, handler, "c") is None
        timer.cancel()
        sim.run()
        assert calls == [["a", "c"]]
        assert sim.processed == 2


class TestTimerHandle:
    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.run()
        timer.cancel()
        assert fired == [1]
        assert len(sim) == 0

    def test_standalone_timer(self):
        timer = Timer(1.0)
        timer.cancel()
        assert timer.cancelled


# --------------------------------------------------------------------- #
# the drain loop as a property
# --------------------------------------------------------------------- #

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_ENTRY = st.one_of(
    # plain callback; may cancel another entry's timer when it fires
    st.tuples(st.just("call"), _TIMES, st.none() | st.integers(0, 40)),
    st.tuples(st.just("lane"), _TIMES, st.integers(0, 1)),
    st.tuples(st.just("batch"), _TIMES, st.integers(0, 1)),
)


def _schedule(entries, precancelled):
    """Build a simulator holding ``entries``; returns it with the model.

    Lane deadlines must not decrease, so a lane entry fires at the
    running maximum of the times drawn for its lane.
    """
    sim = Simulator()
    log = []
    handlers = [
        sim.register_batch_handler(lambda p, h=h: log.append(("batch", h, list(p))))
        for h in range(2)
    ]
    lanes = [sim.monotone_lane() for _ in range(2)]
    tails = [0.0, 0.0]
    timers: dict[int, Timer] = {}
    model = []  # (time, seq, kind, ident, extra)

    def fire(ident, target):
        log.append(("call", ident))
        if target in timers:
            timers[target].cancel()

    for ident, (kind, time, extra) in enumerate(entries):
        if kind == "call":
            timers[ident] = sim.schedule_call(time, fire, ident, extra)
        elif kind == "lane":
            time = tails[extra] = max(tails[extra], time)
            timers[ident] = lanes[extra].schedule_call(
                time, lambda i=ident: log.append(("lane", i))
            )
        else:
            assert sim.schedule_batch(time, handlers[extra], ident) is None
        model.append((time, ident, kind, extra))
    cancelled = set()
    for ident in precancelled:
        if ident in timers:
            timers[ident].cancel()
            cancelled.add(ident)
    return sim, log, model, cancelled


def _expected(model, cancelled):
    """Reference drain: sort, skip the cancelled, merge adjacent batches."""
    cancelled = set(cancelled)
    events = sorted(model)  # ident doubles as seq: scheduled in order
    timered = {ident for _, ident, kind, _ in model if kind != "batch"}
    out = []
    i = 0
    while i < len(events):
        time, ident, kind, extra = events[i]
        i += 1
        if ident in cancelled:
            continue
        if kind == "call":
            out.append(("call", ident))
            if extra in timered:
                cancelled.add(extra)
        elif kind == "lane":
            out.append(("lane", ident))
        else:
            group = [ident]
            while i < len(events):
                ntime, nident, nkind, nextra = events[i]
                if nident in cancelled:
                    i += 1  # a dead timer is pruned, it splits nothing
                elif (ntime, nkind, nextra) == (time, "batch", extra):
                    group.append(nident)
                    i += 1
                else:
                    break
            out.append(("batch", extra, group))
    return out


class TestDrainProperty:
    @given(
        entries=st.lists(_ENTRY, max_size=40),
        precancelled=st.sets(st.integers(0, 40), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_run_until_and_step_agree_with_the_model(self, entries, precancelled):
        expected = _expected(*_schedule(entries, precancelled)[2:])
        fired = sum(len(e[2]) if e[0] == "batch" else 1 for e in expected)

        sim, log, _, _ = _schedule(entries, precancelled)
        live_before = len(sim)
        sim.run()
        assert log == expected
        assert sim.processed == fired and len(sim) == 0
        assert live_before >= fired  # in-run cancellations only shrink it

        sim, log, _, _ = _schedule(entries, precancelled)
        for horizon in (0.0, 0.25, 0.5, 1.0, 1.75, 2.0):
            sim.run_until(horizon)
            assert sim.now == horizon
        assert log == expected and sim.processed == fired

        sim, log, _, _ = _schedule(entries, precancelled)
        steps = 0
        while sim.step():
            steps += 1
            assert len(log) == steps  # one step, one dispatch
        assert log == expected and sim.processed == fired

        sim, log, _, _ = _schedule(entries, precancelled)
        sim.run(max_events=1)
        assert log == expected[:1]

    @given(rounds=st.integers(1, 6), burst=st.integers(70, 200))
    @settings(max_examples=20, deadline=None)
    def test_cancel_churn_keeps_heap_and_lane_compact(self, rounds, burst):
        """Dead entries never outnumber the live ones by more than the
        compaction floor, in the heap or in a lane, whatever else (here:
        batch entries, which carry no timer) shares the heap."""
        sim = Simulator()
        lane = sim.monotone_lane()
        handler = sim.register_batch_handler(lambda payloads: None)
        for r in range(rounds):
            base = float(r * burst)
            timers = [
                sim.schedule_at(base + i + 1, lambda: None) for i in range(burst)
            ] + [
                lane.schedule_call(base + i + 1, lambda: None) for i in range(burst)
            ]
            for i in range(burst):
                sim.schedule_batch(base + i + 1, handler, i)
            for timer in timers[1:]:
                timer.cancel()
            sim.schedule_at(base + 1, lambda: None)  # a push after the cancels
            lane.schedule_call(base + burst, lambda: None)
            live_heap = len(sim) - len(lane)
            assert sim.queue_depth - live_heap <= max(64, sim.queue_depth // 2)
            assert len(lane._entries) - len(lane) <= max(64, len(lane._entries) // 2)
            sim.run_until(base + burst)
            assert len(sim) == 0
        assert sim.peak_queue_depth <= 2 * burst + 2 + 64
