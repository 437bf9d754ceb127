"""Unit tests of the span tracer on synthetic spans of known duration.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part
of the tier-1 suite, which collects ``tests/`` only).
"""

from __future__ import annotations

import asyncio
from time import perf_counter

import pytest

from tracer import HARNESS, LAYERS, Tracer, layer_of


def busy(seconds: float) -> None:
    """Spin for ``seconds`` of wall time."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def total_self(tracer: Tracer) -> float:
    return sum(row["self_s"] for row in tracer.layer_table().values())


def assert_close(measured: float, expected: float, slack: float = 0.004) -> None:
    assert abs(measured - expected) <= slack + 0.1 * expected, (measured, expected)


def test_layer_of_maps_modules_to_layers():
    assert layer_of("repro.gf.kernels") == "gf"
    assert layer_of("repro.runtime.event") == "runtime"
    assert layer_of("repro.runtime.verify") == "runtime.verify"
    assert layer_of("repro.parallel.executor") is None
    assert layer_of("json") is None


def test_nested_spans_self_times_sum_to_the_root():
    tracer = Tracer()
    inner = tracer._wrap_function(lambda: busy(0.005), "gf", "inner")

    def middle_fn():
        busy(0.010)
        inner()

    middle = tracer._wrap_function(middle_fn, "erasure", "middle")

    def outer_fn():
        busy(0.020)
        middle()
        inner()

    outer = tracer._wrap_function(outer_fn, "gf", "outer")
    tracer.start()
    busy(0.005)
    outer()
    tracer.stop()
    table = tracer.layer_table()
    assert_close(table["gf"]["self_s"], 0.030)  # outer's 20 + two inners
    assert_close(table["erasure"]["self_s"], 0.010)
    assert_close(table[HARNESS]["self_s"], 0.005)
    # outer -> inner stays inside gf: one entry for outer, one for the
    # inner reached through erasure
    assert table["gf"]["calls"] == 2
    assert table["erasure"]["calls"] == 1
    assert total_self(tracer) == pytest.approx(tracer.wall_s, rel=0.01)


def test_recursion_is_one_entry():
    tracer = Tracer()

    def fact(n):
        busy(0.001)
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer._wrap_function(fact, "core", "fact")
    tracer.start()
    assert wrapped(5) == 120
    tracer.stop()
    table = tracer.layer_table()
    assert table["core"]["calls"] == 1
    assert_close(table["core"]["self_s"], 0.006)
    assert total_self(tracer) == pytest.approx(tracer.wall_s, rel=0.01)


def test_generator_is_timed_per_resume_not_while_suspended():
    tracer = Tracer()

    def plan():
        for _ in range(3):
            busy(0.004)
            got = yield "round"
            assert got == "outcome"
        return "result"

    wrapped = tracer._wrap_function(plan, "core", "plan")
    tracer.start()
    gen = wrapped()
    assert gen.send(None) == "round"
    result = None
    try:
        while True:
            busy(0.010)  # the coordinator waiting for the round
            gen.send("outcome")
    except StopIteration as stop:
        result = stop.value
    tracer.stop()
    assert result == "result"
    table = tracer.layer_table()
    assert_close(table["core"]["self_s"], 0.012)
    assert table["core"]["calls"] == 4  # three rounds + the final resume
    assert_close(table[HARNESS]["self_s"], 0.030)
    assert total_self(tracer) == pytest.approx(tracer.wall_s, rel=0.01)


def test_generator_delegation_with_yield_from():
    tracer = Tracer()

    def inner():
        got = yield 1
        return got * 2

    wrapped_inner = tracer._wrap_function(inner, "core", "inner")

    def outer():
        value = yield from wrapped_inner()
        return value + 1

    wrapped_outer = tracer._wrap_function(outer, "runtime", "outer")
    tracer.start()
    gen = wrapped_outer()
    assert next(gen) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send(20)
    tracer.stop()
    assert stop.value.value == 41
    assert tracer.layer_table()["core"]["calls"] == 2


def test_bound_callback_is_charged_to_its_owner_and_keeps_the_op_id():
    tracer = Tracer(record_spans=True)
    seen = []

    def handler():
        seen.append(tracer.op)
        busy(0.005)

    handler.__module__ = "repro.runtime.event"
    step = tracer._wrap_function(lambda cb: (busy(0.003), cb()), "cluster", "step")
    tracer.start()
    tracer.op = 7
    bound = tracer.bind(handler)
    assert tracer.bind(bound) is bound
    tracer.op = 99
    step(bound)
    tracer.stop()
    assert seen == [7] and tracer.op == 99
    table = tracer.layer_table()
    assert_close(table["runtime"]["self_s"], 0.005)
    assert_close(table["cluster"]["self_s"], 0.003)
    events = tracer.chrome_trace()["traceEvents"]
    by_name = {event["name"]: event for event in events}
    callback = by_name["callback:" + handler.__qualname__]
    assert callback["cat"] == "runtime" and callback["args"]["op"] == 7
    assert callback["args"]["parent"] == by_name["step"]["args"]["id"]


def test_harness_callback_is_carved_out_of_the_enclosing_layer():
    tracer = Tracer()
    step = tracer._wrap_function(lambda cb: cb(), "cluster", "step")
    tracer.start()
    step(tracer.bind(lambda: busy(0.006)))
    tracer.stop()
    table = tracer.layer_table()
    assert_close(table[HARNESS]["self_s"], 0.006)
    assert table["cluster"]["self_s"] < 0.002


def test_exceptions_unwind_the_stack():
    tracer = Tracer()

    def boom():
        busy(0.002)
        raise ValueError("boom")

    inner = tracer._wrap_function(boom, "gf", "boom")
    outer = tracer._wrap_function(lambda: inner(), "erasure", "outer")

    def failing_plan():
        yield 1
        raise KeyError("plan")

    plan = tracer._wrap_function(failing_plan, "core", "plan")
    tracer.start()
    with pytest.raises(ValueError):
        outer()
    gen = plan()
    next(gen)
    with pytest.raises(KeyError):
        next(gen)
    assert len(tracer._stack) == 1
    busy(0.002)
    tracer.stop()
    assert total_self(tracer) == pytest.approx(tracer.wall_s, rel=0.01)
    assert tracer.layer_table()["gf"]["calls"] == 1


def test_coroutine_steps_exclude_suspended_time():
    tracer = Tracer()

    async def call():
        busy(0.004)
        await asyncio.sleep(0.02)
        busy(0.004)
        return "reply"

    wrapped = tracer._wrap_function(call, "services", "call")

    async def main():
        return await asyncio.gather(wrapped(), wrapped())

    loop = asyncio.new_event_loop()
    try:
        tracer.start()
        with tracer.span("asyncio", "loop"):
            replies = loop.run_until_complete(main())
        tracer.stop()
    finally:
        loop.close()
    assert replies == ["reply", "reply"]
    table = tracer.layer_table()
    assert_close(table["services"]["self_s"], 0.016)
    assert table["services"]["calls"] == 4  # two coroutines, two steps each
    assert table["asyncio"]["self_s"] >= 0.015  # the sleeps belong to the loop
    assert total_self(tracer) == pytest.approx(tracer.wall_s, rel=0.01)


def test_cancellation_reaches_the_wrapped_coroutine():
    tracer = Tracer()
    cleaned = []

    async def call():
        try:
            await asyncio.sleep(10)
        finally:
            cleaned.append(True)

    wrapped = tracer._wrap_function(call, "services", "call")

    async def main():
        task = asyncio.ensure_future(wrapped())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    loop = asyncio.new_event_loop()
    try:
        tracer.start()
        loop.run_until_complete(main())
        tracer.stop()
    finally:
        loop.close()
    assert cleaned == [True] and len(tracer._stack) == 1


def test_nothing_is_recorded_outside_the_root_span():
    tracer = Tracer()
    fn = tracer._wrap_function(lambda: busy(0.002), "gf", "fn")
    fn()
    assert tracer.layer_table()["gf"] == {"self_s": 0.0, "calls": 0}
    tracer.start()
    fn()
    tracer.stop()
    tracer.reset()
    assert total_self(tracer) == 0.0 and tracer.wall_s == 0.0


def test_span_cap_drops_and_counts():
    tracer = Tracer(record_spans=True, max_spans=3)
    fn = tracer._wrap_function(lambda: None, "gf", "fn")
    tracer.start()
    for _ in range(5):
        fn()
    tracer.stop()
    trace = tracer.chrome_trace()
    assert len(trace["traceEvents"]) == 3
    assert trace["otherData"]["dropped_spans"] == 2


def test_install_patches_every_layer_and_uninstall_restores_all():
    import repro.gf
    import repro.gf.kernels
    from repro.cluster.events import Simulator
    from repro.core.trap_erc import TrapErcProtocol
    from repro.erasure import MDSCode
    from repro.services.transport import TcpTransport

    originals = {
        "decode": MDSCode.__dict__["decode"],
        "matmul": repro.gf.kernels.gf_matmul,
        "alias": repro.gf.gf_matmul,
        "schedule": Simulator.__dict__["schedule_call"],
        "plan": TrapErcProtocol.__dict__["read_plan"],
        "call": TcpTransport.__mro__[1].__dict__["call"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.installed
        assert MDSCode.__dict__["decode"] is not originals["decode"]
        assert repro.gf.kernels.gf_matmul is not originals["matmul"]
        # ``from repro.gf.kernels import gf_matmul`` copies are rebound too
        assert repro.gf.gf_matmul is repro.gf.kernels.gf_matmul
        assert asyncio.iscoroutinefunction(TcpTransport.call)
        tracer.install()  # idempotent
        code = MDSCode(6, 4)
        tracer.start()
        stripe = code.encode(
            __import__("numpy").arange(4 * 16, dtype="uint8").reshape(4, 16)
        )
        tracer.stop()
        assert stripe.shape == (6, 16)
        table = tracer.layer_table()
        assert table["erasure"]["calls"] == 1 and table["gf"]["calls"] >= 1
        assert tracer.counts["gf_bytes"] > 0
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert MDSCode.__dict__["decode"] is originals["decode"]
    assert repro.gf.kernels.gf_matmul is originals["matmul"]
    assert repro.gf.gf_matmul is originals["alias"]
    assert Simulator.__dict__["schedule_call"] is originals["schedule"]
    assert TrapErcProtocol.__dict__["read_plan"] is originals["plan"]
    assert TcpTransport.__mro__[1].__dict__["call"] is originals["call"]


def test_untraced_run_after_a_traced_one_matches():
    from workloads import WORKLOADS

    def fingerprint(tracer=None):
        workload = WORKLOADS["event_faults"](seed=5, tiny=True, tracer=tracer)
        workload.setup()
        return workload.repeat().digest

    before = fingerprint()
    tracer = Tracer()
    tracer.install()
    try:
        traced = fingerprint(tracer)
    finally:
        tracer.uninstall()
    assert traced == before == fingerprint()
    assert set(tracer.layer_table()) == {*LAYERS, HARNESS}
