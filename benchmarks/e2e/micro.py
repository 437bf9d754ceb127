"""Host calibration and single-layer kernel rates.

Taken in the same process as the traced run, before the tracer is
installed, on fixed inputs (64 KiB blocks, k = 8, n = 12): the machine
ceiling the kernels are stated against, and one number per layer that an
optimisation of that layer should move before any workload does.
Every figure is the best of a few short runs — interference on a shared
host only ever slows a run down.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter

import numpy as np

BLOCK = 65536
K, N = 8, 12


def _best_of(fn, runs: int = 5) -> float:
    """Seconds of the fastest of ``runs`` calls."""
    fastest = float("inf")
    for _ in range(runs):
        started = perf_counter()
        fn()
        fastest = min(fastest, perf_counter() - started)
    return fastest


def _once(fn, runs: int = 1) -> float:
    """``_best_of`` for the smoke test: one run per figure."""
    return _best_of(fn, 1)


def host_metrics(quick: bool = False) -> dict[str, float]:
    """What this machine can do at all: memcpy, XOR, a binary heap."""
    best = _once if quick else _best_of
    size = 32 << 20  # well past any cache level of this container
    src = np.full(size, 0x5A, dtype=np.uint8)
    dst = np.zeros(size, dtype=np.uint8)
    memcpy = best(lambda: np.copyto(dst, src), 3)
    xor = best(lambda: np.bitwise_xor(dst, src, out=dst), 3)

    def heap_loop(count: int = 100_000) -> None:
        heap: list = []
        for i in range(count):
            heapq.heappush(heap, ((i * 7919) % count, i))
        while heap:
            heapq.heappop(heap)

    heap = best(heap_loop, 3)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return {
        "host.cpus": float(cpus),
        "host.memcpy_gb_per_s": size / memcpy / 1e9,
        "host.xor_gb_per_s": size / xor / 1e9,
        "host.heap_mops_per_s": 200_000 / heap / 1e6,
    }


def kernel_metrics(host: dict[str, float], quick: bool = False) -> dict[str, float]:
    """One rate per layer on fixed micro-inputs."""
    best = _once if quick else _best_of
    from repro.analysis.exact import exact_read_erc
    from repro.analysis.occupancy import occupancy_cache_clear
    from repro.analysis.optimizer import optimize_config
    from repro.cluster.events import Simulator
    from repro.erasure import MDSCode
    from repro.gf import GF256, gf_matmul, xor_into
    from repro.quorum.trapezoid import TrapezoidQuorum, TrapezoidShape
    from repro.runtime import block_digest
    from repro.services.wire import Codec
    from repro.sim.montecarlo import mc_read_availability_erc
    from repro.sim.protocol_mc import ProtocolMonteCarlo

    rng = np.random.default_rng(12345)
    out: dict[str, float] = {}
    data = rng.integers(0, 256, (K, BLOCK), dtype=np.uint8)
    mb = K * BLOCK / 1e6

    # gf
    coeffs = rng.integers(1, 256, (K, K), dtype=np.uint8)
    out["gf.matmul_mb_per_s"] = mb / best(lambda: gf_matmul(GF256, coeffs, data))
    a, b = data[0].copy(), data[1]

    def xor_loop() -> None:
        for _ in range(64):
            xor_into(a, b)

    out["gf.xor_gb_per_s"] = 64 * BLOCK / best(xor_loop) / 1e9
    out["gf.frac_of_host_xor"] = out["gf.xor_gb_per_s"] / host["host.xor_gb_per_s"]

    # erasure
    code = MDSCode(N, K)
    stripe = code.encode(data)
    survivors = [0, 2, 3, 5, 6, 7, 8, 10]  # two data blocks lost
    fragments = stripe[survivors]
    code.decode(survivors, fragments)  # the plan is cached, as in steady state
    out["erasure.encode_mb_per_s"] = mb / best(lambda: code.encode(data))
    out["erasure.decode_mb_per_s"] = mb / best(lambda: code.decode(survivors, fragments))
    new = rng.integers(0, 256, BLOCK, dtype=np.uint8)

    def delta_update() -> None:
        delta = code.delta(data[3], new)
        for j in range(K, N):
            code.parity_delta(j, 3, delta)

    out["erasure.delta_mb_per_s"] = BLOCK / 1e6 / best(delta_update)

    # cluster: schedule + dispatch of no-op events
    def heap_events(count: int = 50_000) -> None:
        sim = Simulator()
        noop = lambda: None  # noqa: E731
        for i in range(count):
            sim.schedule_call(float((i * 7919) % count), noop)
        sim.run()

    out["cluster.heap_mevents_per_s"] = 50_000 / best(heap_events, 3) / 1e6

    # runtime.verify
    def digests() -> None:
        for row in data:
            block_digest(row)

    out["runtime.verify.digest_mb_per_s"] = mb / best(digests)

    # services: one 64 KiB ndarray reply through the JSON wire codec
    codec = Codec("json")
    reply = {"id": 7, "ok": True, "value": (data[0], 3)}
    body = codec.encode(reply)
    out["services.wire.encode_mb_per_s"] = BLOCK / 1e6 / best(lambda: codec.encode(reply))
    out["services.wire.decode_mb_per_s"] = BLOCK / 1e6 / best(lambda: codec.decode(body))

    # analysis: cold exact read availability at Nbnode = 15, cold optimizer
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2), 2)
    ps = np.linspace(0.05, 0.95, 19)

    def exact_cold() -> None:
        occupancy_cache_clear()
        exact_read_erc(quorum, 22, 8, ps)

    def optimizer_cold() -> None:
        occupancy_cache_clear()
        optimize_config(20, 8, 0.9)

    out["analysis.exact_ms"] = best(exact_cold, 3) * 1e3
    out["analysis.optimizer_ms"] = best(optimizer_cold, 3) * 1e3
    occupancy_cache_clear()

    # sim
    trials = 100_000
    out["sim.mc_trials_per_s"] = trials / best(
        lambda: mc_read_availability_erc(quorum, 22, 8, 0.8, trials=trials, rng=1), 3
    )
    engine_quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
    harness = ProtocolMonteCarlo(9, 6, engine_quorum, block_length=1024, rng=1)
    out["sim.protocol_mc_trials_per_s"] = 200 / best(
        lambda: harness.read_availability(0.8, trials=200, rng=2), 3
    )
    return out
