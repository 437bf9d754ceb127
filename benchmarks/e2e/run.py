#!/usr/bin/env python3
"""End-to-end benchmark of the repro block store: one command, every metric.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --all [--trace 1] [--out FILE]

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the same tape twice in one process — untraced,
then with :mod:`tracer` installed — and reports the per-layer metrics.
The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); everything above it is the same
numbers as a table. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: set-ups per untraced run (``setup_s`` is their median): at least the
#: first number, and up to the second while they are cheap
SETUPS = (3, 7)
SETUP_BUDGET_S = 2.0
#: share of ``--seconds`` a traced run spends on its untraced half
UNTRACED_SHARE = 0.35


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def spread(values) -> float:
    """Interquartile range over median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Measurement:
    """The repeats of one workload under one tracer setting."""

    def __init__(self, setup_s: list[float], repeats: list, extra: dict) -> None:
        self.setup_s = setup_s
        self.repeats = repeats
        self.extra = extra
        self.ops = sum(r.ops for r in repeats)
        self.failed = sum(r.failed for r in repeats)
        self.rates = [r.ops / r.wall_s for r in repeats]
        self.read_ms = [x for r in repeats for x in r.read_ms]
        self.write_ms = [x for r in repeats for x in r.write_ms]
        self.read_p50_ms = [_percentile(r.read_ms, 50) for r in repeats]
        self.write_p50_ms = [_percentile(r.write_ms, 50) for r in repeats]
        self.digests = {r.digest for r in repeats}

    def counter(self, key: str) -> float:
        return sum(r.counters.get(key, 0) for r in self.repeats)

    def per_op(self, key: str) -> float:
        return self.counter(key) / self.ops

    def per_repeat(self, key: str) -> float:
        return self.counter(key) / len(self.repeats)

    def last(self, key: str) -> float:
        return float(self.repeats[-1].counters.get(key, 0))


def measure(cls, seed: int, seconds: float, tiny: bool, tracer=None, setups=(1, 1)):
    """Set up ``setups`` (at least, at most) times, then repeat the tape
    for ``seconds``."""
    setup_s: list[float] = []
    repeats: list = []
    extra: dict = {}
    workload = None
    try:
        while len(setup_s) < setups[0] or (
            len(setup_s) < setups[1] and sum(setup_s) < SETUP_BUDGET_S
        ):
            if workload is not None:
                workload.close()
            gc.collect()
            workload = cls(seed, tiny=tiny, tracer=tracer)
            started = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - started)
        if tracer is not None:
            tracer.reset()  # the warm-up pass is not part of the budget
        deadline = perf_counter() + seconds
        while len(repeats) < 2 or perf_counter() < deadline:
            gc.collect()
            repeats.append(workload.repeat())
        if tracer is None:
            extra = workload.extras()
    finally:
        if workload is not None:
            workload.close()
    return Measurement(setup_s, repeats, extra)


def check_digests(name: str, *measurements) -> None:
    """Deterministic workloads must produce one fingerprint, always."""
    from workloads import CorrectnessError

    digests = set().union(*(m.digests for m in measurements))
    if len(digests) > 1:
        raise CorrectnessError(
            f"{name}: repeats of one seeded tape disagree "
            f"({len(digests)} distinct result fingerprints)"
        )


def end_to_end(m: Measurement) -> dict[str, float]:
    """The least-disturbed repeat speaks for the run.

    Interference on a shared host is one-sided — it only ever slows a
    repeat down — and comes in bursts of seconds: over ten runs of one
    workload the best repeat's rate ranged 19 % where the median
    repeat's ranged 49 %. Set-up has no repeats to choose from within a
    set-up, so it stays the median of the run's set-ups.
    """
    return {
        "setup_s": statistics.median(m.setup_s),
        "ops_per_s": max(m.rates),
        "read_p50_ms": min(m.read_p50_ms),
        "write_p50_ms": min(m.write_p50_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(cls, plain: Measurement, traced: Measurement, tracer, micro: dict) -> dict:
    """Every per-layer metric; the ones a workload does not touch are 0."""
    from tracer import HARNESS, LAYERS

    out = dict(micro)
    table = tracer.layer_table()
    wall = tracer.wall_s
    reps = len(traced.repeats)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = table[layer]["self_s"] / reps
        out[f"{layer}.self_share"] = table[layer]["self_s"] / wall
        out[f"{layer}.calls"] = table[layer]["calls"] / reps
    ops = traced.ops
    counts = tracer.counts

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    out["gf.bytes_per_op"] = counts["gf_bytes"] / ops
    out["erasure.plan_cache_hit_ratio"] = ratio(
        traced.counter("plan_hits"), traced.counter("plan_misses")
    )
    out["erasure.decode_calls_per_op"] = (
        tracer.calls(
            "erasure",
            "MDSCode.decode",
            "MDSCode.decode_batch",
            "MDSCode.reconstruct_block",
            "MDSCode.repair",
        )
        / ops
    )
    out["erasure.delta_calls_per_op"] = tracer.calls("erasure", "MDSCode.delta") / ops
    out["cluster.events_per_op"] = traced.per_op("events")
    out["cluster.messages_per_op"] = traced.per_op("messages")
    out["cluster.bytes_per_op"] = traced.per_op("bytes")
    out["cluster.rpc_failures_per_op"] = traced.per_op("rpc_failures")
    out["runtime.rounds_per_op"] = traced.per_op("rounds")
    out["runtime.attempts_per_op"] = 1.0 + traced.per_op("client_retries")
    out["runtime.timeouts"] = traced.per_repeat("timeouts")
    out["runtime.retries"] = traced.per_repeat("retries")
    out["runtime.max_in_flight"] = traced.last("max_in_flight")
    out["runtime.queue_wait_ms"] = traced.last("queue_wait_ms")
    out["runtime.queue_utilization"] = traced.last("queue_utilization")
    out["runtime.queue_max_len"] = traced.last("queue_max_len")
    checks = counts["digest_calls"]
    rejections = traced.counter("verify_rejections")
    out["runtime.verify.checks_per_op"] = checks / ops
    out["runtime.verify.rejections"] = rejections / reps
    out["runtime.verify.useful_ratio"] = max(0.0, 1.0 - rejections / checks) if checks else 0.0
    out["runtime.verify.injected"] = traced.per_repeat("injected")
    for layer in ("sim", "storage", "services"):
        mine = layer == cls.tail_layer
        out[f"{layer}.read_p99_ms"] = _percentile(plain.read_ms, 99) if mine else 0.0
        out[f"{layer}.write_p99_ms"] = _percentile(plain.write_ms, 99) if mine else 0.0
    virtual_s = plain.counter("virtual_s")
    out["sim.ops_per_vs"] = plain.ops / virtual_s if virtual_s else 0.0
    out["services.wire.bytes_per_op"] = counts["wire_bytes"] / ops
    out["services.wire.frames_per_op"] = counts["wire_frames"] / ops
    out["services.messages_per_op"] = traced.per_op("transport_calls")
    out["services.transport.rtt_us"] = plain.extra.get("rtt_us", 0.0)
    out["analysis.occupancy_cache_hit_ratio"] = ratio(
        traced.counter("occupancy_hits"), traced.counter("occupancy_misses")
    )
    out["harness.self_share"] = table[HARNESS]["self_s"] / wall
    out["harness.trace_overhead_ratio"] = max(plain.rates) / max(traced.rates)
    out["harness.repeat_spread"] = spread(plain.rates)
    out["harness.samples"] = float(len(plain.read_ms) + len(plain.write_ms))
    return out


def run_workload(args, manifest: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, report for --out)."""
    from workloads import WORKLOADS, CorrectnessError

    cls = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}
    report: dict = {"workload": cls.name, "seed": args.seed, "trace": args.trace}
    try:
        if not args.trace:
            plain = measure(cls, args.seed, args.seconds, args.tiny, setups=SETUPS)
            check_digests(cls.name, plain)
            values = end_to_end(plain)
        else:
            import micro
            from tracer import Tracer

            host = micro.host_metrics(quick=args.tiny)
            rates = {**host, **micro.kernel_metrics(host, quick=args.tiny)}
            plain = measure(cls, args.seed, args.seconds * UNTRACED_SHARE, args.tiny)
            tracer = Tracer(record_spans=bool(args.trace_out))
            tracer.install()
            try:
                traced = measure(
                    cls, args.seed, args.seconds * (1 - UNTRACED_SHARE), args.tiny, tracer
                )
            finally:
                tracer.uninstall()
            check_digests(cls.name, plain, traced)
            values = per_layer(cls, plain, traced, tracer, rates)
            report["spans"] = tracer.span_table()
            if args.trace_out:
                tracer.write_chrome_trace(args.trace_out)
    except CorrectnessError as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, report
    if set(values) != set(units):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": True,
        "attempted": plain.ops,
        "failed": plain.failed,
        "metrics": metrics,
    }
    report.update(
        op_unit=cls.op_unit,
        clock=cls.clock,
        repeats=len(plain.repeats),
        repeat_ops_per_s=plain.rates,
        repeat_read_p50_ms=plain.read_p50_ms,
        repeat_write_p50_ms=plain.write_p50_ms,
        read_samples=len(plain.read_ms),
        write_samples=len(plain.write_ms),
        result=result,
    )
    return result, report


def print_table(report: dict) -> None:
    result = report["result"]
    print(
        f"# {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
        f"repeats={report['repeats']}  op = {report['op_unit']}  "
        f"latency clock = {report['clock']}  "
        f"samples: {report['read_samples']} reads, {report['write_samples']} writes"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:16.6g} {metric['unit']}")
    for row in report.get("spans", ()):
        print(
            f"  span {row['layer']:15s} {row['name']:45s} "
            f"calls={row['calls']:9d} self={row['self_s']:.4f}s"
        )


def run_all(args, manifest: dict) -> int:
    """Every workload in a process of its own (peak RSS is per process)."""
    reports, status = [], 0
    for workload in manifest["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            out = HERE / "out" / f"{workload['name']}.trace{trace}.json"
            out.parent.mkdir(exist_ok=True)
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out),
            ] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(command, check=False)
            status = status or done.returncode
            if done.returncode == 0:
                reports.append(json.loads(out.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", help="also write the report as JSON here")
    parser.add_argument("--trace-out", help="write the spans as Chrome-trace JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print(f"run.py: {ROOT} is not a checkout of the repository", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    if args.seconds is None:
        args.seconds = 0.2 if args.tiny else manifest["run_seconds"]
    if args.all:
        return run_all(args, manifest)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    for path in (ROOT / "src", HERE):
        sys.path.insert(0, str(path))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report = run_workload(args, manifest)
    if result["correct"]:
        print_table(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
