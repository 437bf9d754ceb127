"""Machine-readable perf harness: kernel + protocol throughput numbers.

``python -m repro.bench --json BENCH_perf.json`` runs every measurement
and writes one JSON document so the perf trajectory of the hot paths is
tracked from PR to PR (and regressions fail fast in the smoke test,
which runs the same harness on tiny sizes).

The harness is an ordered registry of independent *sections* (each
rebuilds its own inputs from ``rng_seed``): ``--sections NAME ...``
runs a subset, and ``--jobs N`` fans the sections across worker
processes — useful for quick structural runs; committed numbers should
stay serial so sections don't contend for cores.

The document has three sections:

* ``config``  — the sizes the harness ran at;
* ``results`` — per-benchmark throughput (MB/s of *useful* payload — data
  bytes encoded/decoded/updated — trials/s for the Monte-Carlo
  estimators, or simulated ops/s for the event-driven latency runtime),
  plus the raw seconds-per-call;
* ``speedups`` — measured ratios of the batched kernels against inline
  re-implementations of the seed (pre-kernel) code paths: Gauss-Jordan
  per decode + outer-product matmul, plus the exact-availability and
  optimizer paths against the 2^Nbnode subset-enumeration seed, plus
  the process-pool saturation sweep against its serial twin. These are
  the numbers the acceptance criteria quote.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.availability import write_availability
from repro.analysis.exact import exact_read_erc
from repro.analysis.occupancy import occupancy_cache_clear
from repro.analysis.optimizer import (
    ConfigPoint,
    _collect_result,
    _w_vectors,
    optimize_config,
)
from repro.erasure.code import MDSCode
from repro.errors import ConfigurationError, ReproError
from repro.gf.field import GF256
from repro.gf.linalg import inverse, matmul_reference
from repro.parallel import ParallelExecutor
from repro.quorum.trapezoid import (
    TrapezoidQuorum,
    default_shape_for_nbnode,
    shapes_for_nbnode,
)
from repro.sim.montecarlo import mc_read_availability_erc, mc_write_availability

__all__ = [
    "run_perf",
    "write_perf_json",
    "section_names",
    "DEFAULT_SIZES",
    "TINY_SIZES",
]

#: Production-shaped sizes: the acceptance benchmark (k=8, L=64 KiB) plus
#: a stripe batch wide enough to show dispatch amortization.
DEFAULT_SIZES = {
    "n": 12,
    "k": 8,
    "block_length": 1 << 16,  # 64 KiB blocks
    "stripes": 16,
    "small_block_length": 1 << 10,  # dispatch-bound regime for the batch APIs
    "small_stripes": 256,
    "decode_repeats": 32,
    "encode_repeats": 16,
    "mc_trials": 200_000,
    # exact enumeration vs occupancy engine: the paper's Fig-1 trapezoid
    # (Nbnode = 15, 2^15 subsets on the seed path).
    "enum_n": 22,
    "enum_k": 8,
    "enum_repeats": 3,
    # end-to-end optimizer: Nbnode = 13, ~60 (shape, w) points.
    "opt_n": 20,
    "opt_k": 8,
    "opt_p": 0.9,
    "opt_max_h": 2,
    "opt_repeats": 1,
    # event-driven runtime: closed-loop clients under churn (simulated
    # operations per wall-clock second through the full session layer).
    "lat_ops": 600,
    "lat_clients": 8,
    "lat_block_length": 256,
    "lat_repeats": 3,
    # verified read path: the same closed-loop scenario with a 3-node
    # metadata quorum and a byzantine faultload (digest checks + round
    # widening on the hot path); baseline is the fail-stop twin.
    "byz_ops": 400,
    "byz_clients": 8,
    "byz_block_length": 256,
    "byz_metadata_nodes": 3,
    "byz_fraction": 0.25,
    "byz_rate": 0.5,
    "byz_repeats": 3,
    # Byzantine metadata tier: the same closed loop with the hardened
    # 3f+1 signed quorum and f forging metadata liars (record tags +
    # f+1-matching resolution on every read); baseline is the fail-stop
    # unsigned tier with honest metadata.
    "mbyz_ops": 400,
    "mbyz_clients": 8,
    "mbyz_block_length": 256,
    "mbyz_f": 1,
    "mbyz_repeats": 3,
    # sharded runtime: aggregate sim-ops/s through the router front end,
    # four stripe families contending on per-node service queues.
    "shard_count": 4,
    "shard_ops": 800,
    "shard_clients": 16,
    "shard_block_length": 64,
    "shard_service": 0.0005,
    "shard_repeats": 2,
    # wall-clock backend: real operations per real second through the
    # AsyncCoordinator over the in-process transport (wire codec + event
    # loop included, sockets excluded).
    "wc_ops": 200,
    "wc_clients": 4,
    "wc_block_length": 64,
    "wc_repeats": 2,
    # event core: the event session layer — one pinned quorum
    # fan-out resubmitted by ec_clients concurrent closed-loop sessions,
    # the regime where per-message heap/timer bookkeeping dominates.
    "ec_ops": 100_000,
    "ec_nodes": 24,
    "ec_fanout": 24,
    "ec_need": 13,
    "ec_clients": 256,
    "ec_repeats": 1,
    # process-pool fan-out: the saturation sweep serial vs jobs=par_jobs
    # (balanced client counts so the points cost about the same; the
    # pool spawn overhead is inside the clock, honestly).
    "par_ops": 1200,
    "par_clients": (12, 14, 16, 18),
    "par_block_length": 64,
    "par_service": 0.0005,
    "par_jobs": 4,
    "par_repeats": 1,
}

#: Tiny sizes for the tier-1-adjacent smoke target (< 1 s total).
TINY_SIZES = {
    "n": 6,
    "k": 4,
    "block_length": 256,
    "stripes": 3,
    "small_block_length": 64,
    "small_stripes": 8,
    "decode_repeats": 3,
    "encode_repeats": 3,
    "mc_trials": 2_000,
    "enum_n": 12,
    "enum_k": 4,
    "enum_repeats": 2,
    "opt_n": 10,
    "opt_k": 6,
    "opt_p": 0.8,
    "opt_max_h": 2,
    "opt_repeats": 1,
    "lat_ops": 60,
    "lat_clients": 4,
    "lat_block_length": 32,
    "lat_repeats": 2,
    "byz_ops": 40,
    "byz_clients": 4,
    "byz_block_length": 32,
    "byz_metadata_nodes": 3,
    "byz_fraction": 0.25,
    "byz_rate": 0.5,
    "byz_repeats": 1,
    "mbyz_ops": 40,
    "mbyz_clients": 4,
    "mbyz_block_length": 32,
    "mbyz_f": 1,
    "mbyz_repeats": 1,
    "shard_count": 4,
    "shard_ops": 80,
    "shard_clients": 8,
    "shard_block_length": 32,
    "shard_service": 0.0005,
    "shard_repeats": 1,
    "wc_ops": 24,
    "wc_clients": 2,
    "wc_block_length": 32,
    "wc_repeats": 1,
    "ec_ops": 2_000,
    "ec_nodes": 12,
    "ec_fanout": 12,
    "ec_need": 7,
    "ec_clients": 64,
    "ec_repeats": 1,
    # tiny parallel_scaling stays serial-vs-jobs=2 so the smoke run
    # exercises the pool without paying four interpreter spawns.
    "par_ops": 60,
    "par_clients": (2, 3),
    "par_block_length": 32,
    "par_service": 0.0005,
    "par_jobs": 2,
    "par_repeats": 1,
}


#: ``--profile`` switch: when True, every section's warmup call runs
#: under cProfile and its top-15 cumulative functions print (the timed
#: repeats themselves stay unprofiled so the numbers are clean).
_PROFILE_SECTIONS = False


def _time_call(fn, repeats: int, label: str = "") -> float:
    """Best-of-runs seconds per call (one warmup call outside the clock).

    With :data:`_PROFILE_SECTIONS` set (the ``--profile`` flag), the
    warmup call is wrapped in ``cProfile`` and the section's top-15
    cumulative functions print before the timed repeats run.
    """
    if _PROFILE_SECTIONS:
        import cProfile
        import pstats

        prof = cProfile.Profile()
        prof.enable()
        fn()
        prof.disable()
        print(f"\n=== profile: {label or '<unnamed section>'} ===")
        pstats.Stats(prof).sort_stats("cumulative").print_stats(15)
    else:
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(seconds: float, payload_bytes: int) -> dict:
    return {
        "seconds_per_call": seconds,
        "payload_bytes": payload_bytes,
        "mb_per_s": payload_bytes / seconds / 1e6 if seconds > 0 else None,
    }


def _seed_encode(code: MDSCode, data: np.ndarray) -> np.ndarray:
    """The seed (pre-kernel) encode: outer-product reference matmul."""
    stripe = np.empty((code.n, data.shape[1]), dtype=code.field.dtype)
    stripe[: code.k] = data
    if code.m:
        stripe[code.k :] = matmul_reference(code.field, code.parity_matrix, data)
    return stripe


def _seed_decode(code: MDSCode, indices: list[int], frag: np.ndarray) -> np.ndarray:
    """The seed decode: Gauss-Jordan inversion on every call + reference matmul."""
    sub = code.generator[indices]
    return matmul_reference(code.field, inverse(code.field, sub), frag)


def _seed_optimize(n: int, k: int, p: float, max_h: int):
    """The seed (pre-occupancy) optimizer: one 2^Nbnode subset enumeration
    per (shape, w) candidate, exactly the old ``optimize_config`` loop."""
    points = []
    for shape in shapes_for_nbnode(n - k + 1, max_h=max_h):
        for w in _w_vectors(shape, 512):
            quorum = TrapezoidQuorum(shape, w)
            points.append(
                ConfigPoint(
                    shape=shape,
                    w=w,
                    write=float(write_availability(quorum, p)),
                    read=float(exact_read_erc(quorum, n, k, p, method="enumeration")),
                )
            )
    return _collect_result(points)


def _code_and_batch(cfg: dict, rng) -> tuple[MDSCode, np.ndarray]:
    """The shared (code, stripe batch) inputs a kernel section starts from."""
    code = MDSCode(cfg["n"], cfg["k"])
    batch = (
        rng.integers(
            0, 256, size=(cfg["stripes"], cfg["k"], cfg["block_length"]),
            dtype=np.int64,
        )
        .astype(np.uint8)
    )
    return code, batch


# --------------------------------------------------------------------- #
# sections: each is independent (own RNG from rng_seed, own inputs) and
# returns {"results": {...}, "speedups": {...}} — the unit of --sections
# filtering and of the --jobs process fan-out.
# --------------------------------------------------------------------- #


def _section_encode(cfg: dict, rng_seed: int) -> dict:
    rng = np.random.default_rng(rng_seed)
    code, batch = _code_and_batch(cfg, rng)
    data = batch[0]
    data_bytes = cfg["k"] * cfg["block_length"]
    stripes = cfg["stripes"]
    enc_reps = cfg["encode_repeats"]
    results: dict[str, dict] = {}

    t_seed_enc = _time_call(lambda: _seed_encode(code, data), enc_reps, "encode_seed")
    results["encode_seed"] = _entry(t_seed_enc, data_bytes)
    t_enc = _time_call(lambda: code.encode(data), enc_reps, "encode")
    results["encode"] = _entry(t_enc, data_bytes)
    t_enc_batch = _time_call(
        lambda: code.encode_batch(batch), max(1, enc_reps // 4), "encode_batch"
    )
    results["encode_batch"] = _entry(t_enc_batch, stripes * data_bytes)

    # small-block batch (the dispatch-bound regime fusion targets)
    s_len = cfg["small_block_length"]
    s_count = cfg["small_stripes"]
    small = (
        rng.integers(0, 256, size=(s_count, cfg["k"], s_len), dtype=np.int64)
        .astype(np.uint8)
    )
    small_bytes = s_count * cfg["k"] * s_len

    def encode_loop() -> None:
        for stripe_data in small:
            code.encode(stripe_data)

    t_small_loop = _time_call(encode_loop, max(1, enc_reps // 4), "encode_small_loop")
    results["encode_small_loop"] = _entry(t_small_loop, small_bytes)
    t_small_batch = _time_call(
        lambda: code.encode_batch(small), max(1, enc_reps // 4), "encode_small_batch"
    )
    results["encode_small_batch"] = _entry(t_small_batch, small_bytes)

    return {
        "results": results,
        "speedups": {
            "encode_vs_seed": t_seed_enc / t_enc,
            "encode_batch_vs_seed": (t_seed_enc * stripes) / t_enc_batch,
            "encode_small_batch_vs_loop": t_small_loop / t_small_batch,
        },
    }


def _section_decode(cfg: dict, rng_seed: int) -> dict:
    rng = np.random.default_rng(rng_seed)
    code, batch = _code_and_batch(cfg, rng)
    data = batch[0]
    n = cfg["n"]
    data_bytes = cfg["k"] * cfg["block_length"]
    stripes = cfg["stripes"]
    dec_reps = cfg["decode_repeats"]
    results: dict[str, dict] = {}

    # repeated survivor set: the acceptance benchmark
    stripe = code.encode(data)
    lost = [(3 * t) % n for t in range(code.m)] if code.m else []
    survivors = [i for i in range(n) if i not in lost][: cfg["k"]]
    frag = np.ascontiguousarray(stripe[survivors])
    t_seed_dec = _time_call(
        lambda: _seed_decode(code, survivors, frag), dec_reps, "decode_seed"
    )
    results["decode_seed"] = _entry(t_seed_dec, data_bytes)
    code.clear_plan_cache()
    t_dec = _time_call(
        lambda: code.decode(survivors, frag), dec_reps, "decode_repeated"
    )
    results["decode_repeated"] = _entry(t_dec, data_bytes)
    stripe_batch = code.encode_batch(batch)
    frag_batch = np.ascontiguousarray(stripe_batch[:, survivors])
    t_dec_batch = _time_call(
        lambda: code.decode_batch(survivors, frag_batch),
        max(1, dec_reps // 4),
        "decode_batch",
    )
    results["decode_batch"] = _entry(t_dec_batch, stripes * data_bytes)
    results["decode_plan_cache"] = code.plan_cache_info()

    return {
        "results": results,
        "speedups": {
            "decode_repeated_vs_seed": t_seed_dec / t_dec,
            "decode_batch_vs_seed": (t_seed_dec * stripes) / t_dec_batch,
        },
    }


def _section_update(cfg: dict, rng_seed: int) -> dict:
    rng = np.random.default_rng(rng_seed)
    code, batch = _code_and_batch(cfg, rng)
    length = cfg["block_length"]
    stripe = code.encode(batch[0])
    delta = rng.integers(0, 256, size=length, dtype=np.int64).astype(np.uint8)
    parity = stripe[cfg["k"]].copy() if code.m else np.zeros(length, dtype=np.uint8)

    def update() -> None:
        for j in range(code.k, code.n):
            code.apply_parity_delta(parity, j, 0, delta)

    t_upd = _time_call(update, cfg["encode_repeats"], "update_deltas")
    return {
        "results": {"update_deltas": _entry(t_upd, max(1, code.m) * length)},
        "speedups": {},
    }


def _section_mc(cfg: dict, rng_seed: int) -> dict:
    n, k = cfg["n"], cfg["k"]
    quorum = TrapezoidQuorum.uniform(default_shape_for_nbnode(n - k + 1))
    trials = cfg["mc_trials"]
    results: dict[str, dict] = {}
    t_mc_w = _time_call(
        lambda: mc_write_availability(quorum, 0.9, trials=trials, rng=123),
        3,
        "mc_write",
    )
    results["mc_write"] = {
        "seconds_per_call": t_mc_w,
        "trials": trials,
        "trials_per_s": trials / t_mc_w,
    }
    t_mc_r = _time_call(
        lambda: mc_read_availability_erc(quorum, n, k, 0.9, trials=trials, rng=123),
        3,
        "mc_read_erc",
    )
    results["mc_read_erc"] = {
        "seconds_per_call": t_mc_r,
        "trials": trials,
        "trials_per_s": trials / t_mc_r,
    }
    return {"results": results, "speedups": {}}


def _section_exact(cfg: dict, rng_seed: int) -> dict:
    e_n, e_k = cfg["enum_n"], cfg["enum_k"]
    e_quorum = TrapezoidQuorum.uniform(default_shape_for_nbnode(e_n - e_k + 1))
    e_reps = cfg["enum_repeats"]
    nbnode = e_quorum.shape.total_nodes
    results: dict[str, dict] = {}
    t_enum_seed = _time_call(
        lambda: exact_read_erc(e_quorum, e_n, e_k, 0.9, method="enumeration"),
        e_reps,
        "exact_enum_seed",
    )
    results["exact_enum_seed"] = {
        "seconds_per_call": t_enum_seed,
        "nbnode": nbnode,
    }

    def exact_occupancy_cold() -> None:
        occupancy_cache_clear()
        exact_read_erc(e_quorum, e_n, e_k, 0.9)

    t_enum_occ = _time_call(exact_occupancy_cold, e_reps, "exact_enum_occupancy")
    results["exact_enum_occupancy"] = {
        "seconds_per_call": t_enum_occ,
        "nbnode": nbnode,
    }
    # Warm tables: the sweep/optimizer regime, where only the p fold runs.
    t_enum_warm = _time_call(
        lambda: exact_read_erc(e_quorum, e_n, e_k, 0.9),
        e_reps,
        "exact_enum_occupancy_warm",
    )
    results["exact_enum_occupancy_warm"] = {
        "seconds_per_call": t_enum_warm,
        "nbnode": nbnode,
    }
    return {
        "results": results,
        "speedups": {"exact_enum_vs_seed": t_enum_seed / t_enum_occ},
    }


def _section_optimizer(cfg: dict, rng_seed: int) -> dict:
    o_n, o_k = cfg["opt_n"], cfg["opt_k"]
    o_p, o_max_h = cfg["opt_p"], cfg["opt_max_h"]
    o_reps = cfg["opt_repeats"]
    results: dict[str, dict] = {}
    t_opt_seed = _time_call(
        lambda: _seed_optimize(o_n, o_k, o_p, o_max_h), o_reps, "optimizer_seed"
    )
    evaluated = optimize_config(o_n, o_k, o_p, max_h=o_max_h).evaluated
    results["optimizer_seed"] = {
        "seconds_per_call": t_opt_seed,
        "evaluated": evaluated,
    }

    def optimize_cold() -> None:
        occupancy_cache_clear()
        optimize_config(o_n, o_k, o_p, max_h=o_max_h)

    t_opt = _time_call(optimize_cold, o_reps, "optimizer")
    results["optimizer"] = {
        "seconds_per_call": t_opt,
        "evaluated": evaluated,
    }
    return {
        "results": results,
        "speedups": {"optimizer_vs_seed": t_opt_seed / t_opt},
    }


def _section_latency_sim(cfg: dict, rng_seed: int) -> dict:
    lat_ops = cfg["lat_ops"]

    def latency_sim() -> None:
        from repro.api import (
            FaultloadSpec,
            LatencySpec,
            ScenarioRunner,
            ScenarioSpec,
            SystemSpec,
            WorkloadSpec,
        )

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            latency=LatencySpec(kind="lognormal"),
            workload=WorkloadSpec(
                num_ops=lat_ops, block_length=cfg["lat_block_length"]
            ),
            scenario=ScenarioSpec(
                kind="latency",
                clients=cfg["lat_clients"],
                think_time=0.05,
                horizon=60.0,  # generous: the op tape ends the run first
                faultload=FaultloadSpec(kind="churn", mtbf=5.0, mttr=1.0),
            ),
            seed=rng_seed,
        )
        ScenarioRunner(spec).run()

    t_lat = _time_call(latency_sim, cfg["lat_repeats"], "latency_sim")
    return {
        "results": {
            "latency_sim": {
                "seconds_per_call": t_lat,
                "ops": lat_ops,
                "ops_per_s": lat_ops / t_lat,
            }
        },
        "speedups": {},
    }


def _section_byzantine(cfg: dict, rng_seed: int) -> dict:
    byz_ops = cfg["byz_ops"]

    def byzantine_sim(verified: bool):
        from repro.api import (
            FaultloadSpec,
            LatencySpec,
            MetadataSpec,
            ScenarioRunner,
            ScenarioSpec,
            SystemSpec,
            WorkloadSpec,
        )

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            metadata=(
                MetadataSpec(nodes=cfg["byz_metadata_nodes"])
                if verified
                else None
            ),
            latency=LatencySpec(kind="lognormal"),
            workload=WorkloadSpec(
                num_ops=byz_ops, block_length=cfg["byz_block_length"]
            ),
            scenario=ScenarioSpec(
                kind="latency",
                clients=cfg["byz_clients"],
                think_time=0.05,
                horizon=60.0,
                faultload=FaultloadSpec(
                    kind="byzantine",
                    byzantine_fraction=cfg["byz_fraction"],
                    corruption_mode="payload",
                    corruption_rate=cfg["byz_rate"],
                ),
            ),
            seed=rng_seed,
        )
        return ScenarioRunner(spec).run()

    byz_reps = cfg["byz_repeats"]
    t_byz = _time_call(lambda: byzantine_sim(True), byz_reps, "byzantine_overhead")
    t_byz_base = _time_call(
        lambda: byzantine_sim(False), byz_reps, "byzantine_baseline"
    )
    return {
        "results": {
            "byzantine_overhead": {
                "seconds_per_call": t_byz,
                "ops": byz_ops,
                "ops_per_s": byz_ops / t_byz,
                # informational: the fail-stop twin of the same run, so
                # the cost of digest checks + the metadata quorum is
                # read off directly.
                "baseline_seconds_per_call": t_byz_base,
                "overhead_ratio": t_byz / t_byz_base if t_byz_base > 0 else None,
            }
        },
        "speedups": {},
    }


def _section_metadata_byzantine(cfg: dict, rng_seed: int) -> dict:
    mbyz_ops = cfg["mbyz_ops"]

    def metadata_byzantine_sim(hardened: bool):
        from repro.api import (
            FaultloadSpec,
            LatencySpec,
            MetadataSpec,
            ScenarioRunner,
            ScenarioSpec,
            SystemSpec,
            WorkloadSpec,
        )

        f = cfg["mbyz_f"]
        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            metadata=(
                MetadataSpec(nodes=3 * f + 1, f=f)
                if hardened
                else MetadataSpec(nodes=cfg["byz_metadata_nodes"])
            ),
            latency=LatencySpec(kind="lognormal"),
            workload=WorkloadSpec(
                num_ops=mbyz_ops, block_length=cfg["mbyz_block_length"]
            ),
            scenario=ScenarioSpec(
                kind="latency",
                clients=cfg["mbyz_clients"],
                think_time=0.05,
                horizon=60.0,
                faultload=FaultloadSpec(
                    kind="byzantine",
                    byzantine_fraction=0.0,
                    metadata_liars=f if hardened else 0,
                    metadata_mode="forge",
                ),
            ),
            seed=rng_seed,
        )
        return ScenarioRunner(spec).run()

    mbyz_reps = cfg["mbyz_repeats"]
    t_mbyz = _time_call(
        lambda: metadata_byzantine_sim(True), mbyz_reps, "metadata_byzantine"
    )
    t_mbyz_base = _time_call(
        lambda: metadata_byzantine_sim(False), mbyz_reps, "metadata_baseline"
    )
    return {
        "results": {
            "metadata_byzantine": {
                "seconds_per_call": t_mbyz,
                "ops": mbyz_ops,
                "ops_per_s": mbyz_ops / t_mbyz,
                "f": cfg["mbyz_f"],
                # informational: the fail-stop unsigned tier on honest
                # metadata, so the cost of record tags + f+1-matching
                # reads under f live forgers is read off directly.
                "baseline_seconds_per_call": t_mbyz_base,
                "overhead_ratio": (
                    t_mbyz / t_mbyz_base if t_mbyz_base > 0 else None
                ),
            }
        },
        "speedups": {},
    }


def _saturation_spec(cfg: dict, rng_seed: int, prefix: str, clients: tuple):
    """The sharded saturation spec the throughput sections share."""
    from repro.api import (
        LatencySpec,
        ScenarioSpec,
        ServiceTimeSpec,
        ShardingSpec,
        SystemSpec,
        WorkloadSpec,
    )

    return SystemSpec.trapezoid(
        9, 6, 2, 1, 1, 2,
        latency=LatencySpec(kind="lognormal"),
        sharding=ShardingSpec(shards=cfg["shard_count"]),
        service=ServiceTimeSpec(kind="fixed", time=cfg[f"{prefix}_service"]),
        workload=WorkloadSpec(
            num_ops=cfg[f"{prefix}_ops"],
            block_length=cfg[f"{prefix}_block_length"],
        ),
        scenario=ScenarioSpec(
            kind="saturation",
            client_counts=clients,
            horizon=120.0,
        ),
        seed=rng_seed,
    )


def _section_sharded_throughput(cfg: dict, rng_seed: int) -> dict:
    from repro.api import ScenarioRunner

    shard_ops = cfg["shard_ops"]
    spec = _saturation_spec(
        cfg, rng_seed, "shard", (cfg["shard_clients"],)
    )
    t_shard = _time_call(
        lambda: ScenarioRunner(spec).run(),
        cfg["shard_repeats"],
        "sharded_throughput",
    )
    return {
        "results": {
            "sharded_throughput": {
                "seconds_per_call": t_shard,
                "ops": shard_ops,
                "shards": cfg["shard_count"],
                "clients": cfg["shard_clients"],
                "ops_per_s": shard_ops / t_shard,
            }
        },
        "speedups": {},
    }


def _section_wallclock(cfg: dict, rng_seed: int) -> dict:
    wc_ops = cfg["wc_ops"]

    def wallclock_inproc() -> None:
        from repro.api import (
            ScenarioSpec,
            SystemSpec,
            TransportSpec,
            WorkloadSpec,
        )
        from repro.services import run_wallclock

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            workload=WorkloadSpec(
                num_ops=wc_ops, block_length=cfg["wc_block_length"]
            ),
            transport=TransportSpec(kind="inproc"),
            scenario=ScenarioSpec(
                kind="wallclock",
                clients=cfg["wc_clients"],
                think_time=0.0,
                horizon=300.0,
            ),
            seed=rng_seed,
        )
        run_wallclock(spec)

    t_wc = _time_call(wallclock_inproc, cfg["wc_repeats"], "wallclock_inproc")
    return {
        "results": {
            "wallclock_inproc": {
                "seconds_per_call": t_wc,
                "ops": wc_ops,
                "clients": cfg["wc_clients"],
                "ops_per_s": wc_ops / t_wc,
            }
        },
        "speedups": {},
    }


def _section_event_core(cfg: dict, rng_seed: int) -> dict:
    from repro.cluster.cluster import Cluster
    from repro.cluster.events import Simulator
    from repro.cluster.network import FixedLatency, Network
    from repro.runtime.event import EventCoordinator
    from repro.runtime.rounds import Request, RetryPolicy, Round

    ec_ops = cfg["ec_ops"]
    nodes = cfg["ec_nodes"]
    fanout = cfg["ec_fanout"]
    clients = min(cfg["ec_clients"], ec_ops)
    events = [0]

    def event_core_run() -> None:
        sim = Simulator()
        cluster = Cluster(nodes, network=Network(latency=FixedLatency(0.001)))
        for i in range(nodes):
            cluster.nodes[i].put_data(i, np.zeros(8, dtype=np.uint8), 1)
        coordinator = EventCoordinator(
            cluster, sim, rng=1, policy=RetryPolicy(timeout=0.05, retries=1)
        )
        # One pinned fan-out, reused every round: the section measures
        # the session layer (scheduling, delivery, quorum bookkeeping),
        # not request-object construction.
        requests = [
            Request(i % nodes, "data_version", (i % nodes,))
            for i in range(fanout)
        ]
        done = [0]

        def plan():
            outcome = yield Round(
                requests, need=cfg["ec_need"], kind="version-query"
            )
            return outcome

        def resubmit(_result) -> None:
            done[0] += 1
            if done[0] + clients <= ec_ops:
                coordinator.submit(plan(), resubmit)

        for _ in range(clients):
            coordinator.submit(plan(), resubmit)
        while sim.step():
            pass
        events[0] = sim.processed

    t_ec = _time_call(event_core_run, cfg["ec_repeats"], "event_core")
    return {
        "results": {
            "event_core": {
                "seconds_per_call": t_ec,
                "ops": ec_ops,
                "fanout": fanout,
                "need": cfg["ec_need"],
                "clients": clients,
                "events_per_op": events[0] / ec_ops,
                "ops_per_s": ec_ops / t_ec,
            },
        },
        "speedups": {},
    }


def _section_parallel_scaling(cfg: dict, rng_seed: int) -> dict:
    """Serial vs process-pool saturation sweep, byte-identity asserted.

    The timed parallel runs share one warm :class:`ParallelExecutor`:
    worker spawn + interpreter import is paid by the warmup call, so
    the ratio is the steady-state scaling of the fan-out itself, not
    the one-time pool cost. ``host_cpus`` is recorded so the compare
    gate can enforce the ratio only where the cores to realize it
    exist (a 1-CPU host cannot beat serial; its entry is
    informational).
    """
    from repro.api import ScenarioRunner
    from repro.parallel import ParallelExecutor

    jobs = cfg["par_jobs"]
    clients = tuple(cfg["par_clients"])
    spec = _saturation_spec(cfg, rng_seed, "par", clients)
    outputs: dict[str, str] = {}
    reps = cfg["par_repeats"]
    t_serial = _time_call(
        lambda: outputs.__setitem__("serial", ScenarioRunner(spec).run().to_json()),
        reps,
        "parallel_scaling_serial",
    )
    with ParallelExecutor(jobs) as pool:
        t_par = _time_call(
            lambda: outputs.__setitem__(
                "parallel",
                ScenarioRunner(spec, executor=pool).run().to_json(),
            ),
            reps,
            "parallel_scaling",
        )
    if outputs["serial"] != outputs["parallel"]:
        raise ReproError(
            "parallel_scaling: jobs="
            f"{jobs} result diverged from the serial run — the "
            "determinism contract is broken"
        )
    return {
        "results": {
            "parallel_scaling": {
                "seconds_per_call": t_par,
                "serial_seconds_per_call": t_serial,
                "jobs": jobs,
                "host_cpus": os.cpu_count() or 1,
                "points": len(clients),
                "ops": cfg["par_ops"],
                "speedup": t_serial / t_par if t_par > 0 else None,
                "byte_identical": True,
                "warm_pool": True,
            }
        },
        "speedups": {
            "parallel_vs_serial_saturation": (
                t_serial / t_par if t_par > 0 else 0.0
            ),
        },
    }


#: Ordered section registry: names are the --sections vocabulary and the
#: fan-out unit of --jobs; results assemble in this order regardless of
#: which worker finishes first.
_SECTIONS = {
    "encode": _section_encode,
    "decode": _section_decode,
    "update": _section_update,
    "mc": _section_mc,
    "exact": _section_exact,
    "optimizer": _section_optimizer,
    "latency_sim": _section_latency_sim,
    "byzantine": _section_byzantine,
    "metadata_byzantine": _section_metadata_byzantine,
    "sharded_throughput": _section_sharded_throughput,
    "wallclock": _section_wallclock,
    "event_core": _section_event_core,
    "parallel_scaling": _section_parallel_scaling,
}

#: Sections that must run in the parent process: parallel_scaling opens
#: its own pool, and nesting pools inside pool workers is not supported.
_INLINE_ONLY = frozenset({"parallel_scaling"})


def section_names() -> tuple[str, ...]:
    """The valid --sections names, in document order."""
    return tuple(_SECTIONS)


def _select_sections(sections) -> list[str]:
    """Validate a --sections filter; unknown names fail with the list."""
    if sections is None:
        return list(_SECTIONS)
    requested = list(sections)
    unknown = [name for name in requested if name not in _SECTIONS]
    if unknown:
        raise ConfigurationError(
            f"unknown perf sections: {sorted(set(unknown))} "
            f"(valid: {list(_SECTIONS)})"
        )
    # Document order, regardless of how the filter was spelled.
    chosen = set(requested)
    return [name for name in _SECTIONS if name in chosen]


def _section_task(payload: dict) -> dict:
    """One section, as a process-pool task (--jobs fan-out unit)."""
    return _SECTIONS[payload["name"]](payload["cfg"], payload["rng_seed"])


def run_perf(
    sizes: dict | None = None,
    rng_seed: int = 0,
    profile: bool = False,
    sections: list | None = None,
    jobs: int = 0,
) -> dict:
    """Run the selected benchmarks; returns the JSON-ready document.

    ``sections`` filters the registry (unknown names raise with the
    valid list); ``jobs`` fans the sections across worker processes
    (``profile=True`` forces serial — the cProfile switch is per
    process). ``profile=True`` (the CLI ``--profile`` flag) prints each
    section's top-15 cumulative-time functions from a cProfile of its
    warmup call.
    """
    global _PROFILE_SECTIONS
    _PROFILE_SECTIONS = profile
    try:
        return _run_perf(
            sizes, rng_seed, sections=sections, jobs=0 if profile else jobs
        )
    finally:
        _PROFILE_SECTIONS = False


def _run_perf(
    sizes: dict | None,
    rng_seed: int,
    sections: list | None = None,
    jobs: int = 0,
) -> dict:
    cfg = dict(DEFAULT_SIZES if sizes is None else sizes)
    names = _select_sections(sections)
    outs: dict[str, dict] = {}
    pooled = [name for name in names if name not in _INLINE_ONLY]
    inline = [name for name in names if name in _INLINE_ONLY]
    with ParallelExecutor(jobs) as pool:
        payloads = [
            {"name": name, "cfg": cfg, "rng_seed": rng_seed} for name in pooled
        ]
        for name, out in zip(pooled, pool.map(_section_task, payloads)):
            outs[name] = out
    for name in inline:
        outs[name] = _SECTIONS[name](cfg, rng_seed)
    results: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    for name in names:
        results.update(outs[name]["results"])
        speedups.update(outs[name]["speedups"])
    return {
        "schema": "repro-bench-perf/1",
        "config": cfg,
        "sections": names,
        "results": results,
        "speedups": speedups,
    }


def write_perf_json(
    path: str | Path,
    sizes: dict | None = None,
    quiet: bool = False,
    profile: bool = False,
    sections: list | None = None,
    jobs: int = 0,
) -> Path:
    """Run the harness and write ``path``; returns the path."""
    doc = run_perf(sizes=sizes, profile=profile, sections=sections, jobs=jobs)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not quiet:
        for name, entry in doc["results"].items():
            mbs = entry.get("mb_per_s")
            tps = entry.get("trials_per_s")
            ops = entry.get("ops_per_s")
            if mbs is not None:
                print(f"{name:24s} {mbs:10.1f} MB/s")
            elif tps is not None:
                print(f"{name:24s} {tps:10.0f} trials/s")
            elif ops is not None:
                print(f"{name:24s} {ops:10.0f} ops/s")
        for name, ratio in doc["speedups"].items():
            print(f"{name:28s} {ratio:6.1f}x")
    return path
