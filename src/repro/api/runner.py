"""Spec-driven scenario execution with tidy, JSON-dumpable results.

:class:`ScenarioRunner` is the facade's execution engine: it takes one
:class:`~repro.api.spec.SystemSpec`, runs the ``_run_<kind>`` method of
``spec.scenario.kind`` (the kinds are the keys of
``ScenarioSpec._KIND_FIELDS``) and returns a
:class:`ScenarioResult` whose ``to_json()`` output embeds the
originating spec — a results file is therefore a reproducible artifact:
``SystemSpec.from_dict(result["spec"])`` re-runs the exact experiment.

Determinism: all randomness is derived from ``spec.seed`` through
:func:`repro.cluster.rng.spawn_rngs` child streams. Stream 0 is reserved
for :func:`~repro.api.build.build_system` (engine/initialization data);
the runner consumes streams 1+ for workloads, schedules, traces and
Monte-Carlo sampling, so the individual sub-experiments stay independent
and an identical spec reproduces identical numbers end to end.

Parallelism: ``ScenarioRunner(spec, jobs=N)`` fans the independent units
of the saturation / sweep / availability / protocol_mc / comparison /
optimize kinds across a :class:`~repro.parallel.ParallelExecutor`
process pool. ``jobs`` is an *execution* option, never part of the spec:
every unit re-derives its child streams positionally from ``spec.seed``
(a unit crosses the process boundary as spec JSON plus the unit method's
name and arguments), so the same spec + seed produces byte-identical
results at any parallelism.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.analysis.optimizer import ConfigPoint, optimize_config_sweep
from repro.api.build import build_sharded_system, build_system
from repro.api.registry import protocol_entry, protocol_names
from repro.api.spec import (
    FaultloadSpec,
    LatencySpec,
    ServiceTimeSpec,
    ShardingSpec,
    SystemSpec,
    build_trapezoid_quorum,
)
from repro.cluster.failures import exponential_trace
from repro.cluster.node import ByzantineBehavior, MetadataByzantineBehavior
from repro.cluster.rng import make_rng, spawn_rngs
from repro.parallel import ParallelExecutor
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.sim.comparative import make_schedule, run_comparison
from repro.sim.metrics import MCEstimate
from repro.sim.protocol_mc import ProtocolMonteCarlo
from repro.sim.saturation import SaturationPoint, knee_clients, run_saturation_point
from repro.sim.sweep import availability_sweep
from repro.sim.trace_sim import (
    ClosedLoopConfig,
    PartitionWindow,
    ShardedClosedLoopSimulation,
)
from repro.sim.workloads import (
    OpKind,
    sequential_workload,
    uniform_workload,
    vm_disk_workload,
    write_payload,
    zipf_workload,
)

__all__ = ["ScenarioResult", "ScenarioRunner", "run_spec"]

#: number of deterministic child streams carved out of ``spec.seed``.
#: SeedSequence.spawn keys by child index, so growing this list appends
#: new independent streams without perturbing streams 0..9 (existing
#: scenario kinds keep reproducing their exact historical results).
#: Stream 10 feeds the per-node service queues, stream 11 the per-point
#: streams of the saturation sweep, stream 12 the Byzantine faultload
#: (node choice + per-node corruption coins — untouched for every other
#: faultload kind, so rate-0 / kind-"none" runs stay bit-identical).
#: Stream 13 arms the *metadata* liars (``metadata_liars`` > 0) — again
#: appended, and consumed only when that field is set, so every older
#: spec replays its exact historical results.
_NUM_STREAMS = 14

#: protocol_mc trial chunks per operation: the fan-out grain of the
#: protocol-MC scenario. Fixed (not derived from ``jobs``) so the
#: stream layout — child c of stream 3 feeds chunk c — and therefore
#: the sampled numbers are independent of the worker count.
_PROTOCOL_MC_CHUNKS = 8


@dataclass
class ScenarioResult:
    """Tidy scenario output: the spec that produced it plus the data."""

    kind: str
    protocol: str
    spec: dict
    data: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "protocol": self.protocol,
            "spec": self.spec,
            "data": self.data,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        payload = json.loads(text)
        return cls(
            kind=payload["kind"],
            protocol=payload["protocol"],
            spec=payload["spec"],
            data=payload["data"],
        )

    def replay_spec(self) -> SystemSpec:
        """The embedded spec as a live object (for exact re-runs)."""
        return SystemSpec.from_dict(self.spec)


def _estimate_dict(est: MCEstimate) -> dict:
    lo, hi = est.ci95()
    return {
        "mean": est.mean,
        "successes": est.successes,
        "trials": est.trials,
        "ci95": [lo, hi],
    }


def _poisson_arrivals(rate: float, horizon: float, rng) -> np.ndarray:
    """Poisson arrival times at ``rate`` over [0, horizon)."""
    draws = max(16, int(rate * horizon * 1.5) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=draws))
    while times[-1] < horizon:
        more = rng.exponential(1.0 / rate, size=draws)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < horizon]


def _make_workload(spec: SystemSpec, num_blocks: int, rng) -> list:
    wl = spec.workload
    generators = {
        "uniform": lambda: uniform_workload(
            wl.num_ops, num_blocks, wl.read_fraction, rng=rng
        ),
        "sequential": lambda: sequential_workload(
            wl.num_ops, num_blocks, wl.read_fraction, rng=rng
        ),
        "zipf": lambda: zipf_workload(
            wl.num_ops, num_blocks, wl.read_fraction, alpha=wl.alpha, rng=rng
        ),
        "vm_disk": lambda: vm_disk_workload(
            wl.num_ops,
            num_blocks,
            wl.read_fraction,
            burst_length=wl.burst_length,
            hot_fraction=wl.hot_fraction,
            rng=rng,
        ),
    }
    return generators[wl.kind]()


class ScenarioRunner:
    """Execute the scenario one spec describes.

    ``transports`` only matters to the ``wallclock`` kind: a
    ``{node_id: transport}`` map pointing at an already-running service
    fleet (e.g. ``repro serve``); the measured half then drives that
    fleet — mirroring the initialized state over the wire first —
    instead of spawning services in-process.

    ``jobs`` fans the independent units of the parallelizable kinds
    (saturation points, sweep/availability MC columns, protocol_mc trial
    chunks, optimizer shape families, comparison sub-runs) across a
    process pool; ``jobs <= 1`` runs the same units inline.
    ``jobs`` is an execution option: it never enters the spec, the
    result data, or any hash, and every worker count produces the byte
    stream ``jobs=0`` produces.
    """

    def __init__(self, spec: SystemSpec, *, transports=None, jobs: int = 0) -> None:
        self.spec = spec
        self.transports = transports
        self.jobs = jobs
        self._streams: list = []
        self._executor: ParallelExecutor | None = None
        self._protocol_mc: ProtocolMonteCarlo | None = None

    # ------------------------------------------------------------------ #

    def run(self) -> ScenarioResult:
        """Run ``_run_<kind>`` for ``spec.scenario.kind``; tidy results.

        The spec has already checked everything the kind reads, so this
        only runs it. Idempotent: the seed-derived child streams are
        respawned on every call, so ``run()`` twice on one runner returns
        identical results. Stream 0 belongs to build_system; see the
        module docstring.
        """
        self._streams = self._seed_streams()
        self._executor = ParallelExecutor(self.jobs)
        try:
            data = getattr(self, f"_run_{self.spec.scenario.kind}")()
        finally:
            self._executor.close()
            self._executor = None
        return ScenarioResult(
            kind=self.spec.scenario.kind,
            protocol=self.spec.protocol,
            spec=self.spec.to_dict(),
            data=data,
        )

    def _seed_streams(self) -> list:
        """The :data:`_NUM_STREAMS` child streams of ``spec.seed``, fresh."""
        return spawn_rngs(make_rng(self.spec.seed), _NUM_STREAMS)

    def _fan_out(self, unit: str, calls: list[tuple]) -> list:
        """``[getattr(self, unit)(*args) for args in calls]``, maybe pooled.

        Without a parallel executor (``jobs <= 1``, or called outside
        :meth:`run`) the unit method runs here, on this runner. In a
        pool each call travels as spec JSON plus ``(unit, args)`` to
        :func:`_run_unit`, which rebuilds a runner in the worker and
        calls the same method. A unit derives its streams from
        ``spec.seed`` and its arguments alone, so both roads give the
        same bytes.
        """
        if self._executor is None or not self._executor.parallel:
            method = getattr(self, unit)
            return [method(*args) for args in calls]
        spec = self.spec.to_dict()
        return self._executor.map(_run_unit, [(spec, unit, args) for args in calls])

    # ------------------------------------------------------------------ #
    # scenario kinds
    # ------------------------------------------------------------------ #

    def _run_smoke(self) -> dict:
        """Run the workload through the engine on a healthy cluster."""
        built = build_system(self.spec)
        built.initialize()
        ops = _make_workload(self.spec, built.num_blocks, self._streams[1])
        reads = writes = reads_ok = writes_ok = 0
        for op in ops:
            if op.kind is OpKind.READ:
                reads += 1
                reads_ok += bool(built.engine.read_block(op.block).success)
            else:
                writes += 1
                value = write_payload(
                    op.payload_seed, self.spec.workload.block_length
                )
                writes_ok += bool(built.engine.write_block(op.block, value).success)
        return {
            "reads": reads,
            "reads_ok": reads_ok,
            "writes": writes,
            "writes_ok": writes_ok,
            "messages": built.cluster.network.stats.messages,
        }

    def _run_availability(self) -> dict:
        """Closed-form / exact / Monte-Carlo sweep over ``scenario.ps``."""
        quorum = build_trapezoid_quorum(self.spec.quorum)
        records = availability_sweep(
            quorum,
            self.spec.code.n,
            self.spec.code.k,
            self.spec.scenario.ps,
            mc_trials=self.spec.scenario.trials,
            rng=self._streams[2],
            executor=self._executor,
        )
        return {"records": [asdict(r) for r in records]}

    def _run_protocol_mc(self) -> dict:
        """Per-trial execution of the real engine under sampled failures.

        The trial budget splits into :data:`_PROTOCOL_MC_CHUNKS` chunks
        per operation, each sampling on its own child of stream 3 (see
        :meth:`protocol_mc_chunk` for the layout); the chunk is the
        fan-out unit, and because the layout is fixed by the spec alone
        the estimates are identical at any worker count.
        """
        p = self.spec.cluster.p
        trials = self.spec.scenario.trials
        num_chunks = min(trials, _PROTOCOL_MC_CHUNKS)
        base, extra = divmod(trials, num_chunks)
        # Inline, every chunk runs on this runner's kept harness; in a
        # pool each worker's runner builds its own. Same numbers either
        # way (see protocol_mc_chunk).
        outs = self._fan_out(
            "protocol_mc_chunk",
            [
                (op, i, num_chunks, base + (1 if i < extra else 0))
                for op in ("read", "write")
                for i in range(num_chunks)
            ],
        )
        read = MCEstimate(
            sum(o[0] for o in outs[:num_chunks]),
            sum(o[1] for o in outs[:num_chunks]),
        )
        write = MCEstimate(
            sum(o[0] for o in outs[num_chunks:]),
            sum(o[1] for o in outs[num_chunks:]),
        )
        return {
            "p": p,
            "read": _estimate_dict(read),
            "write": _estimate_dict(write),
        }

    def protocol_mc_chunk(
        self, op: str, index: int, num_chunks: int, chunk_trials: int
    ) -> list[int]:
        """One protocol_mc trial chunk: ``[successes, trials]``.

        Stream layout: stream 3 spawns ``1 + 2 * num_chunks`` children —
        child 0 seeds the harness (stripe payload data), children
        ``1 .. num_chunks`` sample the read chunks and the rest the write
        chunks. Child selection depends only on (op, index, num_chunks),
        never on which worker runs the chunk, and the streams are
        respawned from ``spec.seed`` here so inline and worker execution
        see identical state.

        The trapezoid harness is built on the first chunk and kept: child
        0 does not depend on the chunk, and every
        :class:`ProtocolMonteCarlo` call hands the cluster back synced at
        version 0, so a chunk computes the same numbers on a kept harness
        (inline execution) as on a fresh one (one runner per task in a
        worker) while the encoded stripes, the engines and the
        decode-plan cache survive from chunk to chunk.
        """
        children = spawn_rngs(self._seed_streams()[3], 1 + 2 * num_chunks)
        offset = 1 + (num_chunks if op == "write" else 0)
        chunk_rng = children[offset + index]
        p = self.spec.cluster.p
        entry = protocol_entry(self.spec.protocol)
        if entry.needs_trapezoid:
            if self._protocol_mc is None:
                self._protocol_mc = ProtocolMonteCarlo(
                    self.spec.code.n,
                    self.spec.code.k,
                    build_trapezoid_quorum(self.spec.quorum),
                    block_length=self.spec.workload.block_length,
                    rng=children[0],
                    stripes=self.spec.placement.stripes,
                )
            mc = self._protocol_mc
            variant = "erc" if self.spec.protocol == "trap-erc" else "fr"
            if op == "read":
                est = mc.read_availability(
                    p, trials=chunk_trials, protocol=variant, rng=chunk_rng
                )
            else:
                est = mc.write_availability(
                    p, trials=chunk_trials, protocol=variant, rng=chunk_rng
                )
        else:
            est = self._generic_protocol_mc_chunk(op, p, chunk_trials, chunk_rng)
        return [est.successes, est.trials]

    def _generic_protocol_mc_chunk(
        self, op: str, p: float, trials: int, rng
    ) -> MCEstimate:
        """Snapshot-model MC chunk for engines ProtocolMonteCarlo skips.

        Same discipline as :class:`ProtocolMonteCarlo`: one vectorized
        alive draw, reads on synced state, full re-initialization after
        every (state-mutating) write trial.
        """
        built = build_system(self.spec)
        data = built.initialize()
        alive = rng.random((trials, len(built.cluster))) < p
        successes = 0
        if op == "read":
            for t in range(trials):
                built.cluster.apply_alive_vector(alive[t])
                successes += bool(built.engine.read_block(0).success)
            built.cluster.recover_all()
        else:
            length = self.spec.workload.block_length
            for t in range(trials):
                built.cluster.apply_alive_vector(alive[t])
                value = rng.integers(0, 256, length, dtype=np.int64).astype(
                    np.uint8
                )
                successes += bool(built.engine.write_block(0, value).success)
                built.cluster.recover_all()
                built.initialize(data)  # reset to synced version-0 replicas
        return MCEstimate(successes, trials)

    def _run_trace(self) -> dict:
        """History-model run: Poisson arrivals over an exponential trace.

        The one history driver in open-loop mode on the event core at a
        fixed 0 s message latency, so every operation completes at its
        arrival instant. ``placement.stripes`` shards make the volume
        (logical blocks follow the router's interleaved map). Stream 4
        draws the failure trace over all ``cluster.num_nodes`` data nodes
        (node by node, so node ids below ``code.n`` get the same churn at
        any cluster width), stream 5 a non-uniform workload tape (cycled
        to the arrival count), stream 6 the initial data, then the
        arrivals, then the uniform ops.
        """
        cluster = self.spec.cluster
        scenario, workload = self.spec.scenario, self.spec.workload
        stripes = self.spec.placement.stripes
        trace = exponential_trace(
            cluster.num_nodes,
            cluster.mtbf,
            cluster.mttr,
            scenario.horizon,
            rng=self._streams[4],
        )
        system = build_sharded_system(
            self.spec.replace(
                latency=LatencySpec(kind="fixed", delay=0.0),
                sharding=ShardingSpec(shards=stripes),
            )
        )
        rng = self._streams[6]
        data = system.initialize(
            rng.integers(
                0, 256, size=(stripes, self.spec.code.k, workload.block_length),
                dtype=np.int64,
            ).astype(np.uint8)
        )
        arrivals = _poisson_arrivals(scenario.op_rate, scenario.horizon, rng)
        if workload.kind == "uniform":
            ops = uniform_workload(
                len(arrivals), system.num_blocks, workload.read_fraction, rng=rng
            )
        else:
            tape = _make_workload(self.spec, system.num_blocks, self._streams[5])
            ops = (tape * -(-len(arrivals) // len(tape)))[: len(arrivals)]
        tally = ShardedClosedLoopSimulation(
            system.cluster,
            system.router,
            ops,
            config=ClosedLoopConfig(
                horizon=scenario.horizon,
                block_length=workload.block_length,
                repair_interval=scenario.repair_interval,
            ),
            trace=trace,
            repairs=(
                system.repairs if scenario.repair_interval is not None else None
            ),
            arrivals=arrivals,
            initial=data,
        ).run()
        read_ok, decoded = tally.reads_succeeded, tally.reads_decoded
        return {
            "reads_attempted": tally.reads_attempted,
            "reads_succeeded": read_ok,
            "reads_direct": read_ok - decoded,
            "reads_decoded": decoded,
            "writes_attempted": tally.writes_attempted,
            "writes_succeeded": tally.writes_succeeded,
            "consistency_violations": tally.consistency_violations,
            "versions_reused": tally.versions_reused,
            "repairs": tally.repairs,
            "messages": tally.messages,
            "summary": {
                "read_availability": tally.read_availability().mean,
                "write_availability": tally.write_availability().mean,
                "decode_fraction": decoded / read_ok if read_ok else 0.0,
                "consistency_violations": float(tally.consistency_violations),
                "versions_reused": float(tally.versions_reused),
                "repairs": float(tally.repairs),
                "messages": float(tally.messages),
            },
        }

    def _run_comparison(self) -> dict:
        """Registry protocols against one shared failure/op schedule.

        Each protocol is an independent sub-run (own cluster and engine
        replaying the same seed-derived schedule), so the comparison
        fans one task per protocol; :meth:`comparison_single` regrows
        the shared data and schedule identically inside each task.
        """
        names = self.spec.scenario.protocols or protocol_names()
        outs = self._fan_out("comparison_single", [(name,) for name in names])
        return dict(zip(names, outs))

    def comparison_single(self, name: str) -> dict:
        """One protocol's comparison sub-run — the comparison fan-out unit.

        The shared payload data (stream 1) and the failure/op schedule
        (stream 2) are regenerated from freshly respawned seed streams,
        so every protocol replays the *same* schedule against its own
        cluster whether it runs inline or on a worker.
        """
        streams = self._seed_streams()
        scenario = self.spec.scenario
        num_blocks = scenario.num_blocks or self.spec.code.k
        shared_data = (
            streams[1]
            .integers(
                0,
                256,
                size=(self.spec.code.k, self.spec.workload.block_length),
                dtype=np.int64,
            )
            .astype(np.uint8)
        )
        built = build_system(self.spec.replace(protocol=name))
        built.initialize(shared_data)
        schedule = make_schedule(
            scenario.steps,
            self.spec.cluster.num_nodes,
            num_blocks,
            max_down=scenario.max_down,
            read_fraction=self.spec.workload.read_fraction,
            rng=streams[2],
        )
        results = run_comparison(
            {name: (built.cluster, built.engine)},
            schedule,
            self.spec.workload.block_length,
            repair_fns=(
                {name: built.repair.sync_all} if built.repair is not None else {}
            ),
        )
        res = results[name]
        return {
            **asdict(res),
            "read_availability": res.read_availability,
            "write_availability": res.write_availability,
            "messages_per_read": res.messages_per_read,
            "messages_per_write": res.messages_per_write,
        }

    def _run_sweep(self) -> dict:
        """The availability sweep across trapezoid ``w_values``."""
        base = build_trapezoid_quorum(self.spec.quorum)
        shape = base.shape
        if self.spec.scenario.w_values is not None:
            w_values = self.spec.scenario.w_values
        elif shape.h == 0:
            w_values = (base.w[0],)  # no free w: w_0 is mandatory
        else:
            w_values = tuple(range(1, shape.level_size(1) + 1))
        children = spawn_rngs(self._streams[7], len(w_values))
        records = []
        for w, rng in zip(w_values, children):
            quorum = TrapezoidQuorum.uniform(shape, w if shape.h > 0 else None)
            for rec in availability_sweep(
                quorum,
                self.spec.code.n,
                self.spec.code.k,
                self.spec.scenario.ps,
                mc_trials=self.spec.scenario.trials,
                rng=rng,
                executor=self._executor,
            ):
                records.append({"w": w, **asdict(rec)})
        return {"w_values": list(w_values), "records": records}

    def _run_optimize(self) -> dict:
        """Occupancy-engine (shape, w) search across ``scenario.ps``.

        Deterministic (no randomness consumed): the per-shape occupancy
        tables are built once and every p of the grid folds against them,
        so even wide sweeps stay interactive.
        """
        scenario = self.spec.scenario
        results = optimize_config_sweep(
            self.spec.code.n,
            self.spec.code.k,
            scenario.ps,
            max_h=scenario.max_h,
            executor=self._executor,
        )

        def point(pt: ConfigPoint) -> dict:
            return {
                "shape": {"a": pt.shape.a, "b": pt.shape.b, "h": pt.shape.h},
                "w": list(pt.w),
                "write": pt.write,
                "read": pt.read,
            }

        return {
            "max_h": scenario.max_h,
            "results": [
                {
                    "p": p,
                    "evaluated": res.evaluated,
                    "best_for_writes": point(res.best_for_writes),
                    "best_for_reads": point(res.best_for_reads),
                    "best_balanced": point(res.best_balanced),
                    "pareto": [point(pt) for pt in res.pareto],
                }
                for p, res in zip(scenario.ps, results)
            ],
        }

    def _faultload(self, faultload: FaultloadSpec, horizon: float, rng):
        """Materialize a faultload: (FailureTrace | None, partition windows)."""
        if faultload.kind == "churn":
            trace = exponential_trace(
                self.spec.cluster.num_nodes,
                faultload.mtbf,
                faultload.mttr,
                horizon,
                rng=rng,
            )
            return trace, []
        if faultload.kind == "partition":
            windows = []
            num_nodes = self.spec.cluster.num_nodes
            size = min(faultload.partition_size, num_nodes)
            start = faultload.period
            while start < horizon:
                nodes = tuple(
                    sorted(rng.choice(num_nodes, size=size, replace=False).tolist())
                )
                windows.append(
                    PartitionWindow(start, start + faultload.duration, nodes)
                )
                start += faultload.period
            return None, windows
        # "none" and "byzantine" inject no downtime; Byzantine arming is
        # a separate step (corrupt nodes answer, they don't vanish).
        return None, []

    def _arm_byzantine(self, cluster, faultload: FaultloadSpec, rng) -> list[int]:
        """Flip a seed-chosen fraction of the *data* nodes Byzantine.

        Returns the armed node ids (``[]`` for every other faultload
        kind). Only ids below ``spec.cluster.num_nodes`` are candidates:
        the metadata tier appended after them stays honest, which is the
        trust assumption of the separate-metadata construction. Each
        armed node corrupts with its own child stream of ``rng``, so the
        coin sequence is independent of delivery order elsewhere.
        """
        if faultload.kind != "byzantine":
            return []
        num_nodes = self.spec.cluster.num_nodes
        # the spec keeps the fraction in [0, 1], so 0 <= count <= num_nodes
        count = int(round(faultload.byzantine_fraction * num_nodes))
        if count == 0:
            return []
        chosen = sorted(
            int(i) for i in rng.choice(num_nodes, size=count, replace=False)
        )
        streams = spawn_rngs(rng, count)
        for node_id, stream in zip(chosen, streams):
            cluster.node(node_id).set_byzantine(
                ByzantineBehavior(
                    faultload.corruption_mode, faultload.corruption_rate, stream
                )
            )
        return chosen

    def _arm_metadata_byzantine(
        self, cluster, faultload: FaultloadSpec, rng
    ) -> list[int]:
        """Turn ``metadata_liars`` seed-chosen *metadata* nodes Byzantine.

        The complement of :meth:`_arm_byzantine`: candidates are the
        metadata ids appended after ``spec.cluster.num_nodes``. Must run
        *after* the system is initialized — ``stale_record`` mode primes
        each liar with a snapshot of the records it holds at arm time, so
        arming before the version-0 bootstrap would leave nothing to
        roll back to. Returns the armed ids (``[]`` when unused).
        """
        if faultload.metadata_liars == 0:
            return []
        meta = self.spec.metadata
        first = self.spec.cluster.num_nodes
        chosen = sorted(
            first + int(i)
            for i in rng.choice(
                meta.nodes, size=faultload.metadata_liars, replace=False
            )
        )
        streams = spawn_rngs(rng, len(chosen))
        for node_id, stream in zip(chosen, streams):
            behavior = MetadataByzantineBehavior(
                faultload.metadata_mode, faultload.metadata_rate, stream
            )
            node = cluster.node(node_id)
            behavior.prime(node)
            node.set_byzantine(behavior)
        return chosen

    @staticmethod
    def _byzantine_report(
        faultload: FaultloadSpec, system, armed, meta_armed
    ) -> dict | None:
        """The ``byzantine`` result block (None when nothing to report)."""
        cluster, verifiers, repairs = system.cluster, system.verifiers, system.repairs
        if faultload.kind != "byzantine" and not verifiers:
            return None
        detected = {
            "digest_mismatches": 0,
            "version_mismatches": 0,
            "metadata_failures": 0,
            "tag_rejections": 0,
            "record_conflicts": 0,
        }
        for verifier in verifiers:
            for key, value in verifier.counters().items():
                detected[key] += value
        active = faultload.kind == "byzantine"
        report = {
            "nodes": list(armed),
            "fraction": faultload.byzantine_fraction if active else 0.0,
            "mode": faultload.corruption_mode,
            "rate": faultload.corruption_rate if active else 0.0,
            "injected": sum(
                cluster.node(i).stats.corrupted_replies for i in armed
            ),
            "metadata_nodes": list(meta_armed),
            "metadata_mode": faultload.metadata_mode,
            "metadata_injected": sum(
                cluster.node(i).stats.corrupted_replies for i in meta_armed
            ),
            "detected": detected if verifiers else None,
        }
        if repairs:
            repair_totals = {
                "repairs_performed": 0,
                "repairs_blocked": 0,
                "records_rejected": 0,
            }
            for service in repairs:
                for key, value in service.counters().items():
                    repair_totals[key] += value
            report["repair"] = repair_totals
        return report

    def _run_wallclock(self) -> dict:
        """Predicted vs measured: the simulator and live services, one spec.

        The prediction half is a plain ``latency`` run of the identical
        spec (virtual seconds from the ``latency`` model); the measured
        half drives the same seeded workload tape against real node
        services through :func:`repro.services.wallclock.run_wallclock`
        (wall seconds over the spec's ``transport``). The two columns
        share *shape* — ordering, tail ratios — not units; see
        docs/RUNTIME.md, *Wall-clock backend*.
        """
        # imported here: the services subsystem pulls in asyncio plumbing
        # no simulated scenario needs, and it imports this module back
        from repro.services.wallclock import run_wallclock

        # the measured half drives the single-volume engine, so the
        # prediction drops sharding/service to stay apples-to-apples
        predicted_spec = self.spec.replace(
            scenario=self.spec.scenario.replace(kind="latency"),
            sharding=None,
            service=None,
        )
        predicted = ScenarioRunner(predicted_spec).run()
        measured = run_wallclock(self.spec, transports=self.transports)

        def _percentiles(summary: dict) -> dict:
            return {
                op: {
                    key: summary[f"{op}_latency"][key]
                    for key in ("count", "p50", "p95", "p99")
                }
                for op in ("read", "write")
            }

        return {
            "predicted": {
                "summary": predicted.data["summary"],
                "virtual_duration": predicted.data["virtual_duration"],
                "trace_hash": predicted.data["trace_hash"],
            },
            "measured": measured,
            "comparison": {
                "predicted": _percentiles(predicted.data["summary"]),
                "measured": _percentiles(measured["summary"]),
            },
        }

    def _closed_loop(
        self, clients: int, streams, rng, service_rng, byz_rng, meta_rng
    ) -> tuple[SaturationPoint, dict | None]:
        """One fresh sharded closed-loop run: a ``latency`` run or one
        saturation point.

        The workload tape (stream 1) and the faultload (stream 9) come
        from ``streams``; the generators for coordinator latencies,
        service queues, Byzantine data nodes and metadata liars are handed
        in — streams 8, 10, 12 and 13 for ``latency``, per-point children
        of streams 11, 12 and 13 for a saturation point. Liars are armed
        after the version-0 bootstrap (see
        :meth:`_arm_metadata_byzantine`). Returns the run's point and its
        ``byzantine`` report (None when there is nothing to report).
        """
        scenario = self.spec.scenario
        faultload = scenario.faultload or FaultloadSpec()
        shards = (self.spec.sharding or ShardingSpec()).shards
        ops = _make_workload(self.spec, shards * self.spec.code.k, streams[1])
        trace, partitions = self._faultload(faultload, scenario.horizon, streams[9])
        system = build_sharded_system(
            self.spec, rng=rng, service_rng=service_rng, record_trace=True
        )
        data = system.initialize()
        sim = ShardedClosedLoopSimulation(
            system.cluster,
            system.router,
            ops,
            config=ClosedLoopConfig(
                clients=clients,
                think_time=scenario.think_time,
                horizon=scenario.horizon,
                block_length=self.spec.workload.block_length,
                repair_interval=scenario.repair_interval,
            ),
            trace=trace,
            partitions=partitions,
            repairs=(
                system.repairs if scenario.repair_interval is not None else None
            ),
            initial=data,
        )
        armed = self._arm_byzantine(system.cluster, faultload, byz_rng)
        meta_armed = self._arm_metadata_byzantine(system.cluster, faultload, meta_rng)
        point = run_saturation_point(clients, sim)
        return point, self._byzantine_report(faultload, system, armed, meta_armed)

    def _closed_loop_header(self, lead: str, **values) -> dict:
        """A latency / saturation result's head: the ``lead`` keys in
        order (from ``values`` or the spec), then the model sections."""
        scenario, sharding = self.spec.scenario, self.spec.sharding or ShardingSpec()
        values.update(
            think_time=scenario.think_time,
            horizon=scenario.horizon,
            shards=sharding.shards,
            routing=sharding.routing,
        )
        return {
            **{key: values[key] for key in lead.split()},
            "faultload": (scenario.faultload or FaultloadSpec()).to_dict(),
            "latency_model": (self.spec.latency or LatencySpec()).to_dict(),
            "service": (self.spec.service or ServiceTimeSpec()).to_dict(),
        }

    def _run_latency(self) -> dict:
        """Event-driven closed-loop run: latency percentiles under faults.

        Every shard's engine runs on its own :class:`EventCoordinator`
        behind one router (a spec without a ``sharding`` section is the
        1-shard volume); ``clients`` closed-loop clients keep operations
        concurrently in flight while the faultload (churn or partitions)
        interleaves mid-operation. Stream 1 drives the workload, stream
        8 message-latency sampling, stream 9 the faultload and stream 10
        the per-node service queues, so the same spec + seed reproduces
        the identical event trace (``trace_hash`` digests it).
        """
        clients = self.spec.scenario.clients
        streams = self._streams
        point, report = self._closed_loop(
            clients, streams, streams[8], streams[10], streams[12], streams[13]
        )
        summary = dict(point.aggregate)
        operation_latency = summary.pop("operation_latency")
        data = {
            **self._closed_loop_header(
                "clients think_time horizon shards routing", clients=clients
            ),
            "ops_submitted": point.ops_completed + point.ops_failed,
            "virtual_duration": point.virtual_duration,
            "summary": summary,
            "operation_latency": operation_latency,
            "per_shard": point.per_shard,
            "queues": point.queues,
            "trace_hash": point.trace_hash,
        }
        if report is not None:
            data["byzantine"] = report
        return data

    def _run_saturation(self) -> dict:
        """The ops/s-vs-clients saturation sweep over the sharded runtime.

        One :meth:`saturation_point` — the ``latency`` run at that client
        count — per entry of ``scenario.client_counts``; the point is the
        fan-out unit of the saturation kind, and one seed reproduces the
        whole curve, point hashes included.
        """
        counts = self.spec.scenario.client_counts or (1, 2, 4, 8, 16)
        outs = self._fan_out(
            "saturation_point",
            [(i, clients, len(counts)) for i, clients in enumerate(counts)],
        )
        points = [point for point, _ in outs]
        digest = hashlib.sha256()
        for point in points:
            digest.update(point.trace_hash.encode("ascii"))
            digest.update(b"\n")
        data = {
            **self._closed_loop_header(
                "shards routing client_counts think_time horizon",
                client_counts=[p.clients for p in points],
            ),
            "points": [p.to_dict() for p in points],
            "knee_clients": knee_clients(points),
            "trace_hash": digest.hexdigest(),
        }
        reports = [report for _, report in outs]
        if any(report is not None for report in reports):
            data["byzantine"] = {"points": reports}
        return data

    def saturation_point(
        self, index: int, clients: int, num_points: int
    ) -> tuple[SaturationPoint, dict | None]:
        """One saturation curve point — the saturation fan-out unit.

        The same workload tape and faultload as every other point
        (streams 1 and 9, respawned from ``spec.seed``); the coordinator,
        service-queue, Byzantine and metadata-liar streams are child
        ``index`` of streams 11 (split in two), 12 and 13, keyed by grid
        position so any worker count produces the identical point.
        """
        streams = self._seed_streams()
        rng, service_rng = spawn_rngs(spawn_rngs(streams[11], num_points)[index], 2)
        return self._closed_loop(
            clients,
            streams,
            rng,
            service_rng,
            spawn_rngs(streams[12], num_points)[index],
            spawn_rngs(streams[13], num_points)[index],
        )


def _run_unit(task: tuple):
    """Process-pool entry point of :meth:`ScenarioRunner._fan_out`.

    ``task`` is ``(spec dict, unit method name, args)``; the worker
    rebuilds the runner from the spec and calls the unit on it.
    """
    spec, unit, args = task
    return getattr(ScenarioRunner(SystemSpec.from_dict(spec)), unit)(*args)


def run_spec(spec: SystemSpec, *, jobs: int = 0) -> ScenarioResult:
    """One-call convenience: ``ScenarioRunner(spec, jobs=jobs).run()``."""
    return ScenarioRunner(spec, jobs=jobs).run()
