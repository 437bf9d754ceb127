"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``
    Execute a JSON scenario file through the ``repro.api`` facade.
``figures``
    Regenerate every paper figure and the baselines (tables to stdout,
    CSVs to results/); ``python -m repro.bench`` is an alias.
``calibrate``
    Show the top configurations matching the paper's Figure-3 anchors.
``availability``
    Evaluate one configuration: closed forms, exact, optional MC.
``optimize``
    Search the (shape, w) space for a deployment target.
``layout``
    Render a trapezoid layout.
``saturate``
    Sweep closed-loop client counts over the sharded runtime and print
    the ops/s saturation curve (and its knee).
``serve``
    Bring up a standalone TCP fleet of storage node services
    (``repro.services``) and block until interrupted.
``wallclock``
    Run a ``wallclock`` SystemSpec: predicted (simulated) vs measured
    (live services) latency side by side. ``--connect HOST:PORT``
    targets an already-running ``repro serve`` fleet instead of
    spawning services in-process.

``availability``, ``optimize`` and ``saturate`` build a
:class:`repro.api.SystemSpec` from their flags and print what
``ScenarioRunner`` returns for it; ``--dump-config PATH`` writes that
spec, so ``repro run --config PATH`` replays the printed numbers.

A library error (a :class:`~repro.errors.ReproError`, such as a spec
refused at load) prints as ``repro: error: <message>`` on stderr, with
no traceback, and exits with status 2 — the status of a bad flag.
"""

from __future__ import annotations

import argparse
import sys


__all__ = ["main", "build_parser"]


def _add_spec_flags(verb: argparse.ArgumentParser, units: str) -> None:
    """``--jobs`` and ``--dump-config``, shared by the spec-building verbs."""
    verb.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help=f"worker processes for the {units} (0/1 = inline)",
    )
    verb.add_argument(
        "--dump-config",
        metavar="PATH",
        default=None,
        help="also write the SystemSpec JSON these numbers come from, "
        "for `repro run --config`",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRAP-ERC reproduction toolkit (Relaza et al., IPDPSW 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON scenario via repro.api")
    run.add_argument("--config", required=True, help="SystemSpec JSON file")
    run.add_argument("--out", default=None, help="results JSON path (default stdout)")
    run.add_argument("--quiet", action="store_true", help="suppress the summary line")
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the parallelizable scenario kinds "
        "(0/1 = inline; overrides the config's advisory execution.jobs; "
        "results are byte-identical at any value)",
    )

    fig = sub.add_parser("figures", help="regenerate every paper figure")
    fig.add_argument("--out", default=None, help="results directory")
    fig.add_argument("--quiet", action="store_true", help="suppress tables")

    cal = sub.add_parser("calibrate", help="scan configs against Fig.3 anchors")
    cal.add_argument("--n", type=int, default=15)
    cal.add_argument("--top", type=int, default=5)

    av = sub.add_parser("availability", help="evaluate one configuration")
    av.add_argument("--n", type=int, required=True)
    av.add_argument("--k", type=int, required=True)
    av.add_argument("--a", type=int, required=True)
    av.add_argument("--b", type=int, required=True)
    av.add_argument("--height", type=int, required=True)
    av.add_argument("--w", type=int, default=None, help="eq.16 uniform parameter")
    av.add_argument("--p", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    av.add_argument("--mc-trials", type=int, default=0)
    av.add_argument("--seed", type=int, default=0, help="the spec's seed (drives MC)")
    _add_spec_flags(av, "MC columns")

    opt = sub.add_parser("optimize", help="search shapes and quorum vectors")
    opt.add_argument("--n", type=int, required=True)
    opt.add_argument("--k", type=int, required=True)
    opt.add_argument(
        "--p", type=float, nargs="+", required=True,
        help="one or more availabilities (occupancy tables are shared)",
    )
    opt.add_argument("--max-h", type=int, default=3)
    _add_spec_flags(opt, "shape families")

    lay = sub.add_parser("layout", help="render a trapezoid layout")
    lay.add_argument("--a", type=int, required=True)
    lay.add_argument("--b", type=int, required=True)
    lay.add_argument("--height", type=int, required=True)

    sat = sub.add_parser(
        "saturate", help="ops/s-vs-clients sweep on the sharded runtime"
    )
    sat.add_argument("--n", type=int, default=9)
    sat.add_argument("--k", type=int, default=6)
    sat.add_argument("--a", type=int, default=2)
    sat.add_argument("--b", type=int, default=1)
    sat.add_argument("--height", type=int, default=1)
    sat.add_argument("--w", type=int, default=2, help="eq.16 uniform parameter")
    sat.add_argument("--shards", type=int, default=4, help="stripe families")
    sat.add_argument(
        "--clients", type=int, nargs="+", default=[1, 2, 4, 8, 16],
        help="closed-loop client counts to sweep",
    )
    sat.add_argument(
        "--service", type=float, default=0.0005,
        help="per-request node service time (virtual seconds)",
    )
    sat.add_argument(
        "--service-kind", choices=("fixed", "exponential"), default="fixed",
    )
    sat.add_argument("--ops", type=int, default=400, help="workload operations")
    sat.add_argument("--horizon", type=float, default=1000.0)
    sat.add_argument("--seed", type=int, default=0)
    _add_spec_flags(sat, "saturation points")

    srv = sub.add_parser(
        "serve", help="run TCP storage node services until interrupted"
    )
    srv.add_argument("--nodes", type=int, default=9, help="number of node services")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port-base", type=int, default=9300,
        help="node i listens on port-base + i",
    )
    srv.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop after this many seconds (default: run until ctrl-C)",
    )

    wc = sub.add_parser(
        "wallclock", help="predicted-vs-measured run against live services"
    )
    wc.add_argument("--config", required=True, help="SystemSpec JSON file")
    wc.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="drive an already-running `repro serve` fleet at HOST:PORT "
        "(PORT is the fleet's port base) instead of in-process services",
    )
    wc.add_argument("--out", default=None, help="results JSON path")
    return parser


def _cmd_run(args) -> int:
    import json
    from pathlib import Path

    from repro.api import ScenarioRunner, SystemSpec, execution_options

    text = Path(args.config).read_text()
    spec = SystemSpec.from_json(text)  # refuses text that is not JSON
    jobs = args.jobs
    if jobs is None:
        # The config's advisory execution block (stripped from the spec:
        # jobs never enters spec identity or the result file).
        jobs = execution_options(json.loads(text).get("execution"))["jobs"]
    result = ScenarioRunner(spec, jobs=jobs).run()
    payload = result.to_json()
    if args.out:
        Path(args.out).write_text(payload + "\n")
        if not args.quiet:
            print(f"Wrote: {args.out}")
    else:
        print(payload)
    if not args.quiet:
        print(
            f"# scenario={result.kind} protocol={result.protocol} "
            f"seed={spec.seed}",
            file=sys.stderr,
        )
    return 0


def _run_verb(spec, args) -> dict:
    """Run a verb's spec; ``--dump-config`` first writes that same spec."""
    from pathlib import Path

    from repro.api import ScenarioRunner

    if args.dump_config:
        Path(args.dump_config).write_text(spec.to_json() + "\n")
        print(f"Wrote config: {args.dump_config}")
    return ScenarioRunner(spec, jobs=args.jobs).run().data


def _cmd_figures(args) -> int:
    from repro.bench.runner import run_all

    paths = run_all(args.out, quiet=args.quiet)
    print("Wrote:")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.bench.calibrate import scan_fig3_configs

    print(f"Best matches for the Fig.3 anchors (FR~0.75, ERC~0.63 at p=0.5), n={args.n}:")
    for res in scan_fig3_configs(n=args.n, top=args.top):
        print(
            f"  k={res.k:2d} shape=(a={res.a},b={res.b},h={res.h}) w={res.w} "
            f"-> FR={res.fr_at_anchor:.4f} ERC={res.erc_at_anchor:.4f} "
            f"(score {res.score:.4f})"
        )
    return 0


def _cmd_availability(args) -> int:
    from repro.api import ScenarioSpec, SystemSpec, build_trapezoid_quorum
    from repro.sim import SweepRecord, records_to_csv

    spec = SystemSpec.trapezoid(
        args.n, args.k, args.a, args.b, args.height, args.w,
        scenario=ScenarioSpec(
            kind="availability", ps=tuple(args.p), trials=args.mc_trials
        ),
        seed=args.seed,
    )
    data = _run_verb(spec, args)
    quorum = build_trapezoid_quorum(spec.quorum)
    print(
        f"(n={args.n}, k={args.k}), levels {quorum.shape.level_sizes}, "
        f"w={quorum.w}, r={quorum.read_thresholds}"
    )
    sys.stdout.write(records_to_csv(SweepRecord(**r) for r in data["records"]))
    return 0


def _cmd_optimize(args) -> int:
    from repro.api import CodeSpec, ScenarioSpec, SystemSpec

    spec = SystemSpec(
        code=CodeSpec(n=args.n, k=args.k),
        scenario=ScenarioSpec(kind="optimize", ps=tuple(args.p), max_h=args.max_h),
    )
    data = _run_verb(spec, args)

    def fmt(pt: dict) -> str:
        shape = pt["shape"]
        return (
            f"shape=(a={shape['a']},b={shape['b']},h={shape['h']}) "
            f"w={tuple(pt['w'])} write={pt['write']:.4f} read={pt['read']:.4f}"
        )

    for result in data["results"]:
        print(f"p={result['p']}: {result['evaluated']} configurations evaluated")
        print("best for writes :", fmt(result["best_for_writes"]))
        print("best for reads  :", fmt(result["best_for_reads"]))
        print("best balanced   :", fmt(result["best_balanced"]))
        print(f"Pareto front ({len(result['pareto'])}):")
        for pt in result["pareto"]:
            print("  ", fmt(pt))
    return 0


def _cmd_saturate(args) -> int:
    from repro.api import (
        ScenarioSpec,
        ServiceTimeSpec,
        ShardingSpec,
        SystemSpec,
        WorkloadSpec,
    )

    spec = SystemSpec.trapezoid(
        args.n, args.k, args.a, args.b, args.height, args.w,
        sharding=ShardingSpec(shards=args.shards),
        service=ServiceTimeSpec(kind=args.service_kind, time=args.service),
        workload=WorkloadSpec(num_ops=args.ops, block_length=32),
        scenario=ScenarioSpec(
            kind="saturation",
            client_counts=tuple(args.clients),
            horizon=args.horizon,
        ),
        seed=args.seed,
    )
    data = _run_verb(spec, args)
    print(
        f"saturation: shards={data['shards']} routing={data['routing']} "
        f"service={data['service']['kind']}({data['service']['time']})"
    )
    print(f"{'clients':>8s} {'ops/s':>10s} {'p95':>10s} {'q-wait':>10s} {'util':>6s}")
    for point in data["points"]:
        p95 = point["aggregate"]["operation_latency"]["p95"]
        print(
            f"{point['clients']:8d} {point['throughput']:10.1f} "
            f"{p95:10.5f} {point['queues']['mean_wait']:10.6f} "
            f"{point['queues']['max_utilization']:6.2f}"
        )
    print(f"knee of the curve: {data['knee_clients']} clients")
    return 0


def _cmd_serve(args) -> int:
    from repro.services import serve_forever

    def announce(message: str) -> None:
        print(f"{message} — ctrl-C to stop", flush=True)

    serve_forever(
        args.nodes,
        host=args.host,
        port_base=args.port_base,
        max_seconds=args.max_seconds,
        announce=announce,
    )
    print("stopped", flush=True)
    return 0


def _cmd_wallclock(args) -> int:
    import json
    from pathlib import Path

    from repro.api import ScenarioRunner, SystemSpec

    spec = SystemSpec.from_json(Path(args.config).read_text())
    if spec.scenario.kind != "wallclock":
        spec = spec.replace(scenario=spec.scenario.replace(kind="wallclock"))
    transports = None
    if args.connect:
        from repro.services import connect_transports

        host, _, port = args.connect.rpartition(":")
        transports = connect_transports(
            spec.cluster.num_nodes,
            host=host or "127.0.0.1",
            port_base=int(port),
        )
    result = ScenarioRunner(spec, transports=transports).run()
    data = result.data
    measured = data["measured"]
    print(
        f"wallclock: protocol={result.protocol} "
        f"transport={measured['transport']['kind']} "
        f"remote={measured['remote']} clients={measured['clients']} "
        f"ops={measured['ops_submitted']} "
        f"throughput={measured['throughput']:.1f} ops/s"
    )
    print(f"{'op':>6s} {'':>9s} {'count':>6s} {'p50':>10s} {'p95':>10s} {'p99':>10s}")
    for op in ("read", "write"):
        for column in ("predicted", "measured"):
            row = data["comparison"][column][op]
            print(
                f"{op:>6s} {column:>9s} {int(row['count']):6d} "
                f"{row['p50']:10.6f} {row['p95']:10.6f} {row['p99']:10.6f}"
            )
    if args.out:
        Path(args.out).write_text(result.to_json() + "\n")
        print(f"Wrote: {args.out}")
    else:
        sys.stderr.write(json.dumps(data["comparison"]) + "\n")
    return 0


def _cmd_layout(args) -> int:
    from repro.quorum import TrapezoidQuorum, TrapezoidShape

    shape = TrapezoidShape(args.a, args.b, args.height)
    quorum = TrapezoidQuorum.uniform(shape)
    print(shape.ascii_art())
    print(f"total nodes  : {shape.total_nodes}")
    print(f"write quorum : w={quorum.w} (|WQ|={quorum.min_write_size})")
    print(f"read check   : r={quorum.read_thresholds} (min |RQ|={quorum.min_read_size})")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "figures": _cmd_figures,
    "calibrate": _cmd_calibrate,
    "availability": _cmd_availability,
    "optimize": _cmd_optimize,
    "layout": _cmd_layout,
    "saturate": _cmd_saturate,
    "serve": _cmd_serve,
    "wallclock": _cmd_wallclock,
}


def main(argv=None) -> int:
    """Run one command; a library error is one stderr line and status 2."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
