#!/usr/bin/env python3
"""Does the benchmark agree with itself? Two sets of runs of one commit.

    python3 benchmarks/e2e/repeat_check.py [--seeds 10] [--workloads A B ...]

For every workload, runs ``run.py --trace 0`` once per seed, twice over
(set A and set B, interleaved seed by seed so drift of the host hits
both). Per end-to-end metric it prints the spread of each set
(interquartile range over median, as ``statistics.quantiles(n=4)`` gives
it) and how much worse set B's median is than set A's, and fails when

* a spread (``setup_s`` excepted) or the A-to-B change exceeds the
  metric's ``bound`` in ``BENCHMARK.json``;
* a run is incorrect or has a failed operation;
* a value that must repeat exactly does not: the latency percentiles of
  the virtual-clock workloads are a model result, the same for the same
  seed whatever the host does.

The printed spreads are the evidence the bounds rest on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, spread
from workloads import WORKLOADS

#: simulated on the virtual-clock workloads, hence exact for a seed
EXACT_ON_VIRTUAL = ("read_p50_ms", "write_p50_ms")


def one_run(workload: str, seed: int, seconds: int, tiny: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ] + (["--tiny"] if tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False, timeout=180
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", help="write every run's result as JSON here")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("quartiles need at least two seeds")
    problems: list[str] = []
    everything: dict = {}
    for workload in args.workloads:
        sets: tuple[list, list] = ([], [])
        for seed in range(1, args.seeds + 1):
            for runs in sets:
                runs.append(one_run(workload, seed, args.seconds, args.tiny))
        everything[workload] = sets
        for seed, (a, b) in enumerate(zip(*sets), start=1):
            for run in (a, b):
                if not run["correct"] or run["failed"]:
                    problems.append(f"{workload} seed {seed}: incorrect or failed ops")
            if WORKLOADS[workload].clock == "virtual":
                for name in EXACT_ON_VIRTUAL:
                    if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                        problems.append(
                            f"{workload} seed {seed}: {name} is simulated but "
                            "differs between two runs"
                        )
        print(f"\n{workload}  ({args.seeds} seeds x 2 sets)")
        print(f"  {'metric':14s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run["metrics"][name]["value"] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            spreads = spread(a), spread(b)
            change = worse_by(med_a, med_b, metric["better"])
            flags = []
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if change > bound:
                flags.append("DRIFT")
            print(f"  {name:14s} {med_a:12.5g} {med_b:12.5g} {spreads[0]:9.2%} "
                  f"{spreads[1]:9.2%} {change:8.2%} {bound:6.0%} {' '.join(flags)}")
            problems += [f"{workload}: {name}: {flag}" for flag in flags]
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    print()
    for problem in problems:
        print("FAIL", problem)
    print("repeat_check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
