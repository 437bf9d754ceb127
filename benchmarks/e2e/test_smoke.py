"""Smoke test: every workload, traced and untraced, at ``--tiny`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part
of the tier-1 suite, which collects ``tests/`` only).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from run import HERE, ROOT
from tracer import LAYERS
from workloads import WORKLOADS

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_tiny(capsys, workload: str, trace: int) -> dict:
    status = run.main(
        ["--workload", workload, "--seed", "11", "--tiny", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return json.loads(lines[-1])


def test_manifest_matches_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in MANIFEST[key]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in MANIFEST["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    # the driver makes 4 + 22 * workloads runs inside 3420 s
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 8) < 3420
    for layer in LAYERS:
        for suffix in ("self_s", "self_share", "calls"):
            assert f"{layer}.{suffix}" in names


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    result = run_tiny(capsys, workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    result = run_tiny(capsys, workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in LAYERS)
    shares += metrics["harness.self_share"]["value"]
    assert shares == pytest.approx(1.0, abs=0.01)
    value = lambda name: metrics[name]["value"]  # noqa: E731
    assert (value("services.self_share") > 0) == (workload == "live_tcp")
    assert (value("analysis.self_share") > 0) == (workload == "availability_study")
    assert (value("runtime.verify.self_share") > 0) == (workload == "byzantine_verified")
    assert value("harness.trace_overhead_ratio") > 0


def test_wrong_bytes_are_reported_as_incorrect(capsys, monkeypatch):
    from repro.storage import VirtualDisk

    genuine = VirtualDisk.read

    def corrupt(self, block):
        data = genuine(self, block)
        return data and bytes([data[0] ^ 1]) + data[1:]

    monkeypatch.setattr(VirtualDisk, "read", corrupt)
    status = run.main(["--workload", "vdisk_write_heavy", "--tiny", "--trace", "0"])
    captured = capsys.readouterr()
    assert status == 1
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    assert "differ from the last acknowledged write" in captured.err


def test_monte_carlo_check_holds_for_rare_events_and_catches_bias():
    from workloads import CorrectnessError

    study = WORKLOADS["availability_study"](seed=1, tiny=True)
    # chance results a normal interval at z = 5 calls impossible
    study._within(1 / 2000, 2000, 1e-5, "one hit in 2000 at 1e-5")
    study._within(1 - 3 / 40_000, 40_000, 1 - 1e-5, "three misses in 40000")
    study._within(0.89062, 64, 0.95309, "64 snapshots of 8 stripes")
    study._within(0.0, 2000, 0.0, "never, exactly")
    for mean, samples, truth in ((0.52, 40_000, 0.5), (1e-3, 40_000, 0.0), (0.80, 640, 0.953)):
        with pytest.raises(CorrectnessError):
            study._within(mean, samples, truth, "biased estimator")


def test_command_line_contract(tmp_path):
    command = [sys.executable, *MANIFEST["command"][1:]]
    done = subprocess.run(
        [*command, "--workload", "service_queues", "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # a directory with only the manifest and the benchmark's own files:
    # no program to measure, so a non-zero exit and no result line
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [*command, "--workload", "service_queues", "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
