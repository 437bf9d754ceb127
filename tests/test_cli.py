"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_perf_verb_is_retired(self, capsys):
        # Performance is measured by the benchmarks/e2e workloads only.
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--tiny"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err


class TestLayoutCommand:
    def test_renders_paper_shape(self, capsys):
        assert main(["layout", "--a", "2", "--b", "3", "--height", "2"]) == 0
        out = capsys.readouterr().out
        assert "total nodes  : 15" in out
        assert "l=2" in out
        assert "w=(2," in out


class TestCalibrateCommand:
    def test_top_configs_printed(self, capsys):
        assert main(["calibrate", "--n", "15", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "k= 8 shape=(a=2,b=3,h=1) w=3" in out
        assert out.count("score") == 2


class TestAvailabilityCommand:
    def test_csv_output(self, capsys):
        code = main(
            [
                "availability",
                "--n", "15", "--k", "8",
                "--a", "2", "--b", "3", "--height", "1",
                "--w", "3", "--p", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p,metric,method,value" in out
        assert "0.5,read_fr,closed_form,0.750000" in out

    def test_with_mc_column(self, capsys):
        main(
            [
                "availability",
                "--n", "9", "--k", "6",
                "--a", "2", "--b", "1", "--height", "1",
                "--p", "0.7", "--mc-trials", "2000",
            ]
        )
        out = capsys.readouterr().out
        assert "monte_carlo" in out


class TestOptimizeCommand:
    def test_optimize_output(self, capsys):
        assert main(["optimize", "--n", "9", "--k", "6", "--p", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "best for writes" in out
        assert "Pareto front" in out


class TestRunCommand:
    def _spec_file(self, tmp_path, protocol: str, **scenario):
        from repro.api import ScenarioSpec, SystemSpec, WorkloadSpec

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            protocol=protocol,
            workload=WorkloadSpec(num_ops=20, block_length=8),
            scenario=ScenarioSpec(**scenario) if scenario else ScenarioSpec(),
            seed=5,
        )
        path = tmp_path / f"{protocol}.json"
        path.write_text(spec.to_json())
        return path

    def test_run_every_registry_protocol(self, tmp_path, capsys):
        from repro.api import protocol_names

        for protocol in protocol_names():
            config = self._spec_file(tmp_path, protocol)
            assert main(["run", "--config", str(config), "--quiet"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["protocol"] == protocol
            assert payload["data"]["reads_ok"] == payload["data"]["reads"]

    def test_run_writes_results_file(self, tmp_path, capsys):
        config = self._spec_file(
            tmp_path, "trap-erc", kind="comparison", steps=15
        )
        out = tmp_path / "results.json"
        assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "comparison"
        assert set(payload["data"]) == {"majority", "rowa", "trap-erc", "trap-fr"}

    def test_run_results_replay_identically(self, tmp_path, capsys):
        config = self._spec_file(tmp_path, "trap-fr")
        main(["run", "--config", str(config), "--quiet"])
        first = capsys.readouterr().out
        main(["run", "--config", str(config), "--quiet"])
        assert capsys.readouterr().out == first


class TestDumpConfig:
    @pytest.mark.parametrize("seed", [["--seed", "0"], []], ids=["seed0", "no-seed"])
    def test_availability_dump_config_round_trips(self, tmp_path, capsys, seed):
        # The dumped spec replays the printed numbers, MC column included
        # (p = 0.7, 2 000 trials: the column the spec's seed decides).
        dump = tmp_path / "spec.json"
        assert main(
            [
                "availability",
                "--n", "9", "--k", "6",
                "--a", "2", "--b", "1", "--height", "1",
                "--w", "2", "--p", "0.7", "--mc-trials", "2000",
                "--dump-config", str(dump),
                *seed,
            ]
        ) == 0
        printed = [
            line for line in capsys.readouterr().out.splitlines()
            if ",monte_carlo," in line
        ]
        assert main(["run", "--config", str(dump), "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "availability"
        assert payload["spec"]["scenario"]["trials"] == 2000
        assert payload["spec"]["seed"] == 0
        replayed = [
            f"{r['p']},{r['metric']},{r['method']},{r['value']:.6f}"
            for r in payload["data"]["records"]
            if r["method"] == "monte_carlo"
        ]
        assert len(printed) == 2
        assert printed == replayed

    def test_optimize_dump_config_is_runnable(self, tmp_path, capsys):
        dump = tmp_path / "best.json"
        assert main(
            [
                "optimize",
                "--n", "9", "--k", "6", "--p", "0.7",
                "--dump-config", str(dump),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(dump), "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "optimize"
        assert payload["spec"]["code"] == {"n": 9, "k": 6}
        # The replayed search reproduces the CLI's winners exactly.
        from repro.analysis import optimize_config

        best = optimize_config(9, 6, 0.7).best_balanced
        replayed = payload["data"]["results"][0]["best_balanced"]
        assert replayed["w"] == list(best.w)
        assert replayed["write"] == best.write
        assert replayed["read"] == best.read

    def test_optimize_multiple_p_values(self, capsys):
        assert main(
            ["optimize", "--n", "9", "--k", "6", "--p", "0.5", "0.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "p=0.5:" in out
        assert "p=0.9:" in out


class TestFiguresCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fig3.csv" in out
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig5.csv").exists()
        header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
        assert header.startswith("p,")


class TestServeCommand:
    def test_bounded_lifetime_announces_and_stops(self, capsys):
        code = main(
            [
                "serve", "--nodes", "2", "--port-base", "0",
                "--max-seconds", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 node services" in out
        assert "stopped" in out

    def test_json_is_not_an_option(self, capsys):
        # JSON is the only wire format, so serve takes no format flag.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--serialization", "json"])
        assert excinfo.value.code == 2
        assert "--serialization" in capsys.readouterr().err


class TestWallclockCommand:
    def _spec_file(self, tmp_path, **transport):
        from repro.api import (
            ScenarioSpec,
            SystemSpec,
            TransportSpec,
            WorkloadSpec,
        )

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            workload=WorkloadSpec(num_ops=16, block_length=16),
            transport=TransportSpec(**transport),
            scenario=ScenarioSpec(kind="wallclock", clients=2, horizon=60.0),
            seed=4,
        )
        path = tmp_path / "wallclock.json"
        path.write_text(spec.to_json() + "\n")
        return path

    def test_prints_predicted_vs_measured_table(self, tmp_path, capsys):
        path = self._spec_file(tmp_path)
        out_path = tmp_path / "results.json"
        code = main(["wallclock", "--config", str(path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "wallclock"
        measured = payload["data"]["comparison"]["measured"]
        assert measured["read"]["count"] > 0 and measured["read"]["p95"] > 0

    def test_coerces_non_wallclock_scenarios(self, tmp_path, capsys):
        # a plain latency spec gains the wallclock kind instead of erroring
        from repro.api import SystemSpec, WorkloadSpec

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            workload=WorkloadSpec(num_ops=8, block_length=16),
            seed=4,
        )
        path = tmp_path / "latency.json"
        path.write_text(spec.to_json() + "\n")
        assert main(["wallclock", "--config", str(path)]) == 0
        assert "measured" in capsys.readouterr().out


class TestJobsFlag:
    """--jobs wiring: parallel runs byte-identical, execution block advisory."""

    def _config(self, tmp_path, execution=None):
        from repro.api import ScenarioSpec, SystemSpec, WorkloadSpec

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            workload=WorkloadSpec(num_ops=20, block_length=8),
            scenario=ScenarioSpec(kind="protocol_mc", trials=9),
            seed=5,
        )
        payload = json.loads(spec.to_json())
        if execution is not None:
            payload["execution"] = execution
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_jobs_output_byte_identical(self, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["run", "--config", str(config), "--quiet", "--jobs", "2"]
        ) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("protocol", ["trap-erc", "trap-fr"])
    def test_protocol_mc_kept_and_fresh_harness_byte_identical(
        self, protocol, tmp_path, capsys
    ):
        # --jobs 1 runs every chunk inline on the runner's one kept
        # harness; --jobs 2 gives every chunk a fresh harness in a worker.
        from repro.api import ClusterSpec, PlacementSpec, ScenarioSpec, SystemSpec, WorkloadSpec

        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            cluster=ClusterSpec(p=0.8),
            placement=PlacementSpec(kind="rotating", stripes=3),
            workload=WorkloadSpec(block_length=8),
            scenario=ScenarioSpec(kind="protocol_mc", trials=40),
            seed=6,
        ).replace(protocol=protocol)
        config = tmp_path / "mc.json"
        config.write_text(spec.to_json())
        outputs = []
        for jobs in ("1", "1", "2"):
            assert main(["run", "--config", str(config), "--quiet", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        data = json.loads(outputs[0])["data"]
        assert 0.0 < data["read"]["mean"] <= 1.0 and 0.0 < data["write"]["mean"] <= 1.0

    def test_execution_block_is_advisory_only(self, tmp_path, capsys):
        # The block selects workers but never enters spec identity: the
        # output (result "spec" section included) is byte-identical to a
        # config without it.
        plain = self._config(tmp_path)
        assert main(["run", "--config", str(plain), "--quiet"]) == 0
        serial = capsys.readouterr().out
        with_block = self._config(tmp_path, execution={"jobs": 2})
        assert main(["run", "--config", str(with_block), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out == serial
        assert "execution" not in json.loads(out)["spec"]

    def test_jobs_flag_overrides_execution_block(self, tmp_path, capsys):
        config = self._config(tmp_path, execution={"jobs": 2})
        assert main(
            ["run", "--config", str(config), "--quiet", "--jobs", "0"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "protocol_mc"

    def test_all_cores_spelled_in_block_or_flag(self, tmp_path, capsys, monkeypatch):
        # "jobs": -1 in the block means what --jobs -1 means: one worker
        # per CPU (pinned to two here), with the same result bytes.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        flag_out, block_out = tmp_path / "flag.json", tmp_path / "block.json"
        plain = self._config(tmp_path)
        assert main(
            ["run", "--config", str(plain), "--quiet", "--jobs", "-1",
             "--out", str(flag_out)]
        ) == 0
        with_block = self._config(tmp_path, execution={"jobs": -1})
        assert main(
            ["run", "--config", str(with_block), "--quiet", "--out", str(block_out)]
        ) == 0
        assert flag_out.read_bytes() == block_out.read_bytes()

    def test_invalid_execution_block_rejected(self, tmp_path, capsys):
        config = self._config(tmp_path, execution={"jobs": -2})
        assert main(["run", "--config", str(config), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: error: jobs must be an int >= 0, -1 or 'auto', got -2\n"
        )

    def test_cli_error_exits_2_without_a_traceback(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed": -5}))
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "repro: error: seed must be a non-negative integer, got -5\n"
        )

    def test_missing_config_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_availability_jobs_csv_identical(self, capsys):
        argv = [
            "availability", "--n", "9", "--k", "6",
            "--a", "2", "--b", "1", "--height", "1",
            "--p", "0.7", "0.9", "--mc-trials", "500", "--seed", "3",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
