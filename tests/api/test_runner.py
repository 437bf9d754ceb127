"""ScenarioRunner: every kind runs, results are tidy JSON, seeds pin runs."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ClusterSpec,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    SystemSpec,
    WorkloadSpec,
    protocol_names,
    run_spec,
)
from repro.errors import ConfigurationError

BASE = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=17)


def _with_scenario(**kwargs) -> SystemSpec:
    return BASE.replace(scenario=ScenarioSpec(**kwargs))


class TestScenarioKinds:
    @pytest.mark.parametrize("name", protocol_names())
    def test_smoke_runs_every_protocol(self, name):
        spec = _with_scenario(kind="smoke").replace(
            protocol=name, workload=WorkloadSpec(num_ops=40, block_length=8)
        )
        result = run_spec(spec)
        data = result.data
        assert data["reads"] + data["writes"] == 40
        # Healthy cluster: every operation must succeed.
        assert data["reads_ok"] == data["reads"]
        assert data["writes_ok"] == data["writes"]
        assert data["messages"] > 0

    def test_availability_matches_direct_sweep(self):
        from repro.analysis import write_availability
        from repro.api import build_trapezoid_quorum

        result = run_spec(_with_scenario(kind="availability", ps=(0.5, 0.9), trials=0))
        records = result.data["records"]
        assert len(records) == 2 * 4  # 2 ps x (3 closed_form + 1 exact)
        quorum = build_trapezoid_quorum(BASE.quorum)
        write_cf = next(
            r
            for r in records
            if r["metric"] == "write" and r["method"] == "closed_form" and r["p"] == 0.5
        )
        assert write_cf["value"] == pytest.approx(float(write_availability(quorum, 0.5)))

    @pytest.mark.parametrize("name", protocol_names())
    def test_protocol_mc_every_protocol(self, name):
        spec = _with_scenario(kind="protocol_mc", trials=40).replace(
            protocol=name,
            cluster=ClusterSpec(num_nodes=9, p=0.85),
            workload=WorkloadSpec(block_length=8),
        )
        data = run_spec(spec).data
        assert data["p"] == 0.85
        for metric in ("read", "write"):
            est = data[metric]
            assert est["trials"] == 40
            assert 0.0 <= est["mean"] <= 1.0
            assert est["ci95"][0] <= est["mean"] <= est["ci95"][1]

    @pytest.mark.parametrize("name", ["trap-erc", "trap-fr"])
    def test_protocol_mc_chunk_on_kept_harness_equals_fresh(self, name):
        # Inline execution keeps one harness per runner across chunks; a
        # pool worker builds a fresh runner per task. Same numbers for
        # every (op, index), in any order of arrival.
        from repro.api import PlacementSpec

        spec = _with_scenario(kind="protocol_mc", trials=72).replace(
            protocol=name,
            cluster=ClusterSpec(num_nodes=9, p=0.75),
            placement=PlacementSpec(kind="rotating", stripes=3),
            workload=WorkloadSpec(block_length=8),
        )
        kept = ScenarioRunner(spec)
        units = [(op, i) for op in ("write", "read") for i in (5, 0, 7, 2, 0)]
        units += [(op, i) for op in ("read", "write") for i in range(8)]
        for op, index in units:
            fresh = ScenarioRunner(spec).protocol_mc_chunk(op, index, 8, 9)
            assert kept.protocol_mc_chunk(op, index, 8, 9) == fresh, (op, index)
        harness = kept._protocol_mc
        assert harness is not None
        # An inline run() takes its chunks on that same harness ...
        inline = kept.run().to_json()
        assert kept._protocol_mc is harness
        # ... a pool run hands every chunk to a worker's own runner ...
        pooled = ScenarioRunner(spec, jobs=2)
        assert pooled.run().to_json() == inline
        assert pooled._protocol_mc is None
        # ... and so does a runner whose harness is new
        assert ScenarioRunner(spec).run().to_json() == inline

    def test_trace_runs_and_reports_tally(self):
        spec = BASE.replace(
            scenario=ScenarioSpec(
                kind="trace", horizon=60.0, op_rate=1.0, repair_interval=10.0
            ),
            cluster=ClusterSpec(
                num_nodes=9, failure="exponential", mtbf=40.0, mttr=4.0
            ),
            workload=WorkloadSpec(block_length=8),
        )
        data = run_spec(spec).data
        assert data["reads_attempted"] + data["writes_attempted"] > 0
        assert data["consistency_violations"] == 0
        assert set(data["summary"]) >= {"read_availability", "write_availability"}

    def test_protocol_mc_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="trials >= 1"):
            run_spec(_with_scenario(kind="protocol_mc", trials=0))

    def test_trace_requires_exponential_cluster(self):
        with pytest.raises(ConfigurationError, match="exponential"):
            run_spec(_with_scenario(kind="trace"))

    def test_trace_requires_trap_erc(self):
        with pytest.raises(ConfigurationError, match="trap-erc"):
            BASE.replace(
                protocol="rowa",
                scenario=ScenarioSpec(kind="trace"),
                cluster=ClusterSpec(
                    num_nodes=9, failure="exponential", mtbf=40.0, mttr=4.0
                ),
            )

    def test_comparison_covers_registry_by_default(self):
        result = run_spec(_with_scenario(kind="comparison", steps=30))
        assert set(result.data) == set(protocol_names())
        for res in result.data.values():
            assert res["reads"] + res["writes"] == 30
            assert 0.0 <= res["read_availability"] <= 1.0

    def test_comparison_subset(self):
        result = run_spec(
            _with_scenario(kind="comparison", steps=20, protocols=("rowa", "trap-fr"))
        )
        assert set(result.data) == {"rowa", "trap-fr"}

    def test_sweep_covers_w_range(self):
        result = run_spec(_with_scenario(kind="sweep", ps=(0.7,), trials=0))
        assert result.data["w_values"] == [1, 2, 3]  # s_1 = 3 for (a=2, b=1)
        ws = {r["w"] for r in result.data["records"]}
        assert ws == {1, 2, 3}

    def test_optimize_matches_direct_search(self):
        from repro.analysis import optimize_config

        result = run_spec(
            _with_scenario(kind="optimize", ps=(0.5, 0.8), max_h=2)
        )
        assert result.kind == "optimize"
        assert [r["p"] for r in result.data["results"]] == [0.5, 0.8]
        direct = optimize_config(9, 6, 0.8, max_h=2)
        replay = result.data["results"][1]
        assert replay["evaluated"] == direct.evaluated
        best = replay["best_balanced"]
        assert tuple(best["w"]) == direct.best_balanced.w
        assert best["write"] == direct.best_balanced.write
        assert best["read"] == direct.best_balanced.read
        assert len(replay["pareto"]) == len(direct.pareto)

    def test_optimize_rejects_boundary_p(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="optimize", ps=(0.5, 1.0))

    def test_sweep_rejects_w_values_on_flat_shape(self):
        with pytest.raises(ConfigurationError, match="h = 0"):
            # the default quorum is the h = 0 group trapezoid
            SystemSpec(scenario=ScenarioSpec(kind="sweep", w_values=(1, 2, 3)))

    def test_comparison_num_blocks_pins_schedule(self):
        pinned = run_spec(
            _with_scenario(kind="comparison", steps=25, num_blocks=1)
        )
        assert set(pinned.data) == set(protocol_names())
        with pytest.raises(ConfigurationError, match="num_blocks"):
            run_spec(_with_scenario(kind="comparison", steps=10, num_blocks=7))

    def test_unknown_protocol_rejected_at_run(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            run_spec(BASE.replace(protocol="paxos"))


class TestDispatch:
    def test_every_kind_has_a_run_method(self):
        methods = {name for name in vars(ScenarioRunner) if name.startswith("_run_")}
        assert methods == {f"_run_{kind}" for kind in ScenarioSpec._KIND_FIELDS}


class TestResultsAndDeterminism:
    def test_result_json_round_trip(self):
        result = run_spec(_with_scenario(kind="comparison", steps=20))
        again = ScenarioResult.from_json(result.to_json())
        assert again.to_dict() == result.to_dict()
        # The embedded spec replays into the identical spec object.
        assert again.replay_spec() == result.replay_spec()
        json.loads(result.to_json())  # valid JSON end to end

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("smoke", {}),
            ("availability", {"trials": 50}),
            ("comparison", {"steps": 20}),
            ("sweep", {"ps": (0.8,), "trials": 20}),
            ("optimize", {"ps": (0.6,), "max_h": 2}),
        ],
    )
    def test_identical_spec_identical_results(self, kind, extra):
        spec = _with_scenario(kind=kind, **extra)
        assert run_spec(spec).to_json() == run_spec(spec).to_json()

    def test_runner_is_idempotent(self):
        runner = ScenarioRunner(_with_scenario(kind="smoke"))
        assert runner.run().to_json() == runner.run().to_json()

    def test_seed_changes_results(self):
        a = run_spec(_with_scenario(kind="comparison", steps=40))
        b = run_spec(
            _with_scenario(kind="comparison", steps=40).replace(seed=18)
        )
        assert a.to_json() != b.to_json()

    def test_full_round_trip_spec_to_results(self):
        """The acceptance path: JSON spec -> run -> JSON results -> re-run."""
        text = _with_scenario(kind="smoke").to_json()
        spec = SystemSpec.from_json(text)
        result = ScenarioRunner(spec).run()
        replay = ScenarioRunner(SystemSpec.from_dict(result.to_dict()["spec"])).run()
        assert replay.to_json() == result.to_json()
