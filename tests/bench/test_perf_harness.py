"""Tier-1-adjacent smoke test: the perf harness runs on tiny sizes.

Runs the same code paths as ``python -m repro.bench --json`` so a kernel
or harness regression fails fast in the normal test run, without paying
for production-sized blocks.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import TINY_SIZES, run_perf, write_perf_json
from repro.bench.perf import section_names
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def perf_doc() -> dict:
    return run_perf(sizes=TINY_SIZES)


class TestPerfHarness:
    def test_document_structure(self, perf_doc):
        assert perf_doc["schema"] == "repro-bench-perf/1"
        assert perf_doc["config"]["k"] == TINY_SIZES["k"]
        for name in (
            "encode",
            "encode_seed",
            "encode_batch",
            "encode_small_loop",
            "encode_small_batch",
            "decode_seed",
            "decode_repeated",
            "decode_batch",
            "update_deltas",
            "mc_write",
            "mc_read_erc",
            "exact_enum_seed",
            "exact_enum_occupancy",
            "exact_enum_occupancy_warm",
            "optimizer_seed",
            "optimizer",
            "latency_sim",
            "byzantine_overhead",
            "metadata_byzantine",
            "sharded_throughput",
            "wallclock_inproc",
            "event_core",
            "parallel_scaling",
        ):
            assert name in perf_doc["results"], name
        assert perf_doc["sections"] == list(section_names())

    def test_sharded_throughput_entry(self, perf_doc):
        entry = perf_doc["results"]["sharded_throughput"]
        assert entry["shards"] == TINY_SIZES["shard_count"]
        assert entry["ops_per_s"] > 0

    def test_wallclock_inproc_entry(self, perf_doc):
        entry = perf_doc["results"]["wallclock_inproc"]
        assert entry["ops"] == TINY_SIZES["wc_ops"]
        assert entry["clients"] == TINY_SIZES["wc_clients"]
        assert entry["ops_per_s"] > 0

    def test_byzantine_overhead_entry(self, perf_doc):
        entry = perf_doc["results"]["byzantine_overhead"]
        assert entry["ops_per_s"] > 0
        assert entry["baseline_seconds_per_call"] > 0
        assert entry["overhead_ratio"] > 0

    def test_metadata_byzantine_entry(self, perf_doc):
        entry = perf_doc["results"]["metadata_byzantine"]
        assert entry["ops_per_s"] > 0
        assert entry["f"] == TINY_SIZES["mbyz_f"]
        assert entry["baseline_seconds_per_call"] > 0
        assert entry["overhead_ratio"] > 0

    def test_event_core_entry(self, perf_doc):
        entry = perf_doc["results"]["event_core"]
        assert entry["ops"] == TINY_SIZES["ec_ops"]
        assert entry["ops_per_s"] > 0
        # The architectural signature: a whole uniform-delay wave is one
        # delivery event and one reply event, whatever the fan-out.
        assert entry["events_per_op"] == 2.0

    def test_throughputs_positive(self, perf_doc):
        for name, entry in perf_doc["results"].items():
            if "mb_per_s" in entry:
                assert entry["mb_per_s"] > 0, name
            if "trials_per_s" in entry:
                assert entry["trials_per_s"] > 0, name

    def test_speedups_present_and_positive(self, perf_doc):
        speedups = perf_doc["speedups"]
        for name in (
            "decode_repeated_vs_seed",
            "decode_batch_vs_seed",
            "encode_vs_seed",
            "encode_batch_vs_seed",
            "encode_small_batch_vs_loop",
            "exact_enum_vs_seed",
            "optimizer_vs_seed",
            "parallel_vs_serial_saturation",
        ):
            assert speedups[name] > 0, name

    def test_parallel_scaling_entry(self, perf_doc):
        entry = perf_doc["results"]["parallel_scaling"]
        assert entry["byte_identical"] is True
        assert entry["jobs"] == TINY_SIZES["par_jobs"]
        assert entry["points"] == len(TINY_SIZES["par_clients"])
        assert entry["host_cpus"] >= 1
        assert entry["serial_seconds_per_call"] > 0
        assert entry["speedup"] > 0
        assert entry["warm_pool"] is True

    def test_exact_enum_sections_consistent(self, perf_doc):
        results = perf_doc["results"]
        nb = results["exact_enum_seed"]["nbnode"]
        cfg = perf_doc["config"]
        assert nb == cfg["enum_n"] - cfg["enum_k"] + 1
        assert results["exact_enum_occupancy"]["seconds_per_call"] > 0
        assert results["optimizer"]["evaluated"] >= 1
        assert (
            results["optimizer"]["evaluated"]
            == results["optimizer_seed"]["evaluated"]
        )

    def test_plan_cache_observed(self, perf_doc):
        cache = perf_doc["results"]["decode_plan_cache"]
        # Repeated decode of one survivor set: exactly one inversion.
        assert cache["misses"] == 1
        assert cache["hits"] >= 1

    def test_json_round_trip(self, tmp_path):
        path = write_perf_json(tmp_path / "perf.json", sizes=TINY_SIZES, quiet=True)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-bench-perf/1"
        assert doc["speedups"]


class TestCliEntry:
    def test_main_json_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "BENCH_perf.json"
        assert main(["--json", str(out), "--tiny", "--quiet"]) == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "Wrote:" in captured.out

    def test_profile_flag_prints_section_profiles(self, capsys, monkeypatch):
        # The plumbing behind --profile: with the switch set, a section's
        # warmup call is profiled and its top-15 cumulative table prints.
        from repro.bench import perf

        monkeypatch.setattr(perf, "_PROFILE_SECTIONS", True)
        seconds = perf._time_call(lambda: sum(range(1000)), 1, "demo_section")
        out = capsys.readouterr().out
        assert seconds >= 0
        assert "=== profile: demo_section ===" in out
        assert "cumulative" in out

    def test_run_perf_restores_profile_switch(self, monkeypatch):
        import repro.bench.perf as perf

        calls = []
        monkeypatch.setattr(
            perf,
            "_run_perf",
            lambda sizes, seed, sections=None, jobs=0: calls.append(
                (perf._PROFILE_SECTIONS, jobs)
            ),
        )
        perf.run_perf(sizes={}, profile=True, jobs=4)
        # profile forces the serial path: cProfile is per-process.
        assert calls == [(True, 0)]
        assert perf._PROFILE_SECTIONS is False


class TestSectionFilter:
    def test_subset_runs_only_requested_sections(self):
        doc = run_perf(sizes=TINY_SIZES, sections=["mc"])
        assert doc["sections"] == ["mc"]
        assert sorted(doc["results"]) == ["mc_read_erc", "mc_write"]
        assert doc["speedups"] == {}

    def test_filter_order_is_document_order(self):
        doc = run_perf(sizes=TINY_SIZES, sections=["mc", "encode"])
        assert doc["sections"] == ["encode", "mc"]

    def test_unknown_section_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_perf(sizes=TINY_SIZES, sections=["encode", "nope"])
        msg = str(excinfo.value)
        assert "nope" in msg
        for name in section_names():
            assert name in msg

    def test_section_names_cover_registry(self):
        names = section_names()
        assert "encode" in names
        assert "parallel_scaling" in names

    def test_jobs_fanout_matches_serial_structure(self):
        serial = run_perf(sizes=TINY_SIZES, sections=["update", "mc"])
        fanned = run_perf(sizes=TINY_SIZES, sections=["update", "mc"], jobs=2)
        assert sorted(fanned["results"]) == sorted(serial["results"])
        assert fanned["sections"] == serial["sections"]

    def test_main_sections_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "perf.json"
        assert (
            main(
                [
                    "--json", str(out), "--tiny", "--quiet",
                    "--sections", "mc",
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["sections"] == ["mc"]

    def test_main_unknown_section_errors(self, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(ConfigurationError):
            main(["--json", str(tmp_path / "x.json"), "--tiny",
                  "--sections", "bogus"])
