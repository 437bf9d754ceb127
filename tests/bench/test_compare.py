"""Tests for the perf regression gate (``repro.bench.compare``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_docs, main, wallclock_deltas
from repro.errors import ConfigurationError


def _doc(**results) -> dict:
    return {
        "schema": "repro-bench-perf/1",
        "config": {"n": 6, "k": 4},
        "results": results,
        "speedups": {},
    }


BASELINE = _doc(
    encode={"seconds_per_call": 0.01, "payload_bytes": 1000, "mb_per_s": 100.0},
    mc_write={"seconds_per_call": 0.1, "trials": 1000, "trials_per_s": 10_000.0},
    optimizer={"seconds_per_call": 0.05, "evaluated": 8},
    decode_plan_cache={"hits": 3, "misses": 1},
)

LATENCY_BASELINE = _doc(
    latency_sim={"seconds_per_call": 0.2, "ops": 600, "ops_per_s": 3000.0},
)


class TestLatencySimGate:
    """The event-runtime bench section gates on ops_per_s."""

    def test_ops_per_s_drift_tolerated(self):
        fresh = _doc(
            latency_sim={"seconds_per_call": 0.24, "ops": 600, "ops_per_s": 2500.0}
        )
        assert compare_docs(LATENCY_BASELINE, fresh) == []

    def test_ops_per_s_regression_detected(self):
        fresh = _doc(
            latency_sim={"seconds_per_call": 0.6, "ops": 600, "ops_per_s": 1000.0}
        )
        regressions = compare_docs(LATENCY_BASELINE, fresh)
        assert len(regressions) == 1
        assert "latency_sim" in regressions[0] and "ops_per_s" in regressions[0]

    def test_missing_latency_section_fails_gate(self):
        regressions = compare_docs(LATENCY_BASELINE, _doc())
        assert regressions and "missing" in regressions[0]


SHARDED_BASELINE = _doc(
    sharded_throughput={
        "seconds_per_call": 0.25, "ops": 800, "shards": 4, "clients": 16,
        "ops_per_s": 3200.0,
    },
)


class TestShardedThroughputGate:
    """The sharded-runtime bench section gates on aggregate ops_per_s."""

    def test_regression_detected(self):
        fresh = _doc(
            sharded_throughput={
                "seconds_per_call": 0.8, "ops": 800, "shards": 4, "clients": 16,
                "ops_per_s": 1000.0,
            },
        )
        regressions = compare_docs(SHARDED_BASELINE, fresh)
        assert len(regressions) == 1
        assert "sharded_throughput" in regressions[0]
        assert "ops_per_s" in regressions[0]

    def test_missing_sharded_section_fails_gate(self):
        regressions = compare_docs(SHARDED_BASELINE, _doc())
        assert regressions and "missing" in regressions[0]


EVENT_CORE_BASELINE = _doc(
    event_core={
        "seconds_per_call": 4.0, "ops": 100_000, "fanout": 24, "need": 13,
        "clients": 256, "events_per_op": 2.0, "ops_per_s": 25_000.0,
    },
)


class TestEventCoreGate:
    """The vectorized-session-layer bench section gates on ops_per_s."""

    def test_drift_tolerated(self):
        fresh = _doc(
            event_core={"seconds_per_call": 4.5, "ops": 100_000, "ops_per_s": 22_000.0},
        )
        assert compare_docs(EVENT_CORE_BASELINE, fresh) == []

    def test_regression_detected(self):
        fresh = _doc(
            event_core={"seconds_per_call": 10.0, "ops": 100_000, "ops_per_s": 10_000.0},
        )
        regressions = compare_docs(EVENT_CORE_BASELINE, fresh)
        assert len(regressions) == 1
        assert "event_core" in regressions[0] and "ops_per_s" in regressions[0]

    def test_missing_event_core_section_fails_gate(self):
        regressions = compare_docs(EVENT_CORE_BASELINE, _doc())
        assert len(regressions) == 1
        assert "event_core:" in regressions[0] and "missing" in regressions[0]


def _par_entry(speedup, jobs=4, host_cpus=8, byte_identical=True, **over):
    entry = {
        "seconds_per_call": 1.0,
        "serial_seconds_per_call": speedup,
        "jobs": jobs,
        "host_cpus": host_cpus,
        "points": 4,
        "ops": 1200,
        "speedup": speedup,
        "byte_identical": byte_identical,
    }
    entry.update(over)
    return entry


PARALLEL_BASELINE = _doc(parallel_scaling=_par_entry(3.1))


class TestParallelScalingGate:
    """parallel_scaling gates on byte-identity always, and on the
    speedup floor only where the host has the cores to realize it."""

    def test_fast_enough_passes(self):
        fresh = _doc(parallel_scaling=_par_entry(3.0))
        assert compare_docs(PARALLEL_BASELINE, fresh) == []

    def test_slow_on_capable_host_fails(self):
        fresh = _doc(parallel_scaling=_par_entry(1.4, jobs=4, host_cpus=8))
        regressions = compare_docs(PARALLEL_BASELINE, fresh)
        assert len(regressions) == 1
        assert "parallel_scaling" in regressions[0]
        assert "floor" in regressions[0]

    def test_small_host_is_informational(self):
        # A 1-CPU container cannot beat serial; its entry records the
        # numbers but must not fail the gate.
        fresh = _doc(parallel_scaling=_par_entry(0.5, jobs=4, host_cpus=1))
        assert compare_docs(PARALLEL_BASELINE, fresh) == []

    def test_byte_identity_violation_always_fails(self):
        fresh = _doc(
            parallel_scaling=_par_entry(
                3.0, jobs=4, host_cpus=1, byte_identical=False
            )
        )
        regressions = compare_docs(PARALLEL_BASELINE, fresh)
        assert len(regressions) == 1
        assert "byte_identical" in regressions[0]

    def test_missing_section_fails_gate(self):
        regressions = compare_docs(PARALLEL_BASELINE, _doc())
        assert regressions
        assert any(
            "parallel_scaling" in r and "missing" in r for r in regressions
        )

    def test_missing_speedup_field_fails(self):
        entry = _par_entry(3.0)
        del entry["speedup"]
        fresh = _doc(parallel_scaling=entry)
        regressions = compare_docs(PARALLEL_BASELINE, fresh)
        assert any("speedup missing" in r for r in regressions)

    def test_custom_floor(self):
        fresh = _doc(parallel_scaling=_par_entry(3.0))
        assert compare_docs(
            PARALLEL_BASELINE, fresh, min_parallel_speedup=3.5
        ) != []
        assert (
            compare_docs(PARALLEL_BASELINE, fresh, min_parallel_speedup=2.0)
            == []
        )

    def test_fresh_gate_applies_without_baseline_entry(self):
        # Gate is on the fresh document: a baseline predating the
        # section doesn't exempt a bad fresh entry.
        fresh = _doc(parallel_scaling=_par_entry(1.0, jobs=4, host_cpus=8))
        regressions = compare_docs(_doc(), fresh)
        assert len(regressions) == 1
        assert "floor" in regressions[0]

    def test_docs_without_the_section_stay_green(self):
        assert compare_docs(BASELINE, BASELINE) == []


class TestWallclockDeltas:
    def test_deltas_cover_both_directions(self):
        fresh = _doc(
            encode={
                "seconds_per_call": 0.02,
                "payload_bytes": 1000,
                "mb_per_s": 50.0,
            },
            mc_write={
                "seconds_per_call": 0.05,
                "trials": 1000,
                "trials_per_s": 20_000.0,
            },
            optimizer=BASELINE["results"]["optimizer"],
        )
        lines = wallclock_deltas(BASELINE, fresh)
        text = "\n".join(lines)
        assert "encode: 0.01s -> 0.02s (+100.0%)" in text
        assert "mc_write: 0.1s -> 0.05s (-50.0%)" in text
        assert "optimizer: 0.05s -> 0.05s (+0.0%)" in text

    def test_missing_fresh_entry_reported(self):
        lines = wallclock_deltas(BASELINE, _doc())
        assert any("(missing)" in line for line in lines)


class TestCompareDocs:
    def test_identical_docs_pass(self):
        assert compare_docs(BASELINE, BASELINE) == []

    def test_small_drift_tolerated(self):
        fresh = _doc(
            encode={"seconds_per_call": 0.012, "payload_bytes": 1000, "mb_per_s": 83.0},
            mc_write={"seconds_per_call": 0.11, "trials": 1000, "trials_per_s": 9_000.0},
            optimizer={"seconds_per_call": 0.06, "evaluated": 8},
        )
        assert compare_docs(BASELINE, fresh) == []

    def test_throughput_regression_detected(self):
        fresh = _doc(
            encode={"seconds_per_call": 0.02, "payload_bytes": 1000, "mb_per_s": 50.0},
            mc_write=BASELINE["results"]["mc_write"],
            optimizer=BASELINE["results"]["optimizer"],
        )
        regressions = compare_docs(BASELINE, fresh)
        assert len(regressions) == 1
        assert "encode" in regressions[0] and "mb_per_s" in regressions[0]

    def test_wall_time_regression_detected(self):
        # optimizer has no throughput field: seconds_per_call rising must trip.
        fresh = _doc(
            encode=BASELINE["results"]["encode"],
            mc_write=BASELINE["results"]["mc_write"],
            optimizer={"seconds_per_call": 0.5, "evaluated": 8},
        )
        regressions = compare_docs(BASELINE, fresh)
        assert len(regressions) == 1
        assert "optimizer" in regressions[0]

    def test_missing_metric_is_a_regression(self):
        fresh = _doc(
            encode=BASELINE["results"]["encode"],
            optimizer=BASELINE["results"]["optimizer"],
        )
        regressions = compare_docs(BASELINE, fresh)
        assert len(regressions) == 1
        assert "mc_write" in regressions[0] and "missing" in regressions[0]

    def test_counter_entries_ignored(self):
        # decode_plan_cache has no throughput metric; dropping it is fine.
        fresh = dict(BASELINE)
        fresh["results"] = {
            k: v for k, v in BASELINE["results"].items() if k != "decode_plan_cache"
        }
        assert compare_docs(BASELINE, fresh) == []

    def test_config_mismatch_rejected(self):
        fresh = dict(BASELINE)
        fresh["config"] = {"n": 12, "k": 8}
        with pytest.raises(ConfigurationError):
            compare_docs(BASELINE, fresh)
        assert compare_docs(BASELINE, fresh, require_matching_config=False) == []

    def test_tolerance_validated(self):
        with pytest.raises(ConfigurationError):
            compare_docs(BASELINE, BASELINE, max_regression=0.0)
        with pytest.raises(ConfigurationError):
            compare_docs(BASELINE, BASELINE, max_regression=1.5)


class TestCliEntry:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_green_gate_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", BASELINE)
        assert main([base, base]) == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", BASELINE)
        fresh_doc = _doc(
            encode={"seconds_per_call": 0.1, "payload_bytes": 1000, "mb_per_s": 10.0},
            mc_write=BASELINE["results"]["mc_write"],
            optimizer=BASELINE["results"]["optimizer"],
        )
        fresh = self._write(tmp_path / "fresh.json", fresh_doc)
        assert main([base, fresh]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "encode" in out

    def test_allow_config_mismatch_flag(self, tmp_path):
        base = self._write(tmp_path / "base.json", BASELINE)
        other = dict(BASELINE)
        other["config"] = {"n": 99}
        fresh = self._write(tmp_path / "fresh.json", other)
        with pytest.raises(ConfigurationError):
            main([base, fresh])
        assert main([base, fresh, "--allow-config-mismatch"]) == 0

    def test_wallclock_delta_summary_printed(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", BASELINE)
        assert main([base, base]) == 0
        out = capsys.readouterr().out
        assert "wall-clock per section" in out
        assert "encode: 0.01s -> 0.01s (+0.0%)" in out
        assert main([base, base, "--quiet"]) == 0
        assert "wall-clock" not in capsys.readouterr().out

    def test_min_parallel_speedup_flag(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", PARALLEL_BASELINE)
        fresh = self._write(
            tmp_path / "fresh.json", _doc(parallel_scaling=_par_entry(3.0))
        )
        assert main([base, fresh, "--min-parallel-speedup", "3.5"]) == 1
        assert "floor" in capsys.readouterr().out
        assert main([base, fresh, "--min-parallel-speedup", "2.0"]) == 0
