"""Checked-in scenarios, replayed through ``repro run``.

Every ``tests/scenarios/*.json`` runs through the CLI at ``--jobs 1``
(inline) and ``--jobs 2`` (process pool). The two result files must be
byte-identical, and the result must carry what :data:`PINS` holds for
that file. A trace hash or success count moves only when a change means
to move it. A file with an advisory ``execution`` block also runs
without ``--jobs``, with the same bytes. The measured half of a
``wallclock`` result is wall time, so there only the prediction is
compared across the two runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ShardingSpec, SystemSpec, run_spec
from repro.cli import main

SCENARIOS = Path(__file__).parent / "scenarios"


def _one_shard_is_unsharded(data: dict, spec: SystemSpec) -> None:
    # a spec without a sharding section is the 1-shard volume
    assert run_spec(spec.replace(sharding=ShardingSpec(shards=1))).data == data


def _availability(data: dict, spec: SystemSpec) -> None:
    methods = [r["method"] for r in data["records"]]
    assert methods == ["closed_form"] * 3 + ["exact"], methods


def _ec_replay(data: dict, spec: SystemSpec) -> None:
    expected = "110caa9221f2ad0ae9c7692893d3c3e312b23807927172a96bcd19adb34b8b12"
    assert data["trace_hash"] == expected
    assert data["summary"]["read_latency"]["p95"] > 0
    _one_shard_is_unsharded(data, spec)


def _latency_churn(data: dict, spec: SystemSpec) -> None:
    expected = "affe15ad0ef17a51de7fee4723eb863b03a8bf8de97e631ad5c5c3c3bbadbfd5"
    assert data["trace_hash"] == expected
    assert data["summary"]["read_latency"]["p95"] > 0
    _one_shard_is_unsharded(data, spec)


def _saturation(data: dict, spec: SystemSpec) -> None:
    assert len(data["trace_hash"]) == 64
    tps = [p["throughput"] for p in data["points"]]
    assert len(set(tps)) == 3 and tps[1] > tps[0], tps
    assert all(len(p["per_shard"]) == 4 for p in data["points"])


def _saturation_parallel(data: dict, spec: SystemSpec) -> None:
    assert data["client_counts"] == [1, 4]
    assert all(len(p["per_shard"]) == 2 for p in data["points"])


def _protocol_mc(data: dict, spec: SystemSpec) -> None:
    successes = {"read": 454, "write": 329}
    for op, expected in successes.items():
        assert data[op]["trials"] == 120 * 4, (op, data[op])
        assert data[op]["successes"] == expected, (op, data[op])


def _byzantine(data: dict, spec: SystemSpec) -> None:
    expected = "fa6ccf5d5db9b27f532f574a884127b0bc4ec07aae679552b80380a8822f9e70"
    assert data["trace_hash"] == expected
    byz = data["byzantine"]
    assert byz["nodes"] and byz["injected"] > 0, byz
    assert byz["detected"]["digest_mismatches"] > 0, byz
    assert data["summary"]["round_messages"]["metadata"] > 0


def _metadata_byzantine(data: dict, spec: SystemSpec) -> None:
    expected = "e5dd1349691167ea76991e0a2d0a847a62b3d1d14b820559623e1aadfb746c94"
    assert data["trace_hash"] == expected
    byz = data["byzantine"]
    assert byz["metadata_nodes"] and byz["metadata_injected"] > 0, byz
    assert byz["detected"]["tag_rejections"] > 0, byz
    # one forging liar of a 3f+1 signed tier: lies die at the tag check
    # (no fail-stop-style availability collapse) and no read ever
    # returns wrong bytes
    assert data["summary"]["read_availability"] > 0.9, data["summary"]
    assert data["summary"]["consistency_violations"] == 0


def _trace(data: dict, spec: SystemSpec) -> None:
    counts = {
        "reads_attempted": 190,
        "reads_succeeded": 172,
        "reads_direct": 164,
        "reads_decoded": 8,
        "writes_attempted": 219,
        "writes_succeeded": 114,
        "consistency_violations": 0,
        "repairs": 10,
        # 6980 on the instant-path driver: the event core also counts
        # the straggler replies of early-exit read rounds
        "messages": 5192,
    }
    assert {key: data[key] for key in counts} == counts
    assert data["summary"]["decode_fraction"] == 8 / 172


def _version_reuse(data: dict, spec: SystemSpec) -> None:
    # The witness that the fail-stop write can issue one version twice
    # with different bytes, and that a read then returns bytes no write
    # produced. Both counts are non-zero until writes carry an id beside
    # the version; the exact figures move with any change of timing, so
    # only their sign is pinned.
    summary = data["summary"]
    assert summary["versions_reused"] > 0, summary
    assert summary["consistency_violations"] > 0, summary


def _verified_repair(data: dict, spec: SystemSpec) -> None:
    # metadata_byzantine.json with anti-entropy every 0.2 s: repair on a
    # verified stripe refuses what it cannot check against the metadata
    # tier, and the forged records its own metadata reads meet count on
    # the stripe's one verifier, beside the engine's.
    assert data["summary"]["consistency_violations"] == 0
    byz = data["byzantine"]
    assert byz["repair"] == {
        "repairs_performed": 0,
        "repairs_blocked": 7,
        "records_rejected": 10,
    }
    assert byz["detected"]["tag_rejections"] == 130


def _wallclock_tcp(data: dict, spec: SystemSpec) -> None:
    measured = data["comparison"]["measured"]
    assert measured["read"]["count"] > 0, measured
    assert measured["read"]["p95"] > 0, measured
    assert measured["write"]["p95"] > 0, measured
    assert data["measured"]["ops_submitted"] == 80, data["measured"]
    wire = data["measured"]["wire"]
    assert wire["frames_per_op"] > 0, wire
    assert wire["bytes_per_payload_byte"] >= 1, wire


#: scenario file name -> the check its replayed result must pass
PINS = {
    "availability.json": _availability,
    "ec_replay.json": _ec_replay,
    "latency_churn.json": _latency_churn,
    "saturation.json": _saturation,
    "saturation_parallel.json": _saturation_parallel,
    "protocol_mc.json": _protocol_mc,
    "byzantine.json": _byzantine,
    "metadata_byzantine.json": _metadata_byzantine,
    "trace.json": _trace,
    "verified_repair.json": _verified_repair,
    "version_reuse.json": _version_reuse,
    "wallclock_tcp.json": _wallclock_tcp,
}


def _run(config: Path, out: Path, *flags: str) -> bytes:
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet", *flags]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(PINS))
def test_scenario_replays(name, tmp_path):
    config = SCENARIOS / name
    inline = _run(config, tmp_path / "jobs1.json", "--jobs", "1")
    pooled = _run(config, tmp_path / "jobs2.json", "--jobs", "2")
    doc = json.loads(inline)
    if doc["kind"] == "wallclock":
        assert json.loads(pooled)["data"]["predicted"] == doc["data"]["predicted"]
    else:
        assert pooled == inline
    if "execution" in json.loads(config.read_text()):
        assert _run(config, tmp_path / "advisory.json") == inline
    PINS[name](doc["data"], SystemSpec.from_dict(doc["spec"]))
