"""TransportSpec validation, the wallclock scenario, and docs sync."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.api import (
    FaultloadSpec,
    QuorumSpec,
    ScenarioRunner,
    ScenarioSpec,
    SystemSpec,
    TransportSpec,
)
from repro.errors import ConfigurationError
from repro.services import run_wallclock

DOCS = Path(__file__).resolve().parents[2] / "docs"


def wallclock_spec(**transport_kwargs) -> SystemSpec:
    from repro.api import WorkloadSpec

    return SystemSpec.trapezoid(
        9, 6, 2, 1, 1, 2,
        workload=WorkloadSpec(num_ops=24, block_length=16),
        scenario=ScenarioSpec(
            kind="wallclock", clients=3, think_time=0.0, horizon=60.0
        ),
        transport=TransportSpec(**transport_kwargs),
        seed=11,
    )


class TestTransportSpec:
    def test_defaults(self):
        spec = TransportSpec()
        assert spec.kind == "inproc"
        assert spec.port_base == 0
        assert spec.serialization == "json"

    def test_round_trip(self):
        spec = TransportSpec(kind="tcp", port_base=9300, serialization="json")
        assert TransportSpec.from_dict(spec.to_dict()) == spec

    def test_system_spec_embeds_transport(self):
        spec = wallclock_spec(kind="tcp", port_base=9300)
        again = SystemSpec.from_json(spec.to_json())
        assert again == spec
        assert again.transport.kind == "tcp"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "udp"},
            {"host": ""},
            {"port_base": 80},
            {"port_base": 70000},
            {"serialization": "pickle"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TransportSpec(**kwargs)

    def test_msgpack_is_gone_and_the_error_names_json(self):
        with pytest.raises(ConfigurationError, match="json"):
            TransportSpec(serialization="msgpack")
        with pytest.raises(ConfigurationError, match="json"):
            SystemSpec.from_json(
                wallclock_spec().to_json().replace('"json"', '"msgpack"')
            )

    def test_wallclock_rejects_faultloads(self):
        with pytest.raises(ConfigurationError, match="'wallclock' does not read"):
            ScenarioSpec(
                kind="wallclock",
                faultload=FaultloadSpec(kind="churn", mtbf=10.0, mttr=1.0),
            )


class TestRunWallclock:
    def test_inproc_self_contained_run(self):
        report = run_wallclock(wallclock_spec())
        assert report["transport"]["kind"] == "inproc"
        assert report["remote"] is False
        assert report["ops_submitted"] == 24
        assert report["wall_duration"] > 0
        assert report["throughput"] > 0
        summary = report["summary"]
        assert summary["read_latency"]["count"] + summary["write_latency"]["count"] > 0
        assert report["operation_latency"]["p95"] > 0
        assert json.dumps(report)  # tidy: JSON-serializable end to end

    def test_tcp_self_contained_run(self):
        report = run_wallclock(wallclock_spec(kind="tcp", port_base=0))
        assert report["transport"]["kind"] == "tcp"
        assert report["ops_submitted"] == 24
        assert report["summary"]["read_latency"]["count"] > 0

    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    @pytest.mark.parametrize("block_length", [4096, 65536])
    def test_wire_bytes_stay_within_a_tenth_of_the_payload_floor(
        self, kind, block_length
    ):
        from repro.api import WorkloadSpec

        spec = wallclock_spec(kind=kind).replace(
            workload=WorkloadSpec(num_ops=40, block_length=block_length),
            scenario=ScenarioSpec(kind="wallclock", clients=1, horizon=60.0),
        )
        report = run_wallclock(spec)
        summary, wire = report["summary"], report["wire"]
        reads = int(summary["read_latency"]["count"])
        writes = int(summary["write_latency"]["count"])
        assert reads and writes and reads + writes == 40  # healthy: all direct
        # direct read: b; ERC write: read-before-write + block + n-k deltas
        assert wire["payload_floor_bytes"] == block_length * (reads + (2 + 9 - 6) * writes)
        assert wire["frames_per_op"] == summary["messages"] / 40  # a frame per message
        assert 1.0 <= wire["bytes_per_payload_byte"] <= 1.10
        assert wire["bytes_per_op"] == pytest.approx(
            wire["bytes_per_payload_byte"] * wire["payload_floor_bytes"] / 40
        )

    def test_wire_floor_counts_decode_reads_as_k_blocks(self):
        from repro.services.wallclock import _wire_report
        from repro.sim.metrics import LatencyTally

        # 3 direct + 2 decoded reads, 1 write
        tally = LatencyTally(reads_succeeded=5, reads_decoded=2, writes_succeeded=1)
        report = _wire_report(wallclock_spec(), (0, 0), (60, 6000), 6, tally)
        assert report["payload_floor_bytes"] == 16 * (3 + 6 * 2 + (2 + 9 - 6) * 1)
        assert report["frames_per_op"] == 10 and report["bytes_per_op"] == 1000
        other = _wire_report(
            wallclock_spec().replace(protocol="majority"), (0, 0), (60, 6000), 6, tally
        )
        assert other["payload_floor_bytes"] is None
        assert other["bytes_per_payload_byte"] is None

    def test_scenario_runner_reports_both_columns(self):
        result = ScenarioRunner(wallclock_spec()).run()
        assert result.kind == "wallclock"
        comparison = result.data["comparison"]
        for column in ("predicted", "measured"):
            for op in ("read", "write"):
                row = comparison[column][op]
                assert set(row) == {"count", "p50", "p95", "p99"}
        # measured percentiles are real elapsed seconds — non-empty run
        assert comparison["measured"]["read"]["count"] > 0
        assert comparison["measured"]["read"]["p95"] > 0
        assert result.data["predicted"]["trace_hash"]
        # the embedded spec replays: the artifact is reproducible
        assert SystemSpec.from_dict(json.loads(result.to_json())["spec"])


class TestDocsSync:
    """The satellite contract: new surface is documented, pinned here."""

    def test_api_md_lists_every_scenario_kind(self):
        text = (DOCS / "API.md").read_text(encoding="utf-8")
        section = text.split("## Scenario kinds", 1)[1]
        table = re.search(r"(?:^\|.*\n)+", section, flags=re.M).group(0)
        documented = {}  # kind -> the names in its last column
        for line in table.splitlines():
            cells = re.split(r"(?<!\\)\|", line)
            kind = re.fullmatch(r" `([a-z_]+)` ", cells[1])
            if kind:
                documented[kind[1]] = set(re.findall(r"`([a-z_]+)`", cells[-2]))
        with pytest.raises(ConfigurationError) as err:
            ScenarioSpec(kind="definitely-not-a-kind")
        kinds = set(re.findall(r"'([a-z_]+)'", str(err.value)))
        assert kinds, "could not extract scenario kinds from the validator"
        assert set(documented) == kinds, set(documented) ^ kinds
        for kind, reads in ScenarioSpec._KIND_FIELDS.items():
            assert documented[kind] == set(reads), kind
        # the FaultloadSpec row of the spec tree names each kind's fields
        row = re.search(r"^\| `FaultloadSpec` \|.*$", text, flags=re.M).group(0)
        cell = re.split(r"(?<!\\)\|", row)[2]
        for kind, reads in FaultloadSpec._KIND_FIELDS.items():
            part = cell.split(f"`{kind}`:", 1)[1].split(";", 1)[0]
            assert set(re.findall(r"`([a-z_]+)`", part)) == set(reads), kind

    def test_api_md_lists_every_quorum_kind(self):
        text = (DOCS / "API.md").read_text(encoding="utf-8")
        section = text.split("### Quorum kinds", 1)[1]
        table = re.search(r"(?:^\|.*\n)+", section, flags=re.M).group(0)
        documented = {}  # kind -> the names in its fields column
        for line in table.splitlines()[2:]:  # below the header
            cells = re.split(r"(?<!\\)\|", line)
            kind = re.fullmatch(r" `([a-z_]+)` ", cells[1])
            if kind:
                documented[kind[1]] = set(re.findall(r"`([a-z_]+)`", cells[2]))
        assert set(documented) == set(QuorumSpec._KIND_FIELDS)
        for kind, reads in QuorumSpec._KIND_FIELDS.items():
            assert documented[kind] == set(reads), kind

    def test_api_md_documents_transport_spec(self):
        text = (DOCS / "API.md").read_text(encoding="utf-8")
        table = text.split("## The spec tree", 1)[1].split("###", 1)[0]
        assert "`TransportSpec`" in table
        for field in ("kind", "host", "port_base", "serialization"):
            assert field in table

    def test_runtime_md_wallclock_section(self):
        text = (DOCS / "RUNTIME.md").read_text(encoding="utf-8")
        assert "## Wall-clock backend" in text
        section = text.split("## Wall-clock backend", 1)[1].split("\n## ", 1)[0]
        for needed in (
            "AsyncCoordinator",
            "inproc",
            "tcp",
            "NodeUnavailableError",
            "repro serve",
            "wallclock",
        ):
            assert needed in section, f"Wall-clock backend section lacks {needed}"
