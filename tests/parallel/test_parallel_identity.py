"""The determinism contract, pinned: parallel output == serial output.

Every unit kind the runner fans out — saturation client-count points,
(p, metric) MC columns, protocol-MC trial chunks, optimizer shape
families, comparison sub-runs — must produce the byte-identical result
document (``ScenarioResult.to_json()``, ``trace_hash`` included) at any
worker count, because child RNG streams are assigned by task index,
never by worker. ``jobs=0`` is the baseline; ``jobs=2`` (and ``jobs=4``
for one cheap kind) must match it exactly.
"""

from __future__ import annotations

import pytest

from repro.api import SystemSpec, run_spec

_BASE = {
    "protocol": "trap-erc",
    "code": {"n": 9, "k": 6},
    "quorum": {"a": 2, "b": 1, "h": 1, "w": 2},
    "seed": 23,
}

#: One spec per parallelized unit kind, sized for test-suite budgets.
SPECS = {
    "availability": {
        **_BASE,
        "scenario": {"kind": "availability", "ps": [0.8, 0.9], "trials": 50},
    },
    "sweep": {
        **_BASE,
        "scenario": {"kind": "sweep", "ps": [0.85, 0.95], "trials": 40},
    },
    "protocol_mc": {
        **_BASE,
        "cluster": {"num_nodes": 9, "p": 0.85},
        "scenario": {"kind": "protocol_mc", "trials": 37},
    },
    "protocol_mc_generic": {
        **_BASE,
        "protocol": "majority",
        "cluster": {"num_nodes": 9, "p": 0.85},
        "scenario": {"kind": "protocol_mc", "trials": 13},
    },
    "optimize": {
        **_BASE,
        "scenario": {"kind": "optimize", "ps": [0.9], "max_h": 2},
    },
    "comparison": {**_BASE, "scenario": {"kind": "comparison", "steps": 30}},
    "saturation": {
        **_BASE,
        "latency": {"kind": "lognormal"},
        "service": {"kind": "fixed", "time": 0.002},
        "sharding": {"shards": 2},
        "workload": {"num_ops": 80, "block_length": 16},
        "scenario": {
            "kind": "saturation",
            "client_counts": [1, 4],
            "horizon": 400,
        },
    },
}


@pytest.fixture(scope="module")
def serial_json() -> dict:
    """The jobs=0 baseline document per kind, computed once."""
    return {
        kind: run_spec(SystemSpec.from_dict(spec)).to_json()
        for kind, spec in SPECS.items()
    }


class TestParallelIdentity:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_jobs2_byte_identical(self, serial_json, kind):
        spec = SystemSpec.from_dict(SPECS[kind])
        assert run_spec(spec, jobs=2).to_json() == serial_json[kind]

    def test_jobs4_byte_identical(self, serial_json):
        # One cheap kind at a worker count above the unit count, so the
        # idle-worker and uneven-chunk paths are exercised too.
        spec = SystemSpec.from_dict(SPECS["protocol_mc_generic"])
        assert (
            run_spec(spec, jobs=4).to_json()
            == serial_json["protocol_mc_generic"]
        )

    def test_serial_jobs1_identical(self, serial_json):
        # jobs=1 is the inline path by contract, not a one-worker pool.
        spec = SystemSpec.from_dict(SPECS["protocol_mc"])
        assert run_spec(spec, jobs=1).to_json() == serial_json["protocol_mc"]

    def test_trace_hash_pinned_across_jobs(self, serial_json):
        # The saturation digest is the strongest witness: it hashes every
        # per-point event trace, so any scheduling leak flips it.
        import json

        doc = json.loads(serial_json["saturation"])
        par = json.loads(
            run_spec(
                SystemSpec.from_dict(SPECS["saturation"]), jobs=2
            ).to_json()
        )
        assert doc["data"]["trace_hash"] == par["data"]["trace_hash"]
