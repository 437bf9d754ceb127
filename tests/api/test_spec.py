"""Spec-tree validation and JSON round-trip property tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterSpec,
    CodeSpec,
    FaultloadSpec,
    LatencySpec,
    MetadataSpec,
    PlacementSpec,
    QuorumSpec,
    ScenarioSpec,
    SystemSpec,
    WorkloadSpec,
    execution_options,
)
from repro.errors import ConfigurationError


# --------------------------------------------------------------------- #
# strategies for valid specs
# --------------------------------------------------------------------- #

codes = st.integers(1, 6).flatmap(
    lambda k: st.integers(0, 6).map(lambda m: CodeSpec(n=k + m, k=k))
)

trapezoids = st.tuples(
    st.integers(0, 3), st.integers(1, 5), st.integers(0, 3)
).map(lambda abh: QuorumSpec(kind="trapezoid", a=abh[0], b=abh[1], h=abh[2]))

flat_quorums = st.one_of(
    st.integers(1, 9).map(lambda s: QuorumSpec(kind="rowa", size=s)),
    st.integers(1, 9).map(lambda s: QuorumSpec(kind="majority", size=s)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda rc: QuorumSpec(kind="grid", rows=rc[0], cols=rc[1])
    ),
    st.integers(0, 3).map(lambda h: QuorumSpec(kind="tree", height=h)),
    st.integers(1, 7).map(
        lambda s: QuorumSpec(
            kind="voting", size=s, read_votes=s // 2 + 1, write_votes=s // 2 + 1
        )
    ),
)

faultloads = st.one_of(
    st.none(),
    st.builds(
        FaultloadSpec,
        kind=st.sampled_from(["none", "churn", "partition"]),
        mtbf=st.floats(0.1, 1000.0, allow_nan=False),
        mttr=st.floats(0.1, 100.0, allow_nan=False),
        partition_size=st.integers(1, 4),
    ),
)

scenarios = st.builds(
    ScenarioSpec,
    kind=st.sampled_from(
        [
            "smoke",
            "availability",
            "protocol_mc",
            "trace",
            "comparison",
            "sweep",
            "latency",
        ]
    ),
    ps=st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4
    ).map(tuple),
    trials=st.integers(0, 100),
    steps=st.integers(1, 50),
    clients=st.integers(1, 16),
    think_time=st.floats(0.0, 5.0, allow_nan=False),
    faultload=faultloads,
)

latencies = st.one_of(
    st.none(),
    st.builds(
        LatencySpec,
        kind=st.sampled_from(["fixed", "uniform", "lognormal"]),
        delay=st.floats(0.0, 0.1, allow_nan=False),
        timeout=st.floats(0.001, 1.0, allow_nan=False, exclude_min=False),
        retries=st.integers(0, 3),
    ),
)

workloads = st.builds(
    WorkloadSpec,
    kind=st.sampled_from(["uniform", "sequential", "zipf", "vm_disk"]),
    num_ops=st.integers(1, 500),
    read_fraction=st.floats(0.0, 1.0, allow_nan=False),
    block_length=st.integers(1, 128),
)

system_specs = st.builds(
    SystemSpec,
    protocol=st.sampled_from(["trap-erc", "trap-fr", "rowa", "majority"]),
    code=codes,
    quorum=st.one_of(st.none(), trapezoids, flat_quorums),
    placement=st.builds(
        PlacementSpec,
        kind=st.sampled_from(["identity", "rotating"]),
        stripes=st.integers(1, 4),
    ),
    workload=workloads,
    latency=latencies,
    scenario=scenarios,
    seed=st.integers(-(2**31), 2**31),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(system_specs)
    def test_dict_round_trip_is_lossless(self, spec):
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=100, deadline=None)
    @given(system_specs)
    def test_json_round_trip_is_lossless(self, spec):
        again = SystemSpec.from_json(spec.to_json())
        assert again == spec
        # to_dict output must itself be valid, stable JSON content.
        assert json.loads(again.to_json()) == spec.to_dict()

    @settings(max_examples=50, deadline=None)
    @given(system_specs)
    def test_specs_are_hashable_and_stable(self, spec):
        assert hash(spec) == hash(SystemSpec.from_dict(spec.to_dict()))

    def test_cluster_spec_defaults_from_code(self):
        spec = SystemSpec(code=CodeSpec(n=12, k=8))
        assert spec.cluster.num_nodes == 12
        assert spec.quorum.kind == "trapezoid"
        # default geometry is the flat group-sized trapezoid
        assert spec.quorum.b == 5 and spec.quorum.h == 0

    def test_trapezoid_constructor(self):
        spec = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=3)
        assert spec.quorum.a == 2 and spec.quorum.w == 2
        assert spec.seed == 3


class TestValidation:
    def test_unknown_keys_rejected(self):
        payload = SystemSpec().to_dict()
        payload["frobnicate"] = 1
        with pytest.raises(ConfigurationError, match="unknown SystemSpec keys"):
            SystemSpec.from_dict(payload)

    def test_nested_unknown_keys_rejected(self):
        payload = SystemSpec().to_dict()
        payload["code"]["q"] = 3
        with pytest.raises(ConfigurationError, match="unknown CodeSpec keys"):
            SystemSpec.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid spec JSON"):
            SystemSpec.from_json("{nope")

    def test_bad_code(self):
        with pytest.raises(ConfigurationError):
            CodeSpec(n=3, k=5)

    def test_unknown_quorum_kind_deferred_to_build(self):
        # The spec layer stays inert so register_quorum() can extend the
        # declarative surface; unknown kinds fail at registry lookup.
        from repro.api import build_quorum_system

        spec = QuorumSpec(kind="pentagon", size=5)  # constructs fine
        with pytest.raises(ConfigurationError, match="unknown quorum kind"):
            build_quorum_system(spec)

    def test_trapezoid_requires_shape(self):
        with pytest.raises(ConfigurationError, match="needs a, b and h"):
            QuorumSpec(kind="trapezoid", a=1)

    def test_cluster_smaller_than_code_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot host"):
            SystemSpec(code=CodeSpec(n=9, k=6), cluster=ClusterSpec(num_nodes=5))

    def test_exponential_needs_rates(self):
        with pytest.raises(ConfigurationError, match="mtbf"):
            ClusterSpec(num_nodes=5, failure="exponential")

    def test_scenario_ps_bounds(self):
        with pytest.raises(ConfigurationError, match="every p"):
            ScenarioSpec(ps=(1.5,))

    def test_optimize_kind_needs_interior_p(self):
        with pytest.raises(ConfigurationError, match="strictly inside"):
            ScenarioSpec(kind="optimize", ps=(0.5, 1.0))
        with pytest.raises(ConfigurationError, match="max_h"):
            ScenarioSpec(kind="optimize", max_h=-1)
        spec = ScenarioSpec(kind="optimize", ps=(0.5,), max_h=2)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_workload_kind(self):
        with pytest.raises(ConfigurationError, match="unknown workload kind"):
            WorkloadSpec(kind="chaotic")

    def test_replace_revalidates(self):
        spec = SystemSpec()
        with pytest.raises(ConfigurationError):
            spec.replace(code=CodeSpec(n=9, k=6), cluster=ClusterSpec(num_nodes=2))

    def test_w_list_coerced_to_tuple(self):
        q = QuorumSpec(kind="trapezoid", a=2, b=1, h=1, w=[1, 2])
        assert q.w == (1, 2)
        assert QuorumSpec.from_dict(q.to_dict()) == q

    def test_latency_spec_validation(self):
        with pytest.raises(ConfigurationError, match="unknown latency kind"):
            LatencySpec(kind="quantum")
        with pytest.raises(ConfigurationError, match="timeout"):
            LatencySpec(timeout=0.0)
        with pytest.raises(ConfigurationError, match="retries"):
            LatencySpec(retries=-1)

    def test_faultload_spec_validation(self):
        with pytest.raises(ConfigurationError, match="unknown faultload kind"):
            FaultloadSpec(kind="meteor")
        with pytest.raises(ConfigurationError, match="mtbf"):
            FaultloadSpec(kind="churn", mtbf=0.0)
        with pytest.raises(ConfigurationError, match="duration"):
            FaultloadSpec(kind="partition", period=1.0, duration=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("field", ["mtbf", "mttr", "period"])
    def test_faultload_rates_reject_nonfinite(self, field, bad):
        # Validated for every kind, not just the one consuming the field:
        # a NaN in a results artifact must fail at load, not at replay.
        with pytest.raises(ConfigurationError, match=field):
            FaultloadSpec(**{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.1])
    @pytest.mark.parametrize(
        "field", ["byzantine_fraction", "corruption_rate"]
    )
    def test_faultload_fractions_reject_out_of_range(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            FaultloadSpec(**{field: bad})

    def test_faultload_duration_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), -1.0, 0.0):
            with pytest.raises(ConfigurationError, match="duration"):
                FaultloadSpec(duration=bad)

    def test_byzantine_faultload_round_trip(self):
        fl = FaultloadSpec(
            kind="byzantine",
            byzantine_fraction=0.25,
            corruption_mode="mixed",
            corruption_rate=0.5,
        )
        assert FaultloadSpec.from_dict(fl.to_dict()) == fl
        with pytest.raises(ConfigurationError, match="corruption_mode"):
            FaultloadSpec(kind="byzantine", corruption_mode="gaslight")

    def test_metadata_spec_validation_and_round_trip(self):
        meta = MetadataSpec(nodes=5, quorum="rowa")
        assert MetadataSpec.from_dict(meta.to_dict()) == meta
        with pytest.raises(ConfigurationError, match="nodes"):
            MetadataSpec(nodes=0)
        with pytest.raises(ConfigurationError, match="registry kind"):
            MetadataSpec(quorum="")

    def test_system_spec_metadata_round_trip(self):
        spec = SystemSpec(metadata=MetadataSpec(nodes=3))
        assert SystemSpec.from_dict(spec.to_dict()) == spec
        assert SystemSpec.from_dict(spec.to_dict()).metadata.quorum == "majority"
        # Pre-metadata artifacts (no "metadata" key) must keep loading.
        payload = SystemSpec().to_dict()
        payload.pop("metadata", None)
        assert SystemSpec.from_dict(payload).metadata is None

    def test_latency_scenario_validation(self):
        with pytest.raises(ConfigurationError, match="clients"):
            ScenarioSpec(kind="latency", clients=0)
        with pytest.raises(ConfigurationError, match="think_time"):
            ScenarioSpec(kind="latency", think_time=-0.5)

    def test_pre_runtime_spec_json_still_loads(self):
        """Specs serialized before the latency/faultload fields existed
        (no ``latency`` key, no ``scenario.faultload``) must keep
        loading — results files are long-lived artifacts."""
        payload = SystemSpec().to_dict()
        del payload["latency"]
        del payload["scenario"]["faultload"]
        del payload["scenario"]["clients"]
        del payload["scenario"]["think_time"]
        spec = SystemSpec.from_dict(payload)
        assert spec.latency is None
        assert spec.scenario.faultload is None


class TestExecutionOptions:
    """The advisory execution block: validated, then kept out of identity."""

    def test_absent_block_means_serial(self):
        assert execution_options(None) == {"jobs": 0}

    def test_valid_block(self):
        assert execution_options({"jobs": 4}) == {"jobs": 4}
        assert execution_options({}) == {"jobs": 0}

    @pytest.mark.parametrize(
        "block",
        [
            "4",
            ["jobs"],
            {"jobs": -2},
            {"jobs": 1.5},
            {"jobs": True},
            {"jobs": "many"},
            {"workers": 4},
        ],
    )
    def test_invalid_blocks_rejected(self, block):
        with pytest.raises(ConfigurationError):
            execution_options(block)

    def test_from_dict_strips_execution_block(self):
        spec = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=3)
        payload = spec.to_dict()
        payload["execution"] = {"jobs": 8}
        again = SystemSpec.from_dict(payload)
        assert again == spec
        assert hash(again) == hash(spec)
        assert "execution" not in again.to_dict()

    def test_from_dict_still_validates_the_block(self):
        payload = SystemSpec().to_dict()
        payload["execution"] = {"jobs": -2}
        with pytest.raises(ConfigurationError, match="jobs"):
            SystemSpec.from_dict(payload)

    def test_from_dict_leaves_caller_dict_untouched(self):
        payload = SystemSpec().to_dict()
        payload["execution"] = {"jobs": 2}
        SystemSpec.from_dict(payload)
        assert payload["execution"] == {"jobs": 2}
