"""Spec-tree validation and JSON round-trip property tests."""

from __future__ import annotations

import json
import re
from dataclasses import fields

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

#: valid values per field of a kind-tagged section, drawn for each kind
#: from the fields its ``_KIND_FIELDS`` entry lists
FAULTLOAD_FIELDS = {
    "mtbf": st.floats(0.1, 1000.0, allow_nan=False),
    "mttr": st.floats(0.1, 100.0, allow_nan=False),
    "partition_size": st.integers(1, 4),
    "period": st.floats(20.0, 200.0, allow_nan=False),
    "duration": st.floats(0.1, 20.0, allow_nan=False),
    "byzantine_fraction": st.floats(0.0, 1.0, allow_nan=False),
    "corruption_mode": st.sampled_from(["payload", "stale", "mixed"]),
    "corruption_rate": st.floats(0.0, 1.0, allow_nan=False),
    "metadata_liars": st.integers(0, 3),
    "metadata_mode": st.sampled_from(["forge", "stale_record", "equivocate"]),
    "metadata_rate": st.floats(0.0, 1.0, allow_nan=False),
}


def kind_sections(cls, values: dict, overrides: dict | None = None):
    """Valid ``cls`` sections: every kind, each with any subset of the
    fields it reads drawn from ``values`` (``overrides[kind]`` replaces
    entries for one kind)."""
    overrides = overrides or {}
    return st.one_of(
        *(
            st.fixed_dictionaries(
                {"kind": st.just(kind)},
                optional={
                    name: {**values, **overrides.get(kind, {})}[name]
                    for name in reads
                },
            ).map(lambda kwargs: cls(**kwargs))
            for kind, reads in cls._KIND_FIELDS.items()
        )
    )


faultloads = st.none() | kind_sections(FaultloadSpec, FAULTLOAD_FIELDS)

PROTOCOLS = ["trap-erc", "trap-fr", "rowa", "majority"]

SCENARIO_FIELDS = {
    "ps": st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4
    ).map(tuple),
    "trials": st.integers(0, 100),
    "steps": st.integers(1, 50),
    "max_down": st.integers(0, 4),
    "horizon": st.floats(0.5, 500.0, allow_nan=False),
    "op_rate": st.floats(0.01, 10.0, allow_nan=False),
    "repair_interval": st.none() | st.floats(0.5, 50.0, allow_nan=False),
    "protocols": st.none()
    | st.lists(st.sampled_from(PROTOCOLS), min_size=1, max_size=3, unique=True).map(
        tuple
    ),
    # num_blocks <= code.k and w_values on an h >= 1 trapezoid are
    # cross-section rules: system_specs draws the rest of the spec to fit
    "num_blocks": st.none() | st.integers(1, 6),
    "w_values": st.none()
    | st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    "max_h": st.integers(0, 3),
    "clients": st.integers(1, 16),
    "think_time": st.floats(0.0, 5.0, allow_nan=False),
    "client_counts": st.none()
    | st.lists(st.integers(1, 16), min_size=1, max_size=4).map(tuple),
    "faultload": faultloads,
}

scenarios = kind_sections(
    ScenarioSpec,
    SCENARIO_FIELDS,
    overrides={
        "optimize": {
            "ps": st.lists(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1,
                max_size=4,
            ).map(tuple)
        },
        "protocol_mc": {"trials": st.integers(1, 100)},
    },
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


@st.composite
def system_specs(draw):
    """Valid specs, the cross-section rules met by drawing to fit them."""
    scenario = draw(scenarios)
    code = draw(codes)
    if scenario.num_blocks is not None:
        scenario = scenario.replace(num_blocks=min(scenario.num_blocks, code.k))
    if scenario.w_values is not None:
        quorum = draw(trapezoids.filter(lambda q: q.h > 0))
    else:
        quorum = draw(st.one_of(st.none(), trapezoids, flat_quorums))
    protocol = draw(st.sampled_from(PROTOCOLS))
    cluster = None
    if scenario.kind == "trace":
        protocol = "trap-erc"
        cluster = ClusterSpec(
            num_nodes=code.n + draw(st.integers(0, 3)),
            failure="exponential",
            mtbf=draw(st.floats(1.0, 500.0, allow_nan=False)),
            mttr=draw(st.floats(0.1, 50.0, allow_nan=False)),
        )
    liars = scenario.faultload.metadata_liars if scenario.faultload else 0
    metadata = draw(
        st.builds(MetadataSpec, nodes=st.integers(max(1, liars), 6))
        if liars
        else st.none() | st.builds(MetadataSpec, nodes=st.integers(1, 6))
    )
    return SystemSpec(
        protocol=protocol,
        code=code,
        quorum=quorum,
        cluster=cluster,
        placement=draw(
            st.builds(
                PlacementSpec,
                kind=st.sampled_from(["identity", "rotating"]),
                stripes=st.integers(1, 4),
            )
        ),
        workload=draw(workloads),
        latency=draw(latencies),
        metadata=metadata,
        scenario=scenario,
        seed=draw(st.integers(-(2**31), 2**31)),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(system_specs())
    def test_dict_round_trip_is_lossless(self, spec):
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=100, deadline=None)
    @given(system_specs())
    def test_json_round_trip_is_lossless(self, spec):
        again = SystemSpec.from_json(spec.to_json())
        assert again == spec
        # to_dict output must itself be valid, stable JSON content.
        assert json.loads(again.to_json()) == spec.to_dict()

    @settings(max_examples=50, deadline=None)
    @given(system_specs())
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


#: one valid, non-default value per field of each kind-tagged section
SET_VALUES = {
    ScenarioSpec: {
        "ps": (0.25,),
        "trials": 7,
        "steps": 9,
        "max_down": 1,
        "horizon": 50.0,
        "op_rate": 2.0,
        "repair_interval": 5.0,
        "protocols": ("rowa",),
        "w_values": (1,),
        "num_blocks": 1,
        "max_h": 2,
        "clients": 2,
        "think_time": 0.5,
        "client_counts": (1, 2),
        "faultload": FaultloadSpec(kind="churn"),
    },
    FaultloadSpec: {
        "mtbf": 50.0,
        "mttr": 5.0,
        "partition_size": 2,
        "period": 50.0,
        "duration": 10.0,
        "byzantine_fraction": 0.5,
        "corruption_mode": "stale",
        "corruption_rate": 0.5,
        "metadata_liars": 1,
        "metadata_mode": "equivocate",
        "metadata_rate": 0.5,
    },
}


def _kind_field_cases(read: bool) -> list:
    return [
        pytest.param(cls, kind, name, id=f"{cls.__name__}-{kind}-{name}")
        for cls, values in SET_VALUES.items()
        for kind, reads in cls._KIND_FIELDS.items()
        for name in values
        if (name in reads) == read
    ]


class TestKindFields:
    """Each kind-tagged section accepts exactly the fields its kind reads."""

    @pytest.mark.parametrize("cls", list(SET_VALUES))
    def test_set_values_cover_every_field(self, cls):
        assert set(SET_VALUES[cls]) == {f.name for f in fields(cls)} - {"kind"}
        for kind, reads in cls._KIND_FIELDS.items():
            assert set(reads) <= set(SET_VALUES[cls]), kind

    def test_settable_values(self):
        # the fields some kind reads, counted per kind
        assert sum(map(len, ScenarioSpec._KIND_FIELDS.values())) == 28
        assert sum(map(len, FaultloadSpec._KIND_FIELDS.values())) == 11

    @pytest.mark.parametrize("cls, kind, name", _kind_field_cases(read=False))
    def test_unread_field_refused(self, cls, kind, name):
        with pytest.raises(ConfigurationError) as err:
            cls(kind=kind, **{name: SET_VALUES[cls][name]})
        message = str(err.value)
        assert repr(kind) in message and repr(name) in message, message

    @pytest.mark.parametrize("cls, kind, name", _kind_field_cases(read=True))
    def test_read_field_accepted(self, cls, kind, name):
        section = cls(kind=kind, **{name: SET_VALUES[cls][name]})
        assert getattr(section, name) == SET_VALUES[cls][name]
        assert cls.from_dict(section.to_dict()) == section

    @pytest.mark.parametrize("kind", list(ScenarioSpec._KIND_FIELDS))
    def test_none_faultload_counts_as_unset(self, kind):
        for faultload in (FaultloadSpec(), FaultloadSpec(kind="none")):
            assert ScenarioSpec(kind=kind, faultload=faultload).faultload == faultload

    def test_value_checks_run_first(self):
        with pytest.raises(ConfigurationError, match="trials must be >= 0"):
            ScenarioSpec(kind="latency", trials=-1)
        with pytest.raises(ConfigurationError, match="mtbf must be"):
            FaultloadSpec(kind="partition", mtbf=float("nan"))

    def test_a_field_at_its_default_is_not_set(self):
        assert ScenarioSpec(kind="latency", trials=1000).trials == 1000
        assert FaultloadSpec(kind="churn", metadata_liars=0).metadata_liars == 0


_EXPONENTIAL = {"failure": "exponential", "mtbf": 40.0, "mttr": 4.0}

#: the cross-section and kind checks a spec makes when it loads, each with
#: the message it raises
LOAD_TIME_CHECKS = {
    "protocol_mc_trials": (
        {"scenario": {"kind": "protocol_mc", "trials": 0}},
        "protocol_mc needs trials >= 1, got 0 (trials = 0 only disables the "
        "optional MC column of availability/sweep scenarios)",
    ),
    "trace_protocol": (
        {
            "protocol": "rowa",
            "cluster": _EXPONENTIAL,
            "scenario": {"kind": "trace"},
        },
        "trace scenarios run the TRAP-ERC engine; set protocol to 'trap-erc' "
        "(got 'rowa')",
    ),
    "trace_cluster": (
        {"scenario": {"kind": "trace"}},
        "trace scenarios need cluster.failure = 'exponential' with mtbf and mttr",
    ),
    "comparison_num_blocks": (
        {"scenario": {"kind": "comparison", "num_blocks": 7}},
        "num_blocks must be <= k = 6, got 7",
    ),
    "sweep_flat_w_values": (
        {"scenario": {"kind": "sweep", "w_values": [1, 2]}},
        "w_values cannot be swept on an h = 0 trapezoid "
        "(w_0 = floor(b/2) + 1 is mandatory)",
    ),
    "liars_need_metadata": (
        {
            "scenario": {
                "kind": "latency",
                "faultload": {"kind": "byzantine", "metadata_liars": 1},
            }
        },
        "metadata_liars > 0 needs a metadata section in the spec",
    ),
    "liars_exceed_tier": (
        {
            "metadata": {"nodes": 3},
            "scenario": {
                "kind": "latency",
                "faultload": {"kind": "byzantine", "metadata_liars": 4},
            },
        },
        "metadata_liars = 4 exceeds the metadata tier size 3",
    ),
}


class TestLoadTimeChecks:
    @pytest.mark.parametrize("name", list(LOAD_TIME_CHECKS))
    def test_refused_by_from_dict(self, name):
        payload, message = LOAD_TIME_CHECKS[name]
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SystemSpec.from_dict(payload)

    def test_fitting_specs_load(self):
        SystemSpec.from_dict({"cluster": _EXPONENTIAL, "scenario": {"kind": "trace"}})
        SystemSpec.from_dict({"scenario": {"kind": "comparison", "num_blocks": 6}})
        SystemSpec.trapezoid(
            9, 6, 2, 1, 1, scenario=ScenarioSpec(kind="sweep", w_values=(1, 2))
        )
        SystemSpec.from_dict(
            {
                "metadata": {"nodes": 3},
                "scenario": {
                    "kind": "latency",
                    "faultload": {"kind": "byzantine", "metadata_liars": 3},
                },
            }
        )


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
