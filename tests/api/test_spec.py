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
    build_sharded_system,
    build_system,
    build_trapezoid_quorum,
    execution_options,
    protocol_names,
)
from repro.errors import ConfigurationError
from repro.quorum import shapes_for_nbnode


# --------------------------------------------------------------------- #
# strategies for valid specs
# --------------------------------------------------------------------- #

codes = st.integers(1, 6).flatmap(
    lambda k: st.integers(0, 6).map(lambda m: CodeSpec(n=k + m, k=k))
)


@st.composite
def trapezoids(draw, code: CodeSpec, swept: bool = False):
    """A trapezoid section spanning ``code``'s n - k + 1 consistency group
    (with h >= 1 when ``swept``, so w_values have a level to sweep)."""
    shapes = shapes_for_nbnode(code.group_size)
    shape = draw(st.sampled_from([s for s in shapes if s.h > 0] if swept else shapes))
    w = None
    if shape.h > 0:
        top = shape.level_size(1)
        w = draw(
            st.none()
            | st.integers(1, top)
            | st.lists(st.integers(1, top), min_size=shape.h, max_size=shape.h).map(
                lambda upper: (shape.b // 2 + 1, *upper)
            )
        )
    return QuorumSpec(kind="trapezoid", a=shape.a, b=shape.b, h=shape.h, w=w)

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
    """Valid specs, the cross-section rules met by drawing to fit them:
    the quorum section is a trapezoid over the consistency group, or the
    flat kind of the flat protocol the run builds, at the group's size."""
    scenario = draw(scenarios)
    swept = scenario.w_values is not None
    code = draw(codes.filter(lambda c: c.n > c.k) if swept else codes)
    if scenario.num_blocks is not None:
        scenario = scenario.replace(num_blocks=min(scenario.num_blocks, code.k))
    protocol = draw(st.sampled_from(PROTOCOLS))
    if scenario.kind == "trace":
        protocol = "trap-erc"
    quorum = draw(trapezoids(code, swept) if swept else st.none() | trapezoids(code))
    if swept:
        top = quorum.a + quorum.b  # s_1
        scenario = scenario.replace(
            w_values=tuple(min(w, top) for w in scenario.w_values)
        )
    elif (
        protocol in ("rowa", "majority")
        and scenario.kind not in ("availability", "sweep")
        and draw(st.booleans())
    ):
        quorum = QuorumSpec(kind=protocol, size=code.group_size)
        if scenario.kind == "comparison":
            scenario = scenario.replace(protocols=(protocol,))
    cluster = None
    if scenario.kind == "trace":
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
        seed=draw(st.integers(0, 2**31)),
    )


def built_protocols(spec: SystemSpec) -> tuple[str, ...]:
    """The protocols a run of ``spec`` builds (a comparison builds each
    of its entries, or every registered protocol when they are unset)."""
    if spec.scenario.kind == "comparison":
        return spec.scenario.protocols or protocol_names()
    return (spec.protocol,)


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


class TestEveryLoadedSpecBuilds:
    """A spec that loads is a spec that builds."""

    @settings(max_examples=300, deadline=None)
    @given(system_specs())
    def test_every_protocol_the_run_builds_builds(self, spec):
        for name in built_protocols(spec):
            case = spec.replace(protocol=name)
            build_system(case)
            build_sharded_system(case)
        if spec.scenario.kind in ("availability", "sweep"):
            build_trapezoid_quorum(spec.quorum)


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

    def test_unknown_quorum_kind_refused(self):
        with pytest.raises(ConfigurationError, match="unknown quorum kind 'pentagon'"):
            QuorumSpec(kind="pentagon", size=5)

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
        meta = MetadataSpec(nodes=5, f=1)
        assert MetadataSpec.from_dict(meta.to_dict()) == meta
        with pytest.raises(ConfigurationError, match="nodes"):
            MetadataSpec(nodes=0)

    def test_system_spec_metadata_round_trip(self):
        spec = SystemSpec(metadata=MetadataSpec(nodes=3))
        assert SystemSpec.from_dict(spec.to_dict()) == spec
        assert set(spec.to_dict()["metadata"]) == {"nodes", "f", "signed"}
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
        assert sum(map(len, QuorumSpec._KIND_FIELDS.values())) == 6
        assert {f.name for f in fields(QuorumSpec)} - {"kind"} == {
            name for reads in QuorumSpec._KIND_FIELDS.values() for name in reads
        }

    @pytest.mark.parametrize(
        "kind, fitting, name, value",
        [
            ("trapezoid", {"a": 0, "b": 4, "h": 0}, "size", 4),
            ("rowa", {"size": 4}, "a", 0),
            ("rowa", {"size": 4}, "w", 2),
            ("majority", {"size": 4}, "h", 1),
            ("majority", {"size": 4}, "b", 4),
        ],
    )
    def test_quorum_unread_field_refused(self, kind, fitting, name, value):
        QuorumSpec(kind=kind, **fitting)
        with pytest.raises(ConfigurationError) as err:
            QuorumSpec(kind=kind, **fitting, **{name: value})
        reads = list(QuorumSpec._KIND_FIELDS[kind])
        assert str(err.value) == (
            f"QuorumSpec kind {kind!r} does not read {name!r}; it reads {reads}"
        )

    @pytest.mark.parametrize(
        "section",
        [
            {"kind": "trapezoid", "a": "2", "b": 1, "h": 1},
            {"kind": "trapezoid", "a": 2, "b": 1, "h": True},
            {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": "2"},
            {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": [1, 2.5]},
            {"kind": "rowa", "size": "4"},
            {"kind": "majority", "size": 0},
        ],
    )
    def test_quorum_values_are_typed(self, section):
        with pytest.raises(ConfigurationError):
            QuorumSpec.from_dict(section)

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
    "code_too_wide": (
        {"code": {"n": 300, "k": 8}},
        "(n=300, k=8) needs n <= 256: the code's generator takes one distinct "
        "point of GF(2^8) per block",
    ),
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
    # refused by the build (or the run, for the sweep's w) before they
    # were checked at load
    "trapezoid_size": (
        {
            "quorum": {"kind": "trapezoid", "a": 2, "b": 3, "h": 1},
            "scenario": {"kind": "availability", "trials": 0},
        },
        "trapezoid holds 8 nodes but (n=9, k=6) requires Nbnode = n - k + 1 = 4",
    ),
    "trapezoid_size_flat_protocol": (
        {"protocol": "rowa", "quorum": {"kind": "trapezoid", "a": 0, "b": 5, "h": 0}},
        "trapezoid holds 5 nodes but (n=9, k=6) requires Nbnode = n - k + 1 = 4",
    ),
    "trapezoid_shape": (
        {"quorum": {"kind": "trapezoid", "a": 1, "b": 0, "h": 1}},
        "b must be >= 1, got 0",
    ),
    "trapezoid_w": (
        {"quorum": {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": 4}},
        "need 1 <= w_1 <= s_1 = 3, got 4",
    ),
    "trapezoid_w_0": (
        {"quorum": {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": [2, 2]}},
        "w_0 must be floor(b/2)+1 = 1, got 2",
    ),
    "trapezoid_w_levels": (
        {"quorum": {"kind": "trapezoid", "a": 2, "b": 1, "h": 1, "w": [1]}},
        "w must have h+1 = 2 entries, got 1",
    ),
    "sweep_w_value": (
        {
            "quorum": {"kind": "trapezoid", "a": 2, "b": 1, "h": 1},
            "scenario": {"kind": "sweep", "w_values": [1, 4]},
        },
        "need 1 <= w_1 <= s_1 = 3, got 4",
    ),
    "flat_size": (
        {"protocol": "rowa", "quorum": {"kind": "rowa", "size": 7}},
        "rowa replicates on the n - k + 1 = 4 node consistency group, but "
        "quorum.size = 7; omit quorum or set size = 4",
    ),
    "flat_kind_vs_flat_protocol": (
        {"protocol": "rowa", "quorum": {"kind": "majority", "size": 4}},
        "quorum kind 'majority' contradicts protocol 'rowa'; omit quorum, or "
        "use kind 'rowa' with size = 4",
    ),
    "flat_kind_vs_trapezoid_protocol": (
        {"protocol": "trap-fr", "quorum": {"kind": "majority", "size": 4}},
        "protocol requires a trapezoid quorum, got kind 'majority'",
    ),
    "flat_kind_vs_comparison_entry": (
        {
            "protocol": "rowa",
            "quorum": {"kind": "rowa", "size": 4},
            "scenario": {"kind": "comparison", "protocols": ["rowa", "majority"]},
        },
        "quorum kind 'rowa' contradicts protocol 'majority'; omit quorum, or "
        "use kind 'majority' with size = 4",
    ),
    "flat_kind_vs_comparison_trapezoid_entry": (
        {
            "protocol": "rowa",
            "quorum": {"kind": "rowa", "size": 4},
            "scenario": {"kind": "comparison", "protocols": ["trap-erc"]},
        },
        "protocol requires a trapezoid quorum, got kind 'rowa'",
    ),
    "flat_kind_comparison_needs_protocols": (
        {
            "protocol": "rowa",
            "quorum": {"kind": "rowa", "size": 4},
            "scenario": {"kind": "comparison"},
        },
        "a comparison over a 'rowa' quorum must list scenario.protocols "
        "(unset, it runs every registered protocol)",
    ),
    "flat_kind_availability": (
        {
            "protocol": "rowa",
            "quorum": {"kind": "rowa", "size": 4},
            "scenario": {"kind": "availability"},
        },
        "protocol requires a trapezoid quorum, got kind 'rowa'",
    ),
    "unknown_protocol": (
        {"protocol": "paxos"},
        "unknown protocol 'paxos' "
        "(registered: ('majority', 'rowa', 'trap-erc', 'trap-fr'))",
    ),
    "unknown_comparison_protocol": (
        {"scenario": {"kind": "comparison", "protocols": ["rowa", "paxos"]}},
        "unknown protocol 'paxos' "
        "(registered: ('majority', 'rowa', 'trap-erc', 'trap-fr'))",
    ),
    "negative_seed": (
        {"seed": -5},
        "seed must be a non-negative integer, got -5",
    ),
    "bool_seed": (
        {"seed": True},
        "seed must be a non-negative integer, got True",
    ),
}

#: quorum kinds and keys that no protocol could build, and the metadata
#: tier's quorum kind, gone from the spec
REMOVED = {
    "grid": (
        {"quorum": {"kind": "grid"}},
        "unknown quorum kind 'grid' (expected one of "
        "('trapezoid', 'rowa', 'majority'))",
    ),
    "tree": (
        {"quorum": {"kind": "tree"}},
        "unknown quorum kind 'tree' (expected one of "
        "('trapezoid', 'rowa', 'majority'))",
    ),
    "voting": (
        {"quorum": {"kind": "voting"}},
        "unknown quorum kind 'voting' (expected one of "
        "('trapezoid', 'rowa', 'majority'))",
    ),
    **{
        key: (
            {"quorum": {"kind": "trapezoid", "a": 0, "b": 4, "h": 0, key: None}},
            f"unknown QuorumSpec keys: ['{key}'] "
            "(known: ['a', 'b', 'h', 'kind', 'size', 'w'])",
        )
        for key in ("rows", "cols", "height", "weights", "read_votes", "write_votes")
    },
    "metadata_quorum": (
        {"metadata": {"nodes": 3, "quorum": "majority"}},
        "unknown MetadataSpec keys: ['quorum'] (known: ['f', 'nodes', 'signed'])",
    ),
}


class TestLoadTimeChecks:
    @pytest.mark.parametrize("name", list(LOAD_TIME_CHECKS))
    def test_refused_by_from_dict(self, name):
        payload, message = LOAD_TIME_CHECKS[name]
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SystemSpec.from_dict(payload)

    @pytest.mark.parametrize("name", list(REMOVED))
    def test_removed_quorum_surface_refused(self, name):
        payload, message = REMOVED[name]
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SystemSpec.from_dict(payload)

    def test_trapezoid_size_refused_by_the_constructor(self):
        with pytest.raises(
            ConfigurationError,
            match=re.escape(
                "trapezoid holds 8 nodes but (n=9, k=6) requires "
                "Nbnode = n - k + 1 = 4"
            ),
        ):
            SystemSpec.trapezoid(
                9, 6, 2, 3, 1, scenario=ScenarioSpec(kind="availability", trials=0)
            )

    @pytest.mark.parametrize("seed", [-1, -(2**31), True, 1.5, "7"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative"):
            SystemSpec(seed=seed)

    def test_fitting_specs_load(self):
        SystemSpec.from_dict({"cluster": _EXPONENTIAL, "scenario": {"kind": "trace"}})
        for name in ("rowa", "majority"):
            SystemSpec.from_dict(
                {
                    "protocol": name,
                    "quorum": {"kind": name, "size": 4},
                    "scenario": {"kind": "comparison", "protocols": [name]},
                }
            )
        # a trapezoid serves every protocol of a mixed comparison
        SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, scenario=ScenarioSpec(kind="comparison"))
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
