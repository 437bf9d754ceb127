"""build_system: a read/write smoke per registered protocol + validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    CodeSpec,
    ProtocolEngine,
    QuorumSpec,
    SystemSpec,
    build_system,
    protocol_entry,
    protocol_names,
)
from repro.errors import ConfigurationError

SPEC = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, seed=21)


class TestBuildSmoke:
    @pytest.mark.parametrize("name", protocol_names())
    def test_initialize_write_read(self, name):
        built = build_system(SPEC.replace(protocol=name))
        assert isinstance(built.engine, protocol_entry(name).engine_class)
        assert isinstance(built.engine, ProtocolEngine)
        data = built.initialize()
        assert data.shape == (6, SPEC.workload.block_length)

        value = np.arange(SPEC.workload.block_length, dtype=np.uint8)
        write = built.engine.write_block(1, value)
        assert write.success and write.version == 1

        read = built.engine.read_block(1)
        assert read.success and read.version == 1
        assert np.array_equal(read.value, value)

    @pytest.mark.parametrize("name", protocol_names())
    def test_initial_reads_see_loaded_data(self, name):
        built = build_system(SPEC.replace(protocol=name))
        data = built.initialize()
        for i in range(built.num_blocks):
            read = built.engine.read_block(i)
            assert read.success and read.version == 0
            assert np.array_equal(read.value, data[i])

    def test_seeded_data_is_deterministic(self):
        a = build_system(SPEC).initialize()
        b = build_system(SPEC).initialize()
        assert np.array_equal(a, b)
        c = build_system(SPEC.replace(seed=99)).initialize()
        assert not np.array_equal(a, c)

    def test_explicit_data_accepted(self):
        built = build_system(SPEC)
        data = np.zeros((6, 8), dtype=np.uint8)
        assert np.array_equal(built.initialize(data), data)
        assert built.engine.read_block(0).success

    def test_repair_only_for_trap_erc(self):
        assert build_system(SPEC).repair is not None
        for name in ("trap-fr", "rowa", "majority"):
            assert build_system(SPEC.replace(protocol=name)).repair is None

    def test_availability_hooks(self):
        built = build_system(SPEC)
        w = float(built.write_availability(0.9))
        r = float(built.read_availability(0.9))
        assert 0.0 < w <= 1.0 and 0.0 < r <= 1.0
        assert r >= w  # trapezoid reads are at least as available as writes

    def test_flat_availability_hooks_model_the_engine(self):
        # ROWA on the 4-node consistency group: writes need all 4 nodes,
        # regardless of what the (trapezoid) quorum section says.
        built = build_system(SPEC.replace(protocol="rowa"))
        assert float(built.write_availability(0.9)) == pytest.approx(0.9**4)
        assert float(built.read_availability(0.9)) == pytest.approx(
            1.0 - 0.1**4
        )


class TestBuildValidation:
    def test_geometry_mismatch_rejected(self):
        # (9, 6) needs a 4-node trapezoid; (a=2, b=3, h=2) holds 15.
        bad = SystemSpec(
            protocol="trap-erc",
            code=CodeSpec(n=9, k=6),
            quorum=QuorumSpec(kind="trapezoid", a=2, b=3, h=2),
        )
        with pytest.raises(ConfigurationError, match="n - k \\+ 1"):
            build_system(bad)

    def test_trap_protocol_needs_trapezoid_quorum(self):
        bad = SystemSpec(
            protocol="trap-fr",
            code=CodeSpec(n=9, k=6),
            quorum=QuorumSpec(kind="majority", size=4),
        )
        with pytest.raises(ConfigurationError, match="requires a trapezoid"):
            build_system(bad)

    def test_flat_protocols_accept_any_quorum_geometry(self):
        spec = SystemSpec(
            protocol="majority",
            code=CodeSpec(n=9, k=6),
            quorum=QuorumSpec(kind="majority", size=4),
        )
        built = build_system(spec)
        built.initialize()
        assert built.engine.read_block(0).success

    def test_flat_protocol_quorum_size_mismatch_rejected(self):
        spec = SystemSpec(
            protocol="rowa",
            code=CodeSpec(n=9, k=6),  # group size 4
            quorum=QuorumSpec(kind="rowa", size=7),
        )
        with pytest.raises(ConfigurationError, match="size = 4"):
            build_system(spec)

    def test_flat_protocol_contradictory_quorum_kind_rejected(self):
        spec = SystemSpec(
            protocol="rowa",
            code=CodeSpec(n=9, k=6),
            quorum=QuorumSpec(kind="voting", size=4, read_votes=2, write_votes=3),
        )
        with pytest.raises(ConfigurationError, match="contradicts protocol"):
            build_system(spec)

    def test_wrong_data_shape_rejected(self):
        built = build_system(SPEC)
        with pytest.raises(ConfigurationError, match="data must have shape"):
            built.initialize(np.zeros((4, 8), dtype=np.uint8))

    def test_rotating_placement_changes_layout(self):
        spec = SPEC.replace(
            placement=SPEC.placement.replace(kind="rotating"),
        )
        l0 = build_system(spec, stripe_index=0).layout
        l1 = build_system(spec, stripe_index=1).layout
        assert l0.node_ids != l1.node_ids


class TestCoordinatorInjection:
    """coordinator_factory routes every registry engine onto the event path."""

    @pytest.mark.parametrize("name", protocol_names())
    def test_event_path_end_to_end(self, name):
        from repro.cluster.events import Simulator
        from repro.cluster.network import FixedLatency
        from repro.runtime import EventCoordinator

        sim = Simulator()

        def factory(cluster):
            cluster.network.latency = FixedLatency(0.001)
            return EventCoordinator(cluster, sim, rng=3)

        built = build_system(SPEC.replace(protocol=name), coordinator_factory=factory)
        assert built.coordinator is not None
        assert built.engine.coordinator is built.coordinator
        built.initialize()
        read = built.engine.read_block(0)
        assert read.success
        assert read.latency > 0  # virtual time actually elapsed

    def test_repair_service_stays_on_instant_path(self):
        from repro.cluster.events import Simulator
        from repro.runtime import EventCoordinator, InstantCoordinator

        sim = Simulator()
        built = build_system(
            SPEC, coordinator_factory=lambda c: EventCoordinator(c, sim, rng=0)
        )
        # trap-erc supports repair; its anti-entropy engine must not share
        # the event coordinator (repair passes run out of band).
        assert built.repair is not None
        assert isinstance(built.repair.protocol.coordinator, InstantCoordinator)
        assert built.repair.protocol is not built.engine
        assert built.repair.protocol.cluster is built.cluster

    def test_unsupporting_builder_rejected(self):
        from repro.api import register_protocol
        from repro.api.registry import _PROTOCOLS
        from repro.cluster.events import Simulator
        from repro.runtime import EventCoordinator

        class LegacyEngine:
            pass

        @register_protocol("legacy-engine", LegacyEngine)
        def _build_legacy(spec, cluster, code, layout):  # no coordinator kwarg
            return LegacyEngine()

        try:
            sim = Simulator()
            with pytest.raises(ConfigurationError, match="coordinator"):
                build_system(
                    SPEC.replace(protocol="legacy-engine"),
                    coordinator_factory=lambda c: EventCoordinator(c, sim, rng=0),
                )
        finally:
            _PROTOCOLS.pop("legacy-engine")
