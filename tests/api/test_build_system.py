"""build_system: a read/write smoke per registered protocol + validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    CodeSpec,
    MetadataSpec,
    ProtocolEngine,
    QuorumSpec,
    ShardingSpec,
    SystemSpec,
    build_sharded_system,
    build_system,
    build_trapezoid_quorum,
    protocol_entry,
    protocol_names,
)
from repro.api.build import _layout_for
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

    def test_trapezoid_engines_carry_their_quorum(self):
        built = build_system(SPEC)
        assert built.quorum == build_trapezoid_quorum(SPEC.quorum)
        assert build_system(SPEC.replace(protocol="trap-fr")).quorum == built.quorum
        for name in ("rowa", "majority"):
            assert build_system(SPEC.replace(protocol=name)).quorum is None


class TestBuildValidation:
    def test_flat_protocol_builds_from_its_flat_quorum(self):
        spec = SystemSpec(
            protocol="majority",
            code=CodeSpec(n=9, k=6),
            quorum=QuorumSpec(kind="majority", size=4),
        )
        built = build_system(spec)
        built.initialize()
        assert built.engine.read_block(0).success

    def test_wrong_data_shape_rejected(self):
        built = build_system(SPEC)
        with pytest.raises(ConfigurationError, match="data must have shape"):
            built.initialize(np.zeros((4, 8), dtype=np.uint8))

    def test_shards_take_the_rotated_layouts(self):
        spec = SPEC.replace(
            placement=SPEC.placement.replace(kind="rotating"),
            sharding=ShardingSpec(shards=3),
        )
        system = build_sharded_system(spec)
        layouts = [shard.engine.layout.node_ids for shard in system.shards]
        assert layouts == [_layout_for(spec, i).node_ids for i in range(3)]
        assert len(set(layouts)) == 3


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
        # trap-erc supports repair: it runs the stripe's one engine and
        # verifier, but on an instant coordinator of its own (repair
        # passes run out of band, never on the event coordinator).
        assert built.repair is not None
        assert built.repair.protocol is built.engine
        assert built.repair.protocol.verifier is built.verifier
        assert isinstance(built.repair.coordinator, InstantCoordinator)
        assert built.repair.coordinator is not built.coordinator
        assert built.repair.coordinator.cluster is built.cluster


def _placement(engine) -> tuple[int, ...]:
    """The nodes an engine stores on: its stripe layout or replica group."""
    layout = getattr(engine, "layout", None)
    return layout.node_ids if layout is not None else tuple(engine.node_ids)


class TestOneStripeConstructor:
    """build_system and a 1-shard build_sharded_system build stripe 0 alike."""

    @pytest.mark.parametrize("metadata", [None, MetadataSpec(nodes=3)])
    @pytest.mark.parametrize("name", protocol_names())
    def test_stripe_zero_matches(self, name, metadata):
        from repro.cluster.events import Simulator
        from repro.runtime import EventCoordinator

        spec = SPEC.replace(protocol=name, metadata=metadata)
        built = build_system(spec)
        sharded = build_sharded_system(spec)
        (shard,) = sharded.shards
        supports_repair = protocol_entry(name).supports_repair

        assert built.layout.node_ids == _layout_for(spec, 0).node_ids
        assert _placement(shard.engine) == _placement(built.engine)
        assert shard.engine.stripe_id == built.engine.stripe_id
        assert (built.verifier is not None) == (metadata is not None)
        assert [v.namespace for v in sharded.verifiers] == (
            [] if metadata is None else [built.verifier.namespace]
        )
        assert (built.repair is not None) == supports_repair
        assert len(sharded.repairs) == int(supports_repair)

        sim = Simulator()
        injected = build_system(
            spec, coordinator_factory=lambda c: EventCoordinator(c, sim, rng=0)
        )
        assert injected.engine.coordinator is injected.coordinator
        if supports_repair:
            for repair, engine, verifier, coordinator in (
                (built.repair, built.engine, built.verifier, None),
                (injected.repair, injected.engine, injected.verifier,
                 injected.coordinator),
                (sharded.repairs[0], shard.engine,
                 sharded.verifiers[0] if sharded.verifiers else None,
                 shard.coordinator),
            ):
                assert repair.protocol is engine
                assert repair.protocol.verifier is verifier
                assert repair.coordinator is not coordinator


class TestRepairInsideTheSimulator:
    """A sharded stripe's repair pass runs from a simulator callback."""

    def test_sync_all_from_a_callback_repairs_off_the_event_loop(self):
        spec = SPEC.replace(
            metadata=MetadataSpec(nodes=3), sharding=ShardingSpec(shards=2)
        )
        system = build_sharded_system(spec)
        system.initialize()
        shard, repair = system.shards[0], system.repairs[0]
        assert [r.protocol for r in system.repairs] == [
            s.engine for s in system.shards
        ]
        assert [r.protocol.verifier for r in system.repairs] == system.verifiers
        engine, cluster = shard.engine, system.cluster
        parity_node = engine.layout.parity_nodes[0]

        def versions():
            return cluster.rpc(parity_node, "parity_versions", engine.parity_key())

        cluster.fail(parity_node)
        cluster.recover(parity_node, wipe=True)
        assert versions() is None
        rounds_before = shard.coordinator.rounds_run
        repaired = []
        system.simulator.schedule_at(0.5, lambda: repaired.append(repair.sync_all()))
        system.simulator.run()  # a SimulationError here fails the test
        assert repaired == [1]
        assert shard.coordinator.rounds_run == rounds_before
        assert list(versions()) == [0] * engine.code.k
        assert repair.counters() == {
            "repairs_performed": 1,
            "repairs_blocked": 0,
            "records_rejected": 0,
        }
