"""Registry completeness: every quorum/protocol class is reachable by name."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro.quorum
from repro.api import (
    QuorumSpec,
    build_quorum_system,
    build_trapezoid_quorum,
    protocol_entry,
    protocol_names,
    quorum_entry,
    quorum_names,
    register_protocol,
    register_quorum,
)
from repro.api.registry import DEFAULT_NAMESPACE, _PROTOCOLS, _QUORUMS
from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem

SAMPLE_SPECS = {
    "trapezoid": QuorumSpec(kind="trapezoid", a=2, b=3, h=2),
    "rowa": QuorumSpec(kind="rowa", size=5),
    "majority": QuorumSpec(kind="majority", size=5),
    "grid": QuorumSpec(kind="grid", rows=2, cols=3),
    "tree": QuorumSpec(kind="tree", height=2),
    "voting": QuorumSpec(kind="voting", size=5, read_votes=3, write_votes=3),
}


def _concrete_quorum_classes() -> set[type]:
    """Every concrete QuorumSystem subclass defined under repro.quorum."""
    classes: set[type] = set()
    for info in pkgutil.iter_modules(repro.quorum.__path__):
        module = importlib.import_module(f"repro.quorum.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, QuorumSystem)
                and obj is not QuorumSystem
                and not inspect.isabstract(obj)
                and obj.__module__.startswith("repro.quorum")
            ):
                classes.add(obj)
    return classes


class TestQuorumRegistry:
    def test_every_quorum_class_is_registered(self):
        registered = {entry.system_class for entry in _QUORUMS.values()}
        missing = _concrete_quorum_classes() - registered
        assert not missing, (
            f"unregistered quorum classes: {sorted(c.__name__ for c in missing)}"
        )

    def test_sample_specs_cover_registry(self):
        assert set(SAMPLE_SPECS) == set(quorum_names())

    @pytest.mark.parametrize("kind", sorted(SAMPLE_SPECS))
    def test_every_kind_buildable(self, kind):
        system = build_quorum_system(SAMPLE_SPECS[kind])
        assert isinstance(system, quorum_entry(kind).system_class)
        assert system.size >= 1
        # The built system satisfies the registered interface end to end.
        alive = set(range(system.size))
        wq = system.find_write_quorum(alive)
        assert wq is not None and system.is_write_quorum(wq)
        rq = system.find_read_quorum(alive)
        assert rq is not None and system.is_read_quorum(rq)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown quorum kind"):
            quorum_entry("pentagon")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_quorum("rowa", QuorumSystem)(lambda spec: None)

    def test_trapezoid_quorum_object(self):
        quorum = build_trapezoid_quorum(SAMPLE_SPECS["trapezoid"])
        assert quorum.shape.total_nodes == 15  # the paper's Figure 1
        with pytest.raises(ConfigurationError, match="requires a trapezoid"):
            build_trapezoid_quorum(SAMPLE_SPECS["rowa"])

    def test_trapezoid_explicit_w_vector(self):
        spec = QuorumSpec(kind="trapezoid", a=2, b=3, h=1, w=(2, 4))
        assert build_trapezoid_quorum(spec).w == (2, 4)


class TestProtocolRegistry:
    def test_expected_names(self):
        assert set(protocol_names()) == {"trap-erc", "trap-fr", "rowa", "majority"}

    @pytest.mark.parametrize("name", ["trap-erc", "trap-fr"])
    def test_trapezoid_protocols_marked(self, name):
        assert protocol_entry(name).needs_trapezoid

    def test_repair_support_marked(self):
        assert protocol_entry("trap-erc").supports_repair
        assert not protocol_entry("trap-fr").supports_repair

    def test_unknown_protocol_raises(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            protocol_entry("paxos")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol("rowa", object)(lambda *a: None)

    def test_custom_protocol_and_quorum_are_buildable_from_specs(self):
        """The extension points actually extend the declarative surface."""
        from repro.api import SystemSpec, build_quorum_system, build_system
        from repro.quorum.majority import MajoritySystem

        @register_quorum("all-of", MajoritySystem)
        def _build_all_of(spec):
            return MajoritySystem(spec.size)

        class EchoEngine:
            def __init__(self, cluster):
                self.cluster = cluster

            def initialize(self, data):
                self.data = data

            def read_block(self, i):
                from repro.core.results import ReadResult

                return ReadResult(success=True, value=self.data[i], version=0)

            def write_block(self, i, value):
                from repro.core.results import WriteResult

                self.data[i] = value
                return WriteResult(success=True, version=1)

        @register_protocol("echo", EchoEngine)
        def _build_echo(
            spec, cluster, code, layout,
            coordinator=None, verifier=None, namespace=DEFAULT_NAMESPACE,
        ):
            return EchoEngine(cluster)

        try:
            # Custom quorum kind constructible from a spec dict (JSON path).
            qspec = QuorumSpec.from_dict({"kind": "all-of", "size": 5})
            assert isinstance(build_quorum_system(qspec), MajoritySystem)
            # Custom protocol with a *new* name builds end to end; its
            # availability geometry falls back to the spec's quorum.
            spec = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, protocol="echo")
            built = build_system(spec)
            built.initialize()
            assert built.engine.read_block(0).success
            assert 0.0 < float(built.write_availability(0.9)) <= 1.0
        finally:
            _QUORUMS.pop("all-of")
            _PROTOCOLS.pop("echo")

    def test_entries_expose_engine_classes(self):
        from repro.core import (
            MajorityProtocol,
            RowaProtocol,
            TrapErcProtocol,
            TrapFrProtocol,
        )

        assert _PROTOCOLS["trap-erc"].engine_class is TrapErcProtocol
        assert _PROTOCOLS["trap-fr"].engine_class is TrapFrProtocol
        assert _PROTOCOLS["rowa"].engine_class is RowaProtocol
        assert _PROTOCOLS["majority"].engine_class is MajorityProtocol
