"""The protocol registry, and the trapezoid a spec's quorum section builds."""

from __future__ import annotations

import pytest

from repro.api import (
    QuorumSpec,
    build_trapezoid_quorum,
    protocol_entry,
    protocol_names,
    register_protocol,
)
from repro.api.registry import DEFAULT_NAMESPACE, _PROTOCOLS
from repro.errors import ConfigurationError


class TestTrapezoidQuorum:
    def test_trapezoid_quorum_object(self):
        quorum = build_trapezoid_quorum(QuorumSpec(kind="trapezoid", a=2, b=3, h=2))
        assert quorum.shape.total_nodes == 15  # the paper's Figure 1
        with pytest.raises(ConfigurationError, match="requires a trapezoid"):
            build_trapezoid_quorum(QuorumSpec(kind="rowa", size=5))

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

    def test_custom_protocol_is_buildable_from_specs(self):
        """The extension point actually extends the declarative surface."""
        from repro.api import SystemSpec, build_system

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
            # A protocol with a *new* name builds end to end from spec JSON.
            spec = SystemSpec.trapezoid(9, 6, 2, 1, 1, 2, protocol="echo")
            built = build_system(SystemSpec.from_json(spec.to_json()))
            built.initialize()
            assert built.engine.read_block(0).success
            assert built.quorum is None  # not registered as a trapezoid engine
        finally:
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
