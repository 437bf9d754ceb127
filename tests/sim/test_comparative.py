"""Tests for the comparative-evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import MajorityProtocol, RowaProtocol, TrapErcProtocol
from repro.erasure import MDSCode
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.sim import ComparisonResult, make_schedule, run_comparison

L = 16


def build_engines():
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(6, L), dtype=np.int64).astype(np.uint8)

    c1 = Cluster(9)
    erc = TrapErcProtocol(c1, MDSCode(9, 6), quorum)
    erc.initialize(data)
    c2 = Cluster(9)
    rowa = RowaProtocol(c2, [0, 6, 7, 8], "cmp")
    rowa.initialize(data[:6])
    c3 = Cluster(9)
    major = MajorityProtocol(c3, [0, 6, 7, 8], "cmp")
    major.initialize(data[:6])
    return {"erc": (c1, erc), "rowa": (c2, rowa), "majority": (c3, major)}


class TestSchedule:
    def test_shape_and_determinism(self):
        s1 = make_schedule(50, 9, 6, rng=3)
        s2 = make_schedule(50, 9, 6, rng=3)
        assert s1 == s2
        assert len(s1) == 50
        for step in s1:
            assert all(0 <= n < 9 for n in step.down)
            assert 0 <= step.block < 6
            assert len(step.down) <= 2

    def test_read_fraction_extremes(self):
        assert all(s.is_read for s in make_schedule(30, 4, 2, read_fraction=1.0, rng=4))
        assert not any(
            s.is_read for s in make_schedule(30, 4, 2, read_fraction=0.0, rng=5)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_schedule(0, 4, 2)
        with pytest.raises(ConfigurationError):
            make_schedule(5, 4, 2, max_down=9)
        with pytest.raises(ConfigurationError):
            make_schedule(5, 4, 2, read_fraction=1.5)


class TestRunComparison:
    def test_tallies_cover_schedule(self):
        engines = build_engines()
        schedule = make_schedule(60, 9, 6, rng=6)
        results = run_comparison(engines, schedule, L)
        reads = sum(s.is_read for s in schedule)
        for name, res in results.items():
            assert res.reads == reads
            assert res.writes == 60 - reads
            assert 0 <= res.reads_ok <= res.reads
            assert 0 <= res.writes_ok <= res.writes

    def test_structural_expectations(self):
        """On the *same* node set ({0,6,7,8} = block 0's ERC group), with
        anti-entropy for ERC: ROWA reads never lose; ROWA writes never
        win."""
        from repro.core import RepairService

        engines = build_engines()
        repair = RepairService(engines["erc"][1])
        # num_blocks=1 pins every op to block 0, whose ERC consistency
        # group coincides with the baselines' replica set.
        schedule = make_schedule(150, 9, 1, max_down=2, rng=7)
        results = run_comparison(
            engines, schedule, L, repair_fns={"erc": repair.sync_all}
        )
        rowa = results["rowa"]
        for name, res in results.items():
            assert rowa.read_availability >= res.read_availability - 1e-12
            assert rowa.write_availability <= res.write_availability + 1e-12

    def test_healthy_write_messages(self):
        """On the same 4-node group a healthy write reaches every node
        once under both protocols; ERC's read-before-write is its level-0
        check (2·r_0 messages, the direct read included), where ROWA's
        version lookup asks all four nodes."""
        from repro.analysis import write_messages_erc

        engines = build_engines()
        value = np.full(L, 3, dtype=np.uint8)
        erc = engines["erc"][1].write_block(0, value)
        rowa = engines["rowa"][1].write_block(0, value)
        budget = write_messages_erc(engines["erc"][1].quorum, 9, 6)
        assert erc.success and rowa.success
        assert erc.messages == budget["total"]
        assert rowa.messages == 2 * 4 + budget["write_rpcs"]

    def test_erc_without_repair_collapses(self):
        """The staleness collapse is visible through this harness too."""
        from repro.core import RepairService

        schedule = make_schedule(150, 9, 1, max_down=2, read_fraction=0.0, rng=8)
        engines = build_engines()
        bare = run_comparison({"erc": engines["erc"]}, schedule, L)
        engines2 = build_engines()
        repair = RepairService(engines2["erc"][1])
        healed = run_comparison(
            {"erc": engines2["erc"]}, schedule, L, repair_fns={"erc": repair.sync_all}
        )
        assert healed["erc"].write_availability > bare["erc"].write_availability + 0.2

    def test_block_length_validated(self):
        with pytest.raises(ConfigurationError):
            run_comparison({}, [], 0)

    def test_result_properties_no_ops(self):
        res = ComparisonResult(name="idle")
        assert res.read_availability == 1.0
        assert res.write_availability == 1.0
        assert res.messages_per_read == 0.0
        assert res.messages_per_write == 0.0
