"""Tests for ROWA/Majority engines and the repair service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import (
    MajorityProtocol,
    RepairService,
    RowaProtocol,
    TrapErcProtocol,
)
from repro.erasure import MDSCode
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape

L = 16


def rand_blocks(num: int = 2, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(num, L), dtype=np.int64).astype(np.uint8)


def rand_block(seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=L, dtype=np.int64).astype(np.uint8)


class TestRowa:
    def test_write_read_roundtrip(self):
        cluster = Cluster(4)
        proto = RowaProtocol(cluster, range(4), "r0")
        proto.initialize(rand_blocks(seed=2))
        new = rand_block(3)
        assert proto.write_block(0, new).success
        r = proto.read_block(0)
        assert r.success and np.array_equal(r.value, new)

    def test_single_failure_blocks_writes(self):
        cluster = Cluster(4)
        proto = RowaProtocol(cluster, range(4), "r0")
        proto.initialize(rand_blocks(seed=4))
        cluster.fail(2)
        assert not proto.write_block(0, rand_block(5)).success

    def test_reads_survive_n_minus_1_failures(self):
        cluster = Cluster(4)
        proto = RowaProtocol(cluster, range(4), "r0")
        proto.initialize(rand_blocks(seed=6))
        cluster.fail_many([0, 1, 2])
        assert proto.read_block(0).success

    def test_all_down_read_fails(self):
        cluster = Cluster(3)
        proto = RowaProtocol(cluster, range(3), "r0")
        proto.initialize(rand_blocks(seed=7))
        cluster.fail_many([0, 1, 2])
        assert not proto.read_block(0).success
        assert not proto.write_block(0, rand_block(8)).success

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            RowaProtocol(Cluster(3), [0, 0, 1], "r0")


class TestMajority:
    def test_write_read_roundtrip(self):
        cluster = Cluster(5)
        proto = MajorityProtocol(cluster, range(5), "m0")
        proto.initialize(rand_blocks(seed=9))
        new = rand_block(10)
        assert proto.write_block(0, new).success
        r = proto.read_block(0)
        assert r.success and np.array_equal(r.value, new)

    def test_tolerates_minority_failures(self):
        cluster = Cluster(5)
        proto = MajorityProtocol(cluster, range(5), "m0")
        proto.initialize(rand_blocks(seed=11))
        cluster.fail_many([3, 4])
        new = rand_block(12)
        assert proto.write_block(0, new).success
        r = proto.read_block(0)
        assert r.success and np.array_equal(r.value, new)

    def test_majority_loss_blocks_all(self):
        cluster = Cluster(5)
        proto = MajorityProtocol(cluster, range(5), "m0")
        proto.initialize(rand_blocks(seed=13))
        cluster.fail_many([0, 1, 2])
        assert not proto.write_block(0, rand_block(14)).success
        assert not proto.read_block(0).success

    def test_stale_minority_never_wins(self):
        cluster = Cluster(5)
        proto = MajorityProtocol(cluster, range(5), "m0")
        proto.initialize(rand_blocks(seed=15))
        cluster.fail_many([3, 4])  # miss the update
        new = rand_block(16)
        assert proto.write_block(0, new).success
        cluster.recover_all()
        r = proto.read_block(0)
        assert r.version == 1
        assert np.array_equal(r.value, new)


def make_erc():
    cluster = Cluster(9)
    code = MDSCode(9, 6)
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
    proto = TrapErcProtocol(cluster, code, quorum)
    rng = np.random.default_rng(20)
    data = rng.integers(0, 256, size=(6, L), dtype=np.int64).astype(np.uint8)
    proto.initialize(data)
    return cluster, proto, data


class TestRepairService:
    def test_parity_staleness_detection(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        assert svc.is_parity_stale(6) is False
        cluster.fail(6)
        assert proto.write_block(0, rand_block(21)).success
        cluster.recover(6)
        assert svc.is_parity_stale(6) is True

    def test_repair_parity_node(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.fail(6)
        new = rand_block(22)
        assert proto.write_block(0, new).success
        cluster.recover(6)
        assert svc.repair_parity_node(6)
        assert svc.is_parity_stale(6) is False
        vv = cluster.node(6).parity_versions(proto.parity_key())
        assert vv.tolist() == [1, 0, 0, 0, 0, 0]

    def test_repaired_parity_accepts_deltas_again(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.fail(6)
        assert proto.write_block(0, rand_block(23)).success
        cluster.recover(6)
        # Stale: a further write to block 0 is rejected by node 6...
        assert proto.write_block(0, rand_block(24)).success
        assert cluster.node(6).stats.stale_rejections >= 1
        svc.repair_parity_node(6)
        before = cluster.node(6).stats.stale_rejections
        assert proto.write_block(0, rand_block(25)).success
        assert cluster.node(6).stats.stale_rejections == before

    def test_repair_wiped_data_node(self):
        cluster, proto, data = make_erc()
        svc = RepairService(proto)
        new = rand_block(26)
        assert proto.write_block(2, new).success
        cluster.fail(2)
        cluster.recover(2, wipe=True)
        assert cluster.node(2).data_version(proto.data_key(2)) == -1
        assert svc.repair_data_node(2)
        payload, v = cluster.node(2).read_data(proto.data_key(2))
        assert v == 1 and np.array_equal(payload, new)

    def test_sync_all_full_recovery(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.fail(6)
        cluster.fail(1)
        new = rand_block(27)
        assert proto.write_block(0, new).success
        cluster.recover(6)
        cluster.recover(1, wipe=True)
        repaired = svc.sync_all()
        assert repaired >= 2  # data node 1 and parity 6
        assert svc.is_parity_stale(6) is False
        payload, v = cluster.node(1).read_data(proto.data_key(1))
        assert v == 0

    def test_repair_fails_without_quorum(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.fail_many([0, 6, 7, 8])
        assert not svc.repair_data_node(0)

    def test_repair_parity_rejects_data_node(self):
        _, proto, _ = make_erc()
        svc = RepairService(proto)
        with pytest.raises(ValueError):
            svc.repair_parity_node(0)


def count_reads(proto) -> list[int]:
    """Record the block index of every protocol read from now on."""
    reads: list[int] = []
    read_block = proto.read_block

    def counted(i, *args, **kwargs):
        reads.append(i)
        return read_block(i, *args, **kwargs)

    proto.read_block = counted
    return reads


class TestRepairReads:
    """What a repair reads: one block for a data node, all k for a parity."""

    def test_parity_repair_reads_each_data_block_once(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.recover(7, wipe=True)
        reads = count_reads(proto)
        assert svc.repair_parity_node(7)
        assert sorted(reads) == list(range(proto.code.k))

    def test_data_repair_reads_only_its_block(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)
        cluster.fail(3)
        cluster.recover(3, wipe=True)
        reads = count_reads(proto)
        assert svc.repair_data_node(3)
        assert reads == [3]

    def test_healthy_stripe_needs_no_repair(self):
        cluster, proto, _ = make_erc()
        svc = RepairService(proto)

        def parity_versions():
            key = proto.parity_key()
            return [cluster.node(j).parity_versions(key).tolist() for j in (6, 7, 8)]

        before = parity_versions()
        assert svc.sync_all() == 0
        assert svc.counters() == {
            "repairs_performed": 0,
            "repairs_blocked": 0,
            "records_rejected": 0,
        }
        assert parity_versions() == before
