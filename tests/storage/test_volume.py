"""Tests for the virtual-disk middleware."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.storage import VirtualDisk


def make_disk(num_blocks: int = 12, block_size: int = 32):
    cluster = Cluster(9)
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
    disk = VirtualDisk(cluster, num_blocks, block_size, 9, 6, quorum)
    disk.format()
    return cluster, disk


class TestFormatAndGeometry:
    def test_stripes_cover_capacity(self):
        _, disk = make_disk(num_blocks=13)
        assert disk.num_stripes == 3  # ceil(13 / 6)
        assert disk.capacity_bytes() == 13 * 32

    def test_default_quorum_shape(self):
        cluster = Cluster(9)
        disk = VirtualDisk(cluster, 6, 16, 9, 6)
        assert disk.quorum.shape.total_nodes == 4

    def test_unformatted_access_rejected(self):
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(cluster, 6, 16, 9, 6, quorum)
        with pytest.raises(ConfigurationError):
            disk.read(0)
        with pytest.raises(ConfigurationError):
            disk.write(0, b"x")

    def test_validation(self):
        cluster = Cluster(9)
        with pytest.raises(ConfigurationError):
            VirtualDisk(cluster, 0, 16, 9, 6)
        with pytest.raises(ConfigurationError):
            VirtualDisk(cluster, 4, 0, 9, 6)

    def test_fresh_disk_reads_zeros(self):
        _, disk = make_disk()
        assert disk.read(0) == bytes(32)
        assert disk.read(11) == bytes(32)


class TestReadWrite:
    def test_roundtrip(self):
        _, disk = make_disk()
        assert disk.write(3, b"hello")
        data = disk.read(3)
        assert data[:5] == b"hello"
        assert data[5:] == bytes(27)  # zero padding

    def test_blocks_are_independent(self):
        _, disk = make_disk()
        disk.write(0, b"a" * 32)
        disk.write(6, b"b" * 32)  # different stripe
        disk.write(1, b"c" * 32)  # same stripe as 0
        assert disk.read(0) == b"a" * 32
        assert disk.read(6) == b"b" * 32
        assert disk.read(1) == b"c" * 32

    def test_oversized_payload_rejected(self):
        _, disk = make_disk()
        with pytest.raises(ConfigurationError):
            disk.write(0, b"x" * 33)

    def test_block_bounds(self):
        _, disk = make_disk()
        with pytest.raises(ConfigurationError):
            disk.read(12)
        with pytest.raises(ConfigurationError):
            disk.write(-1, b"")

    def test_span_roundtrip(self):
        _, disk = make_disk()
        payload = bytes(range(96))  # 3 blocks
        assert disk.write_span(4, payload)
        assert disk.read_span(4, 3) == payload

    def test_overwrites_bump_versions(self):
        _, disk = make_disk()
        for round_no in range(3):
            assert disk.write(2, bytes([round_no]) * 32)
        assert disk.read(2) == bytes([2]) * 32


class TestFailures:
    def test_reads_survive_data_node_loss(self):
        cluster, disk = make_disk()
        disk.write(0, b"payload!" * 4)
        cluster.fail(0)  # node holding logical block 0's data
        assert disk.read(0) == b"payload!" * 4  # decode path

    def test_read_returns_none_without_quorum(self):
        cluster, disk = make_disk()
        cluster.fail_many([0, 6, 7, 8])
        assert disk.read(0) is None

    def test_write_returns_false_without_quorum(self):
        cluster, disk = make_disk()
        cluster.fail_many([6, 7, 8])
        assert disk.write(0, b"data") is False
        # ... while a level-0 read of another block still succeeds
        assert disk.read(1) == bytes(32)

    def test_repair_all_recovers_stale_nodes(self):
        cluster, disk = make_disk()
        cluster.fail(6)
        assert disk.write(0, b"fresh data")
        cluster.recover(6)
        repaired = disk.repair_all()
        assert repaired >= 1
        vv = cluster.node(6).parity_versions(disk.stripes[0].parity_key())
        assert vv[0] == 1

    def test_repair_all_restores_the_write_quorum(self):
        cluster, disk = make_disk()
        # Make parity 6 stale, then bring it back; a write quorum of
        # w=(1,2) still needs 2 fresh parities of {6,7,8}.
        cluster.fail(6)
        assert disk.write(0, b"v1")
        cluster.recover(6)
        # With node 7 down, parities {6 (stale), 8} cannot reach w_1 = 2
        # fresh acks: the write fails and is reported, until anti-entropy
        # brings node 6 up to date.
        cluster.fail(7)
        assert not disk.write(0, b"v2")
        assert disk.repair_all() >= 1
        assert disk.write(0, b"v2")
        assert disk.read(0)[:2] == b"v2"

    def test_storage_accounting(self):
        _, disk = make_disk(num_blocks=12)
        # 2 stripes x 9 blocks x 32 bytes physical; 12 x 32 logical.
        assert disk.raw_storage_bytes() == 2 * 9 * 32
        assert disk.storage_efficiency() == pytest.approx(12 * 32 / (2 * 9 * 32))
