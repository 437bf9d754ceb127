"""Tests for placement policies and the virtual disk over them."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core.placement import IdentityPlacement
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.storage import RotatingPlacement, VirtualDisk


def parity_load(policy, num_stripes: int) -> dict[int, int]:
    """Node id -> number of stripes whose parity it stores."""
    load = {node: 0 for node in range(policy.num_nodes)}
    for s in range(num_stripes):
        for node in policy.layout_for(s).parity_nodes:
            load[node] += 1
    return load


class TestIdentityPlacement:
    def test_same_layout_every_stripe(self):
        pol = IdentityPlacement(9, 6, 9)
        assert pol.layout_for(0).node_ids == pol.layout_for(5).node_ids

    def test_parity_concentrates(self):
        pol = IdentityPlacement(9, 6, 9)
        load = parity_load(pol, 12)
        assert load[6] == load[7] == load[8] == 12
        assert load[0] == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IdentityPlacement(9, 6, 8)  # cluster too small
        with pytest.raises(ConfigurationError):
            IdentityPlacement(5, 6, 9)
        with pytest.raises(ConfigurationError):
            IdentityPlacement(9, 6, 9).layout_for(-1)


class TestRotatingPlacement:
    def test_layouts_rotate(self):
        pol = RotatingPlacement(9, 6, 9)
        assert pol.layout_for(0).node_ids == tuple(range(9))
        assert pol.layout_for(1).node_ids == tuple((b + 1) % 9 for b in range(9))

    def test_no_collisions_with_spare_nodes(self):
        pol = RotatingPlacement(6, 4, 10)
        for s in range(20):
            layout = pol.layout_for(s)
            assert len(set(layout.node_ids)) == 6

    def test_parity_load_balances(self):
        pol = RotatingPlacement(9, 6, 9)
        load = parity_load(pol, 9)  # one full rotation
        assert all(v == 3 for v in load.values())  # 3 parity roles each

    def test_rotation_beats_identity_on_max_load(self):
        stripes = 18
        ident = parity_load(IdentityPlacement(9, 6, 9), stripes)
        rot = parity_load(RotatingPlacement(9, 6, 9), stripes)
        assert max(rot.values()) < max(ident.values())

    def test_spare_nodes_share_blocks_evenly(self):
        pol = RotatingPlacement(6, 4, 12)
        held = [
            sum(node in pol.layout_for(s).node_ids for s in range(24))
            for node in range(12)
        ]
        assert max(held) - min(held) <= 2
        assert sum(held) == 24 * 6


class TestVirtualDiskWithPlacement:
    def test_rotating_disk_roundtrip(self):
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(
            cluster, 18, 32, 9, 6, quorum, placement=RotatingPlacement(9, 6, 9)
        )
        disk.format()
        for block in (0, 7, 17):
            assert disk.write(block, bytes([block]) * 16)
        for block in (0, 7, 17):
            assert disk.read(block)[:16] == bytes([block]) * 16

    def test_stripes_use_rotated_layouts(self):
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(
            cluster, 18, 32, 9, 6, quorum, placement=RotatingPlacement(9, 6, 9)
        )
        assert disk.stripes[0].layout.node_ids != disk.stripes[1].layout.node_ids

    def test_degraded_reads_still_work_with_rotation(self):
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(
            cluster, 12, 32, 9, 6, quorum, placement=RotatingPlacement(9, 6, 9)
        )
        disk.format()
        assert disk.write(0, b"payload")
        data_node = disk.stripes[0].layout.node_of_block(0)
        cluster.fail(data_node)
        assert disk.read(0)[:7] == b"payload"

    def test_placement_for_another_code_is_refused(self):
        with pytest.raises(ConfigurationError):
            VirtualDisk(Cluster(12), 12, 32, 9, 6, placement=RotatingPlacement(12, 8, 12))
