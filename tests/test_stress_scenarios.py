"""Stress scenarios: adversarial combinations of features under churn.

Each test composes several mechanisms (concurrent coordinators, repair
daemons, rotating placement, failure churn) and asserts the
system-level invariants: the stored stripe stays a valid codeword, acked
writes are never lost, and versions serialize.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import RepairService, TrapErcProtocol
from repro.erasure import MDSCode
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.storage import RotatingPlacement, VirtualDisk

L = 16


def stripe_is_codeword(cluster: Cluster, proto: TrapErcProtocol) -> bool:
    """Check the physically stored stripe is consistent with its version
    vectors: for every parity node, recomputing its payload from data
    blocks *at the versions its vector names* must match.

    Under failures some data nodes may be ahead of a parity's recorded
    contribution; we therefore verify per-parity consistency only when
    every named version matches the data node's stored version (i.e. the
    parity is fully synced), which repair passes should establish.
    """
    code = proto.code
    data = []
    versions = []
    for i in range(code.k):
        node = cluster.node(proto.layout.node_of_block(i))
        payload, version = node._data[proto.data_key(i)].payload, node._data[
            proto.data_key(i)
        ].version
        data.append(payload)
        versions.append(version)
    data = np.stack(data)
    ok = True
    for j in range(code.k, code.n):
        node = cluster.node(proto.layout.node_of_block(j))
        rec = node._parity[proto.parity_key()]
        if all(int(rec.versions[i]) == versions[i] for i in range(code.k)):
            expect = code.encode_block(j, data)
            ok &= bool(np.array_equal(rec.payload, expect))
    return ok


class TestDualCoordinatorChurn:
    def test_two_coordinators_with_repair_daemon(self):
        rng = np.random.default_rng(101)
        cluster = Cluster(9)
        code = MDSCode(9, 6)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        alice = TrapErcProtocol(cluster, code, quorum, stripe_id="shared")
        bob = TrapErcProtocol(cluster, code, quorum, stripe_id="shared")
        repair = RepairService(alice)
        data = rng.integers(0, 256, size=(6, L), dtype=np.int64).astype(np.uint8)
        alice.initialize(data)

        committed: dict[int, tuple[int, np.ndarray]] = {
            i: (0, data[i].copy()) for i in range(6)
        }
        versions_seen: dict[int, list[int]] = {i: [0] for i in range(6)}

        for step in range(150):
            cluster.recover_all()
            if step % 10 == 0:
                repair.sync_all()
            down = rng.choice(9, size=rng.integers(0, 3), replace=False)
            cluster.fail_many(down.tolist())
            writer = alice if rng.random() < 0.5 else bob
            i = int(rng.integers(0, 6))
            action = rng.random()
            if action < 0.6:
                value = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
                res = writer.write_block(i, value)
                if res.success:
                    committed[i] = (res.version, value.copy())
                    versions_seen[i].append(res.version)
            else:
                res = writer.read_block(i)
                if res.success:
                    version, value = committed[i]
                    assert res.version >= version, f"step {step}"
                    if res.version == version:
                        assert np.array_equal(res.value, value), f"step {step}"

        # acked versions strictly increase per block
        for i, vs in versions_seen.items():
            assert vs == sorted(vs)
            assert len(set(vs)) == len(vs)

        # after full recovery + repair, the stripe is a clean codeword
        cluster.recover_all()
        repair.sync_all()
        assert stripe_is_codeword(cluster, alice)


class TestRotatingDiskUnderChurn:
    def test_rotating_placement_with_repair_on_failure(self):
        rng = np.random.default_rng(303)
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(
            cluster, 18, 64, 9, 6, quorum, placement=RotatingPlacement(9, 6, 9)
        )
        disk.format()

        view: dict[int, bytes] = {}
        indeterminate: dict[int, set[bytes]] = {}
        ok_reads = 0
        for step in range(200):
            cluster.recover_all()
            down = rng.choice(9, size=rng.integers(0, 3), replace=False)
            cluster.fail_many(down.tolist())
            block = int(rng.integers(0, 18))
            if rng.random() < 0.5:
                payload = bytes(
                    rng.integers(0, 256, 64, dtype=np.int64).astype(np.uint8)
                )
                if disk.write(block, payload):
                    view[block] = payload
                    indeterminate[block] = set()
                else:
                    indeterminate.setdefault(block, set()).add(payload)
                    disk.repair_all()  # a failed op triggers anti-entropy
            else:
                got = disk.read(block)
                if got is None:
                    disk.repair_all()
                elif block in view:
                    assert got == view[block] or got in indeterminate.get(
                        block, set()
                    ), f"step {step}"
                    ok_reads += 1
        assert ok_reads > 20

    def test_all_stripes_remain_codewords_after_recovery(self):
        rng = np.random.default_rng(404)
        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(
            cluster, 12, 32, 9, 6, quorum, placement=RotatingPlacement(9, 6, 9)
        )
        disk.format()
        for step in range(60):
            cluster.recover_all()
            down = rng.choice(9, size=rng.integers(0, 3), replace=False)
            cluster.fail_many(down.tolist())
            disk.write(int(rng.integers(0, 12)), bytes([step % 256]) * 16)
        cluster.recover_all()
        disk.repair_all()
        for stripe in disk.stripes:
            assert stripe_is_codeword(cluster, stripe)
