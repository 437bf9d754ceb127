"""A decode read leaves a stale N_i alone: reads never write."""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster
from repro.core import ReadCase, TrapErcProtocol
from repro.erasure import MDSCode
from repro.quorum import TrapezoidQuorum, TrapezoidShape

L = 16


def make():
    cluster = Cluster(9)
    code = MDSCode(9, 6)
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 1)  # w=(1,1)
    proto = TrapErcProtocol(cluster, code, quorum)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(6, L), dtype=np.int64).astype(np.uint8)
    proto.initialize(data)
    return cluster, proto, rng


def make_stale_ni(cluster, proto, rng):
    """Write block 2, then wipe N_2: its record is gone, the parities
    still hold the write."""
    new = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
    assert proto.write_block(2, new).success
    cluster.fail(2)
    cluster.recover(2, wipe=True)
    return new


class TestReadRepair:
    def test_without_read_repair_stays_decode(self):
        cluster, proto, rng = make()
        new = make_stale_ni(cluster, proto, rng)
        r1 = proto.read_block(2)
        r2 = proto.read_block(2)
        assert r1.case == r2.case == ReadCase.DECODE
        assert np.array_equal(r1.value, new) and np.array_equal(r2.value, new)
        # the wiped N_2 is still wiped: only anti-entropy rewrites it
        assert cluster.node(2).data_version(proto.data_key(2)) < 0
