"""Two coordinators over one stripe: racing writers never corrupt it, and
each sees the other's committed writes."""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster
from repro.core import TrapErcProtocol
from repro.erasure import MDSCode
from repro.quorum import TrapezoidQuorum, TrapezoidShape

L = 16


def make_shared_stripe():
    """Two coordinators over the same cluster and stripe."""
    cluster = Cluster(9)
    code = MDSCode(9, 6)
    quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
    c1 = TrapErcProtocol(cluster, code, quorum, stripe_id="shared")
    c2 = TrapErcProtocol(cluster, code, quorum, stripe_id="shared")
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(6, L), dtype=np.int64).astype(np.uint8)
    c1.initialize(data)
    return cluster, code, c1, c2, rng


class TestConcurrentCoordinators:
    def test_racing_writers_never_corrupt_parity(self):
        """Without concurrency control one racer loses, but the stripe stays
        a valid codeword: the version guards reject the second same-base
        delta."""
        cluster, code, c1, c2, rng = make_shared_stripe()
        for step in range(10):
            v1 = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
            v2 = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
            r1 = c1.write_block(0, v1)
            r2 = c2.write_block(0, v2)
            assert r1.success  # first racer wins its round
            # Second coordinator may fail (stale base) but must not corrupt.
            del r2
            # Invariant: stored stripe is exactly encode(stored data).
            blocks = []
            for i in range(6):
                payload, _ = cluster.node(i).read_data(c1.data_key(i))
                blocks.append(payload)
            expect = code.encode(np.stack(blocks))
            for j in range(6, 9):
                payload, _ = cluster.node(j).read_parity(c1.parity_key())
                assert np.array_equal(payload, expect[j]), f"step {step} node {j}"

    def test_racing_writers_serialize_versions(self):
        _, _, c1, c2, rng = make_shared_stripe()
        versions = []
        for _ in range(8):
            value = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
            writer = c1 if rng.random() < 0.5 else c2
            result = writer.write_block(2, value)
            if result.success:
                versions.append(result.version)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_alternating_writers_take_consecutive_versions(self):
        _, _, c1, c2, rng = make_shared_stripe()
        versions = []
        for _ in range(6):
            for writer in (c1, c2):
                value = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
                result = writer.write_block(0, value)
                assert result.success
                versions.append(result.version)
        assert versions == list(range(1, 13))

    def test_each_coordinator_reads_the_others_write(self):
        _, _, c1, c2, rng = make_shared_stripe()
        for writer, reader in ((c1, c2), (c2, c1), (c1, c2)):
            value = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
            written = writer.write_block(4, value)
            assert written.success
            seen = reader.read_block(4)
            assert seen.success and seen.version == written.version
            assert np.array_equal(seen.value, value)

    def test_writers_on_different_blocks_keep_both_updates(self):
        cluster, code, c1, c2, rng = make_shared_stripe()
        a = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
        b = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
        assert c1.write_block(1, a).success
        assert c2.write_block(5, b).success
        for reader in (c1, c2):
            assert np.array_equal(reader.read_block(1).value, a)
            assert np.array_equal(reader.read_block(5).value, b)
        blocks = np.stack(
            [cluster.node(i).read_data(c1.data_key(i))[0] for i in range(6)]
        )
        expect = code.encode(blocks)
        for j in range(6, 9):
            payload, _ = cluster.node(j).read_parity(c1.parity_key())
            assert np.array_equal(payload, expect[j])
