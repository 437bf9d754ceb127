"""Tests for the fail-stop versioned storage node."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import StorageNode
from repro.errors import ConfigurationError, NodeUnavailableError, StaleNodeError


@pytest.fixture
def node() -> StorageNode:
    return StorageNode(3)


def payload(seed: int = 0, length: int = 16) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, length, dtype=np.int64).astype(np.uint8)


class TestDataRecords:
    def test_put_and_read(self, node):
        buf = payload(1)
        node.put_data("k", buf, 0)
        got, version = node.read_data("k")
        assert np.array_equal(got, buf)
        assert version == 0

    def test_read_returns_read_only_payload(self, node):
        # No copy on the read path: the reply is the stored buffer, sealed.
        buf = payload(2)
        node.put_data("k", buf, 0)
        got, _ = node.read_data("k")
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] ^= 0xFF
        again, _ = node.read_data("k")
        assert again is got and np.array_equal(again, buf)

    def test_reply_keeps_its_bytes_across_later_writes(self, node):
        node.put_data("k", payload(2), 0)
        first, v0 = node.read_data("k")
        node.write_data("k", payload(40), 1)
        second, v1 = node.read_data("k")
        node.put_data("k", payload(41), 5)
        third, v2 = node.read_data("k")
        assert (v0, v1, v2) == (0, 1, 5)
        assert np.array_equal(first, payload(2))
        assert np.array_equal(second, payload(40))
        assert np.array_equal(third, payload(41))

    def test_put_copies_input(self, node):
        buf = payload(3)
        node.put_data("k", buf, 0)
        buf[0] ^= 0xFF
        got, _ = node.read_data("k")
        assert got[0] == payload(3)[0]

    def test_write_monotonic_guard(self, node):
        node.put_data("k", payload(4), 5)
        with pytest.raises(StaleNodeError):
            node.write_data("k", payload(5), 5)
        with pytest.raises(StaleNodeError):
            node.write_data("k", payload(5), 4)
        node.write_data("k", payload(5), 6)
        assert node.data_version("k") == 6

    def test_write_fresh_key(self, node):
        node.write_data("new", payload(6), 0)
        assert node.data_version("new") == 0

    def test_version_of_missing_key_is_minus_one(self, node):
        assert node.data_version("nope") == -1

    def test_read_missing_key_raises(self, node):
        with pytest.raises(KeyError):
            node.read_data("nope")

    def test_stats_counting(self, node):
        node.put_data("k", payload(7), 0)
        node.read_data("k")
        node.data_version("k")
        assert node.stats.writes == 1
        assert node.stats.reads == 1
        assert node.stats.version_queries == 1


class TestParityRecords:
    def test_put_and_read(self, node):
        buf = payload(8)
        vv = np.zeros(4, dtype=np.int64)
        node.put_parity("p", buf, vv)
        got, versions = node.read_parity("p")
        assert np.array_equal(got, buf)
        assert np.array_equal(versions, vv)

    def test_apply_delta_updates_payload_and_version(self, node):
        buf = payload(9)
        node.put_parity("p", buf, np.zeros(4, dtype=np.int64))
        delta = payload(10)
        node.apply_delta("p", 2, delta, expected_version=0, new_version=1)
        got, versions = node.read_parity("p")
        assert np.array_equal(got, buf ^ delta)
        assert versions.tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("length", [5, 16, 4096])
    def test_apply_delta_folds_any_delta_layout(self, node, length):
        # No astype copy for a matching uint8 delta; strided, read-only or
        # wider-dtype deltas still land byte for byte and are not mutated.
        buf = payload(30, length=length)
        node.put_parity("p", buf, np.zeros(4, dtype=np.int64))
        strided = np.zeros(2 * length, dtype=np.uint8)
        strided[::2] = payload(31, length=length)
        deltas = [
            payload(32, length=length),
            strided[::2],
            payload(33, length=length).astype(np.int64),
        ]
        expect = buf.copy()
        for version, delta in enumerate(deltas):
            delta.setflags(write=False)
            before = delta.copy()
            node.apply_delta("p", 1, delta, expected_version=version, new_version=version + 1)
            expect ^= delta.astype(np.uint8)
            assert np.array_equal(delta, before)
        got, versions = node.read_parity("p")
        assert np.array_equal(got, expect) and got.dtype == np.uint8
        assert versions.tolist() == [0, 3, 0, 0]
        assert node.stats.deltas == 3

    def test_read_returns_read_only_payload(self, node):
        node.put_parity("p", payload(8), np.zeros(4, dtype=np.int64))
        got, _ = node.read_parity("p")
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] ^= 0xFF

    def test_reply_keeps_its_bytes_across_later_deltas(self, node):
        # apply_delta installs b ^ delta as a new buffer: a reply handed
        # out earlier (possibly still in flight) is a snapshot for free.
        buf, delta = payload(8), payload(10)
        node.put_parity("p", buf, np.zeros(4, dtype=np.int64))
        before, vv_before = node.read_parity("p")
        node.apply_delta("p", 2, delta, expected_version=0, new_version=1)
        after, vv_after = node.read_parity("p")
        node.put_parity("p", payload(42), np.full(4, 7, dtype=np.int64))
        assert np.array_equal(before, buf) and vv_before.tolist() == [0, 0, 0, 0]
        assert np.array_equal(after, buf ^ delta) and vv_after.tolist() == [0, 0, 1, 0]
        assert not after.flags.writeable
        latest, vv_latest = node.read_parity("p")
        assert np.array_equal(latest, payload(42)) and vv_latest.tolist() == [7] * 4

    def test_apply_delta_stale_guard(self, node):
        node.put_parity("p", payload(11), np.zeros(4, dtype=np.int64))
        with pytest.raises(StaleNodeError):
            node.apply_delta("p", 1, payload(12), expected_version=3, new_version=4)
        assert node.stats.stale_rejections == 1

    def test_apply_delta_missing_record(self, node):
        with pytest.raises(StaleNodeError):
            node.apply_delta("p", 0, payload(13), expected_version=0, new_version=1)

    def test_apply_delta_contribution_bounds(self, node):
        node.put_parity("p", payload(14), np.zeros(4, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            node.apply_delta("p", 4, payload(15), expected_version=0, new_version=1)

    def test_apply_delta_version_order(self, node):
        node.put_parity("p", payload(16), np.zeros(4, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            node.apply_delta("p", 0, payload(17), expected_version=1, new_version=1)

    def test_apply_delta_shape_guard(self, node):
        node.put_parity("p", payload(18), np.zeros(4, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            node.apply_delta("p", 0, payload(19, length=8), expected_version=0, new_version=1)

    def test_parity_versions_missing(self, node):
        assert node.parity_versions("nope") is None

    def test_versions_returned_as_copy(self, node):
        node.put_parity("p", payload(20), np.zeros(4, dtype=np.int64))
        vv = node.parity_versions("p")
        vv[0] = 99
        assert node.parity_versions("p")[0] == 0


class TestFailStop:
    def test_fail_blocks_all_rpcs(self, node):
        node.put_data("k", payload(21), 0)
        node.fail()
        for call in (
            lambda: node.read_data("k"),
            lambda: node.data_version("k"),
            lambda: node.write_data("k", payload(22), 1),
            lambda: node.put_data("k2", payload(22), 0),
            lambda: node.parity_versions("p"),
        ):
            with pytest.raises(NodeUnavailableError):
                call()
        assert node.stats.failed_rpcs == 5

    def test_recover_keeps_data(self, node):
        node.put_data("k", payload(23), 7)
        node.fail()
        node.recover()
        got, version = node.read_data("k")
        assert version == 7
        assert np.array_equal(got, payload(23))

    def test_recover_with_wipe(self, node):
        node.put_data("k", payload(24), 7)
        node.fail()
        node.recover(wipe=True)
        assert node.data_version("k") == -1
        assert node.keys() == set()

    def test_keys_inspection_works_when_down(self, node):
        node.put_data("k", payload(25), 0)
        node.fail()
        assert node.keys() == {"k"}
        assert node.has_key("k")
