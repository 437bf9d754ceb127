"""Tests for stripe layout helpers and update planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gf import GF2m
from repro.erasure import (
    MDSCode,
    StripeLayout,
    join_payload,
    plan_update,
    split_payload,
    update_io_cost,
)


class TestSplitJoin:
    def test_roundtrip_exact_multiple(self):
        payload = bytes(range(24))
        blocks, length = split_payload(payload, 4)
        assert blocks.shape == (4, 6)
        assert join_payload(blocks, length) == payload

    def test_roundtrip_with_padding(self):
        payload = b"hello, trapezoid world"
        blocks, length = split_payload(payload, 5)
        assert length == len(payload)
        assert join_payload(blocks, length) == payload

    def test_empty_payload(self):
        blocks, length = split_payload(b"", 3)
        assert blocks.shape == (3, 1)
        assert length == 0
        assert join_payload(blocks, length) == b""

    def test_single_byte(self):
        blocks, length = split_payload(b"x", 4)
        assert blocks.shape == (4, 1)
        assert join_payload(blocks, length) == b"x"

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            split_payload(b"abc", 0)

    def test_join_validation(self):
        with pytest.raises(ConfigurationError):
            join_payload(np.zeros(4, dtype=np.uint8), 2)
        with pytest.raises(ConfigurationError):
            join_payload(np.zeros((2, 2), dtype=np.uint8), 5)

    @settings(max_examples=50)
    @given(st.binary(max_size=300), st.integers(1, 12))
    def test_roundtrip_property(self, payload, k):
        blocks, length = split_payload(payload, k)
        assert blocks.shape[0] == k
        assert join_payload(blocks, length) == payload


class TestStripeLayout:
    def test_default_node_ids(self):
        layout = StripeLayout(6, 4)
        assert layout.node_ids == (0, 1, 2, 3, 4, 5)

    def test_custom_node_ids(self):
        layout = StripeLayout(4, 2, node_ids=(10, 11, 12, 13))
        assert layout.node_of_block(0) == 10
        assert layout.block_of_node(12) == 2

    def test_data_and_parity_nodes(self):
        layout = StripeLayout(6, 4)
        assert layout.data_nodes == (0, 1, 2, 3)
        assert layout.parity_nodes == (4, 5)

    def test_consistency_group_matches_paper(self):
        # Block i's group is {N_i} u {parity nodes}: size n - k + 1 (eq. 5).
        layout = StripeLayout(9, 6)
        for i in range(6):
            group = layout.consistency_group(i)
            assert group[0] == i
            assert group[1:] == (6, 7, 8)
            assert len(group) == layout.group_size == 4

    def test_consistency_group_bounds(self):
        layout = StripeLayout(6, 4)
        with pytest.raises(ConfigurationError):
            layout.consistency_group(4)  # parity index is not a data block

    def test_block_of_unknown_node(self):
        layout = StripeLayout(4, 2)
        with pytest.raises(ConfigurationError):
            layout.block_of_node(99)

    def test_node_of_block_bounds(self):
        layout = StripeLayout(4, 2)
        with pytest.raises(ConfigurationError):
            layout.node_of_block(4)

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            StripeLayout(3, 2, node_ids=(1, 1, 2))

    def test_wrong_count_rejected(self):
        with pytest.raises(ConfigurationError):
            StripeLayout(3, 2, node_ids=(1, 2))

    def test_invalid_nk(self):
        with pytest.raises(ConfigurationError):
            StripeLayout(2, 3)


class TestUpdatePlan:
    def test_plan_matches_reencode(self):
        code = MDSCode(9, 6)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(6, 16), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        new_block = rng.integers(0, 256, size=16, dtype=np.int64).astype(np.uint8)
        plan = plan_update(code, 2, data[2], new_block)
        assert plan.touched_blocks() == 4  # target + 3 parities = n - k + 1
        stripe[2] = new_block
        for j, buf in plan.parity_deltas.items():
            stripe[j] ^= buf
        data[2] = new_block
        assert np.array_equal(stripe, code.encode(data))

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([4, 8, 12]),
        shape=st.sampled_from([(0,), (1,), (7,), (8,), (255,), (4096,), (4, 16)]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fan_out_equals_per_parity_delta(self, width, shape, seed):
        # plan_update scales one byte image of the delta by a generator
        # column; parity_delta is the one-coefficient path of Algorithm 1.
        field = GF2m(width)
        code = MDSCode(9, 6, field=field)
        rng = np.random.default_rng(seed)
        old = field.random_elements(rng, shape)
        new = field.random_elements(rng, shape)
        index = int(rng.integers(0, code.k))
        plan = plan_update(code, index, old, new)
        assert sorted(plan.parity_deltas) == [6, 7, 8]
        for j, buf in plan.parity_deltas.items():
            expect = field.mul(code.coefficient(j, index), old ^ new)
            assert np.array_equal(buf, expect)
            assert np.array_equal(buf, code.parity_delta(j, index, plan.delta))
            assert buf.shape == shape and buf.dtype == field.dtype
            assert buf.flags.c_contiguous
            assert not np.shares_memory(buf, old) and not np.shares_memory(buf, new)
            # A unit coefficient ships the delta itself, any other a fresh buffer.
            unit = code.coefficient(j, index) == 1
            assert np.shares_memory(buf, plan.delta) is (unit and buf.size > 0)

    def test_parity_delta_64k_block(self):
        code = MDSCode(12, 8)
        rng = np.random.default_rng(5)
        delta = rng.integers(0, 256, 65536, dtype=np.uint8)
        delta.setflags(write=False)
        out = code.parity_delta(9, 3, delta)
        assert np.array_equal(out, code.field.mul(code.coefficient(9, 3), delta))
        assert out.flags.writeable and not np.shares_memory(out, delta)

    def test_noop_plan(self):
        code = MDSCode(6, 4)
        block = np.arange(8, dtype=np.uint8)
        plan = plan_update(code, 0, block, block.copy())
        assert plan.is_noop
        assert all(not b.any() for b in plan.parity_deltas.values())

    def test_plan_index_bounds(self):
        code = MDSCode(6, 4)
        blk = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            plan_update(code, 4, blk, blk)  # parity index not writable


class TestUpdateIOCost:
    def test_paper_96_example(self):
        # "a (9,6)-MDS will require 8 read and write operations": 4 reads +
        # 4 writes in our accounting of (n - k + 1) blocks touched twice.
        cost = update_io_cost(9, 6)
        assert cost["reads"] == 4
        assert cost["writes"] == 4
        assert cost["total"] == 8

    def test_replication_cost(self):
        assert update_io_cost(5, 5)["total"] == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            update_io_cost(3, 4)
