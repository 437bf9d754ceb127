"""Tests for MDSCode encode/decode/repair and delta updates."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodeError
from repro.gf import GF2m
from repro.erasure import MDSCode


def make_data(k: int, length: int = 32, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, length), dtype=np.int64).astype(np.uint8)


@pytest.fixture
def code() -> MDSCode:
    return MDSCode(9, 6)


class TestConstruction:
    def test_defaults(self):
        code = MDSCode(6, 4)
        assert code.field.width == 8
        assert code.m == 2

    def test_invalid_nk(self):
        with pytest.raises(ConfigurationError):
            MDSCode(3, 4)
        with pytest.raises(ConfigurationError):
            MDSCode(3, 0)

    def test_generator_read_only(self, code):
        with pytest.raises(ValueError):
            code.generator[0, 0] = 1

    def test_coefficient_accessor(self, code):
        for j in range(code.k, code.n):
            for i in range(code.k):
                assert code.coefficient(j, i) == int(code.generator[j, i])

    def test_coefficient_bounds(self, code):
        with pytest.raises(ConfigurationError):
            code.coefficient(0, 0)  # j must be a parity index
        with pytest.raises(ConfigurationError):
            code.coefficient(code.k, code.k)

    def test_is_data(self, code):
        assert code.is_data(0) and code.is_data(code.k - 1)
        assert not code.is_data(code.k)
        with pytest.raises(ConfigurationError):
            code.is_data(code.n)

    def test_storage_overhead(self):
        assert MDSCode(15, 8).storage_overhead() == pytest.approx(15 / 8)


class TestEncode:
    def test_systematic_rows(self, code):
        data = make_data(code.k)
        stripe = code.encode(data)
        assert stripe.shape == (code.n, data.shape[1])
        assert np.array_equal(stripe[: code.k], data)

    def test_parity_matches_eq1(self, code):
        data = make_data(code.k, seed=1)
        stripe = code.encode(data)
        for j in range(code.k, code.n):
            expect = np.zeros(data.shape[1], dtype=np.uint8)
            for i in range(code.k):
                expect ^= code.field.scalar_mul(code.coefficient(j, i), data[i])
            assert np.array_equal(stripe[j], expect)

    def test_encode_parity_only(self, code):
        data = make_data(code.k, seed=2)
        assert np.array_equal(code.encode_parity(data), code.encode(data)[code.k :])

    def test_encode_block(self, code):
        data = make_data(code.k, seed=3)
        stripe = code.encode(data)
        for idx in range(code.n):
            assert np.array_equal(code.encode_block(idx, data), stripe[idx])

    def test_encode_block_bounds(self, code):
        with pytest.raises(ConfigurationError):
            code.encode_block(code.n, make_data(code.k))

    def test_bad_data_shape(self, code):
        with pytest.raises(ConfigurationError):
            code.encode(np.zeros((code.k + 1, 8), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            code.encode(np.zeros(8, dtype=np.uint8))

    def test_zero_data_gives_zero_parity(self, code):
        stripe = code.encode(np.zeros((code.k, 16), dtype=np.uint8))
        assert not stripe.any()

    def test_k_equals_n_no_parity(self):
        code = MDSCode(4, 4)
        data = make_data(4)
        assert np.array_equal(code.encode(data), data)
        assert code.encode_parity(data).shape == (0, data.shape[1])


class TestDecode:
    def test_all_data_fast_path(self, code):
        data = make_data(code.k, seed=4)
        stripe = code.encode(data)
        idx = list(range(code.k))
        assert np.array_equal(code.decode(idx, stripe[idx]), data)

    def test_all_data_fast_path_shuffled(self, code):
        data = make_data(code.k, seed=5)
        stripe = code.encode(data)
        idx = list(range(code.k))[::-1]
        assert np.array_equal(code.decode(idx, stripe[idx]), data)

    def test_every_k_subset_decodes(self):
        code = MDSCode(8, 4)
        data = make_data(4, seed=6)
        stripe = code.encode(data)
        for subset in combinations(range(8), 4):
            idx = list(subset)
            assert np.array_equal(code.decode(idx, stripe[idx]), data), subset

    def test_extra_fragments_ignored(self, code):
        data = make_data(code.k, seed=7)
        stripe = code.encode(data)
        idx = list(range(code.n))
        assert np.array_equal(code.decode(idx, stripe[idx]), data)

    def test_too_few_fragments(self, code):
        data = make_data(code.k, seed=8)
        stripe = code.encode(data)
        idx = list(range(code.k - 1))
        with pytest.raises(DecodeError):
            code.decode(idx, stripe[idx])

    def test_duplicate_indices_rejected(self, code):
        data = make_data(code.k, seed=9)
        stripe = code.encode(data)
        idx = [0] * code.k
        with pytest.raises(DecodeError):
            code.decode(idx, stripe[idx])

    def test_out_of_range_index(self, code):
        frag = np.zeros((code.k, 8), dtype=np.uint8)
        with pytest.raises(DecodeError):
            code.decode([code.n] + list(range(code.k - 1)), frag)

    def test_fragment_shape_mismatch(self, code):
        with pytest.raises(DecodeError):
            code.decode(list(range(code.k)), np.zeros((code.k - 1, 8), dtype=np.uint8))

    def test_corrupted_fragment_changes_output(self, code):
        # Erasure codes do not detect corruption: flipping a byte in a used
        # fragment must change the decode result (documenting semantics).
        data = make_data(code.k, seed=10)
        stripe = code.encode(data)
        idx = list(range(1, code.k + 1))  # includes one parity row
        frags = stripe[idx].copy()
        frags[-1, 0] ^= 0xFF
        out = code.decode(idx, frags)
        assert not np.array_equal(out, data)


class TestReconstructRepair:
    def test_reconstruct_present_block(self, code):
        data = make_data(code.k, seed=11)
        stripe = code.encode(data)
        idx = list(range(code.k, code.n)) + [2]
        out = code.reconstruct_block(2, idx, stripe[idx])
        assert np.array_equal(out, data[2])

    def test_reconstruct_missing_data_block(self, code):
        data = make_data(code.k, seed=12)
        stripe = code.encode(data)
        idx = [i for i in range(code.n) if i != 0][: code.k]
        out = code.reconstruct_block(0, idx, stripe[idx])
        assert np.array_equal(out, data[0])

    def test_reconstruct_missing_parity_block(self, code):
        data = make_data(code.k, seed=13)
        stripe = code.encode(data)
        target = code.n - 1
        idx = list(range(code.k))
        out = code.reconstruct_block(target, idx, stripe[idx])
        assert np.array_equal(out, stripe[target])

    @settings(max_examples=40, deadline=None)
    @given(
        nk=st.sampled_from([(6, 4), (9, 6), (12, 8)]),
        length=st.sampled_from([1, 16, 255, 256, 4096]),
        width=st.sampled_from([4, 8, 12]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_reconstruct_from_unsorted_row_list_equals_stacked(
        self, nk, length, width, seed
    ):
        n, k = nk
        field = GF2m(width)
        code = MDSCode(n, k, field=field)
        rng = np.random.default_rng(seed)
        stripe = code.encode(field.random_elements(rng, (k, length)))
        target = int(rng.integers(0, n))
        survivors = [int(i) for i in rng.permutation(n) if i != target][: k + 1]
        stacked = code.reconstruct_block(target, sorted(survivors), stripe[sorted(survivors)])
        assert np.array_equal(stacked, stripe[target])
        # The same fragments as a node-by-node list: arrival order, each row
        # an array of its own (read-only here), never stacked by the caller.
        rows = [stripe[i].copy() for i in survivors]
        for row in rows:
            row.setflags(write=False)
        out = code.reconstruct_block(target, survivors, rows)
        assert np.array_equal(out, stacked)
        assert out.shape == (length,) and out.dtype == field.dtype
        assert out.flags.c_contiguous and out.flags.writeable
        assert not any(np.shares_memory(out, row) for row in rows)
        # Unsorted 2-D input takes the same no-sort path.
        assert np.array_equal(
            code.reconstruct_block(target, survivors, stripe[survivors]), stacked
        )

    def test_reconstruct_present_block_from_row_list_is_a_copy(self, code):
        stripe = code.encode(make_data(code.k, seed=21))
        idx = [8, 2, 7, 0, 1, 3]
        rows = [stripe[i] for i in idx]
        out = code.reconstruct_block(2, idx, rows)
        assert np.array_equal(out, stripe[2]) and not np.shares_memory(out, stripe)

    def test_reconstruct_rejects_malformed_fragments(self, code):
        stripe = code.encode(make_data(code.k, seed=22))
        idx = [8, 7, 6, 1, 2, 3]
        rows = [stripe[i] for i in idx]
        with pytest.raises(DecodeError):
            code.reconstruct_block(0, idx, rows[:-1])  # one row short
        with pytest.raises(DecodeError):
            code.reconstruct_block(0, idx, rows[:-1] + [rows[-1][:5]])  # ragged
        with pytest.raises(DecodeError):
            code.reconstruct_block(0, idx, stripe[idx][:, :, None])  # 3-D
        with pytest.raises(DecodeError):
            code.reconstruct_block(0, idx[:-1], rows[:-1])  # fewer than k
        with pytest.raises(DecodeError):
            code.reconstruct_block(0, idx[:-1] + [idx[0]], rows)  # duplicate

    def test_repair_multiple_losses(self, code):
        data = make_data(code.k, seed=14)
        stripe = code.encode(data)
        lost = [0, code.k]  # one data + one parity
        survivors = [i for i in range(code.n) if i not in lost]
        repaired = code.repair(lost, survivors, stripe[survivors])
        assert np.array_equal(repaired[0], stripe[0])
        assert np.array_equal(repaired[1], stripe[code.k])

    def test_repair_up_to_nk_losses(self):
        code = MDSCode(9, 6)
        data = make_data(6, seed=15)
        stripe = code.encode(data)
        lost = [1, 4, 7]  # n - k = 3 losses
        survivors = [i for i in range(9) if i not in lost]
        repaired = code.repair(lost, survivors, stripe[survivors])
        for pos, b in enumerate(lost):
            assert np.array_equal(repaired[pos], stripe[b])


class TestDeltaUpdates:
    def test_delta_is_xor(self, code):
        old = make_data(1, seed=16)[0]
        new = make_data(1, seed=17)[0]
        assert np.array_equal(code.delta(old, new), old ^ new)

    def test_delta_shape_mismatch(self, code):
        with pytest.raises(ConfigurationError):
            code.delta(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    def test_incremental_update_equals_reencode(self, code):
        data = make_data(code.k, seed=18)
        stripe = code.encode(data)
        new_block = make_data(1, seed=19)[0]
        i = 3
        delta = code.delta(data[i], new_block)
        for j in range(code.k, code.n):
            code.apply_parity_delta(stripe[j], j, i, delta)
        stripe[i] = new_block
        data2 = data.copy()
        data2[i] = new_block
        assert np.array_equal(stripe, code.encode(data2))

    def test_sequential_updates_commute_with_reencode(self, code):
        # Several updates to different blocks, applied as deltas, must land
        # on the same stripe as a re-encode (Galois-field commutativity the
        # paper invokes for "in-place updates").
        data = make_data(code.k, seed=20)
        stripe = code.encode(data)
        current = data.copy()
        rng = np.random.default_rng(21)
        for step in range(8):
            i = int(rng.integers(0, code.k))
            new_block = rng.integers(0, 256, size=data.shape[1], dtype=np.int64).astype(np.uint8)
            delta = code.delta(current[i], new_block)
            for j in range(code.k, code.n):
                code.apply_parity_delta(stripe[j], j, i, delta)
            stripe[i] = new_block
            current[i] = new_block
        assert np.array_equal(stripe, code.encode(current))

    def test_parity_delta_value(self, code):
        delta = make_data(1, seed=22)[0]
        j = code.k
        out = code.parity_delta(j, 0, delta)
        assert np.array_equal(out, code.field.scalar_mul(code.coefficient(j, 0), delta))

    def test_noop_update(self, code):
        block = make_data(1, seed=23)[0]
        delta = code.delta(block, block)
        assert not delta.any()
        parity = make_data(1, seed=24)[0].copy()
        before = parity.copy()
        code.apply_parity_delta(parity, code.k, 0, delta)
        assert np.array_equal(parity, before)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        nk=st.tuples(st.integers(2, 10), st.integers(1, 10)).filter(lambda t: t[0] >= t[1]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_k_subset_roundtrip(self, nk, seed):
        n, k = nk
        code = MDSCode(n, k)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 16), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        idx = rng.choice(n, size=k, replace=False).tolist()
        assert np.array_equal(code.decode(idx, stripe[idx]), data)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), width=st.sampled_from([4, 8, 16]))
    def test_update_equivalence_across_fields(self, seed, width):
        gf = GF2m(width)
        code = MDSCode(7, 4, field=gf)
        rng = np.random.default_rng(seed)
        data = gf.random_elements(rng, (4, 8))
        stripe = code.encode(data)
        i = int(rng.integers(0, 4))
        new_block = gf.random_elements(rng, 8)
        delta = code.delta(data[i], new_block)
        for j in range(4, 7):
            code.apply_parity_delta(stripe[j], j, i, delta)
        stripe[i] = new_block
        data[i] = new_block
        assert np.array_equal(stripe, code.encode(data))
