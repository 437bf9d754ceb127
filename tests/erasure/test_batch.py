"""Tests for the stripe-batched APIs and the decode-plan cache."""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.erasure.code as code_mod
from repro.errors import ConfigurationError, DecodeError
from repro.gf import GF2m, inverse, matmul_reference
from repro.erasure import (
    MDSCode,
    join_payload_batch,
    split_payload_batch,
)


def make_batch(s: int, k: int, length: int = 16, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(s, k, length), dtype=np.int64).astype(np.uint8)


def seed_decode(code: MDSCode, indices, frag) -> np.ndarray:
    """The pre-kernel decode path: fresh Gauss-Jordan + reference matmul."""
    sub = code.generator[list(indices)]
    return matmul_reference(code.field, inverse(code.field, sub), frag)


class TestEncodeBatch:
    @pytest.mark.parametrize("s", [0, 1, 5])
    def test_matches_per_stripe_encode(self, s):
        code = MDSCode(9, 6)
        batch = make_batch(s, 6)
        out = code.encode_batch(batch)
        assert out.shape == (s, 9, 16)
        for i in range(s):
            assert np.array_equal(out[i], code.encode(batch[i]))

    def test_large_blocks_take_loop_path(self, monkeypatch):
        monkeypatch.setattr(code_mod, "FUSE_MAX_BLOCK", 8)
        code = MDSCode(6, 4)
        batch = make_batch(3, 4, length=32, seed=1)
        out = code.encode_batch(batch)
        for i in range(3):
            assert np.array_equal(out[i], code.encode(batch[i]))

    def test_no_parity_code(self):
        code = MDSCode(4, 4)
        batch = make_batch(2, 4, seed=2)
        assert np.array_equal(code.encode_batch(batch), batch)

    def test_bad_shape(self):
        code = MDSCode(6, 4)
        with pytest.raises(ConfigurationError):
            code.encode_batch(np.zeros((2, 5, 8), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            code.encode_batch(np.zeros((4, 8), dtype=np.uint8))


class TestDecodeBatch:
    def test_matches_per_stripe_decode(self):
        code = MDSCode(9, 6)
        batch = make_batch(4, 6, seed=3)
        stripes = code.encode_batch(batch)
        keep = [0, 2, 4, 6, 7, 8]
        out = code.decode_batch(keep, stripes[:, keep])
        assert np.array_equal(out, batch)
        for i in range(4):
            assert np.array_equal(out[i], code.decode(keep, stripes[i][keep]))

    def test_all_data_fast_path(self):
        code = MDSCode(9, 6)
        batch = make_batch(3, 6, seed=4)
        stripes = code.encode_batch(batch)
        idx = list(range(6))[::-1]
        out = code.decode_batch(idx, stripes[:, idx])
        assert np.array_equal(out, batch)

    def test_large_blocks_take_loop_path(self, monkeypatch):
        monkeypatch.setattr(code_mod, "FUSE_MAX_BLOCK", 8)
        code = MDSCode(6, 4)
        batch = make_batch(3, 4, length=32, seed=5)
        stripes = code.encode_batch(batch)
        keep = [1, 3, 4, 5]
        assert np.array_equal(code.decode_batch(keep, stripes[:, keep]), batch)

    def test_extra_fragments_ignored(self):
        code = MDSCode(8, 4)
        batch = make_batch(2, 4, seed=6)
        stripes = code.encode_batch(batch)
        idx = list(range(8))
        assert np.array_equal(code.decode_batch(idx, stripes), batch)

    def test_empty_batch(self):
        code = MDSCode(6, 4)
        out = code.decode_batch([1, 2, 4, 5], np.zeros((0, 4, 8), dtype=np.uint8))
        assert out.shape == (0, 4, 8)

    def test_errors(self):
        code = MDSCode(6, 4)
        frag = np.zeros((2, 3, 8), dtype=np.uint8)
        with pytest.raises(DecodeError):
            code.decode_batch([0, 1, 2], frag)  # too few
        with pytest.raises(DecodeError):
            code.decode_batch([0, 0, 1, 2], np.zeros((2, 4, 8), dtype=np.uint8))
        with pytest.raises(DecodeError):
            code.decode_batch([0, 1, 2, 9], np.zeros((2, 4, 8), dtype=np.uint8))

    @settings(max_examples=30, deadline=None)
    @given(
        nk=st.tuples(st.integers(2, 9), st.integers(1, 9)).filter(
            lambda t: t[0] >= t[1]
        ),
        s=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_roundtrip_matches_seed_path(self, nk, s, seed):
        n, k = nk
        code = MDSCode(n, k)
        rng = np.random.default_rng(seed)
        batch = rng.integers(0, 256, size=(s, k, 12), dtype=np.int64).astype(np.uint8)
        stripes = code.encode_batch(batch)
        idx = rng.choice(n, size=k, replace=False).tolist()
        out = code.decode_batch(idx, stripes[:, idx])
        assert np.array_equal(out, batch)
        for i in range(s):
            assert np.array_equal(
                out[i], seed_decode(code, idx, stripes[i][idx])
            )


class TestDecodePlanCache:
    def test_repeated_decodes_hit_cache(self):
        code = MDSCode(9, 6)
        batch = make_batch(1, 6, seed=7)
        stripe = code.encode(batch[0])
        keep = [1, 2, 4, 5, 7, 8]
        for _ in range(5):
            assert np.array_equal(code.decode(keep, stripe[keep]), batch[0])
        info = code.plan_cache_info()
        assert info["misses"] == 1 and info["hits"] == 4 and info["size"] == 1

    def test_survivor_order_shares_one_plan(self):
        code = MDSCode(9, 6)
        data = make_batch(1, 6, seed=8)[0]
        stripe = code.encode(data)
        keep = [1, 2, 4, 5, 7, 8]
        assert np.array_equal(code.decode(keep, stripe[keep]), data)
        shuffled = [8, 4, 1, 7, 2, 5]
        assert np.array_equal(code.decode(shuffled, stripe[shuffled]), data)
        info = code.plan_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_decode_and_decode_batch_share_one_plan(self):
        # One inversion serves the single-stripe and the batched path.
        code = MDSCode(12, 8)
        batch = make_batch(3, 8, seed=10)
        stripes = code.encode_batch(batch)
        keep = [1, 2, 4, 5, 7, 8, 10, 11]
        for _ in range(3):
            assert np.array_equal(code.decode(keep, stripes[0][keep]), batch[0])
        assert np.array_equal(code.decode_batch(keep, stripes[:, keep]), batch)
        info = code.plan_cache_info()
        assert info["misses"] == 1 and info["hits"] == 3 and info["size"] == 1

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(code_mod, "PLAN_CACHE_SIZE", 2)
        code = MDSCode(8, 4)
        data = make_batch(1, 4, seed=9)[0]
        stripe = code.encode(data)
        sets = [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]]
        for keep in sets:
            assert np.array_equal(code.decode(keep, stripe[keep]), data)
        info = code.plan_cache_info()
        assert info["size"] == 2 and info["misses"] == 3
        # The first survivor set was evicted: decoding it again re-inverts.
        assert np.array_equal(code.decode(sets[0], stripe[sets[0]]), data)
        assert code.plan_cache_misses == 4

    def test_cache_disabled(self, monkeypatch):
        monkeypatch.setattr(code_mod, "PLAN_CACHE_SIZE", 0)
        code = MDSCode(8, 4)
        data = make_batch(1, 4, seed=10)[0]
        stripe = code.encode(data)
        keep = [1, 3, 5, 7]
        for _ in range(3):
            assert np.array_equal(code.decode(keep, stripe[keep]), data)
        info = code.plan_cache_info()
        assert info["size"] == 0 and info["misses"] == 3 and info["hits"] == 0

    def test_clear_plan_cache(self):
        code = MDSCode(8, 4)
        data = make_batch(1, 4, seed=11)[0]
        stripe = code.encode(data)
        keep = [0, 2, 5, 6]
        code.decode(keep, stripe[keep])
        code.clear_plan_cache()
        assert code.plan_cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "maxsize": code_mod.PLAN_CACHE_SIZE,
        }

    def test_plan_requires_k_indices(self):
        code = MDSCode(6, 4)
        with pytest.raises(DecodeError):
            code.decode_plan([0, 1, 2])

    def test_plan_rejects_bad_indices(self):
        # Regression: negative/out-of-range/duplicate survivors must raise,
        # not silently cache a plan over the wrong generator rows.
        code = MDSCode(6, 4)
        with pytest.raises(DecodeError):
            code.decode_plan([-1, 0, 1, 2])
        with pytest.raises(DecodeError):
            code.decode_plan([0, 1, 2, 6])
        with pytest.raises(DecodeError):
            code.decode_plan([0, 0, 1, 2])
        assert code.plan_cache_info()["size"] == 0

    def test_plan_structure(self):
        code = MDSCode(9, 6)
        plan = code.decode_plan([8, 1, 4, 7, 2, 5])
        assert plan.indices == (1, 2, 4, 5, 7, 8)
        assert plan.missing == (0, 3)
        assert dict(plan.present) == {1: 0, 2: 1, 4: 2, 5: 3}
        assert plan.solve_rows.shape == (2, 6)
        full = inverse(code.field, code.generator[list(plan.indices)])
        assert np.array_equal(plan.solve_rows, full[[0, 3]])

    @pytest.mark.parametrize("n, k", [(6, 4), (9, 6), (12, 8)])
    def test_every_survivor_set_solves_as_the_full_inverse(self, n, k):
        # The r x r solve on the missing rows against the k x k inverse.
        code = MDSCode(n, k)
        for use in itertools.combinations(range(n), k):
            plan = code.decode_plan(use)
            full = inverse(code.field, code.generator[list(use)])
            assert np.array_equal(plan.solve_rows, full[list(plan.missing)])
        assert code.plan_cache_misses == comb(n, k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sampled_survivor_sets_of_wider_codes(self, data):
        k = data.draw(st.integers(1, 8), label="k")
        n = data.draw(st.integers(k, 22), label="n")
        use = data.draw(st.permutations(range(n)), label="order")[:k]
        code = MDSCode(n, k)
        plan = code.decode_plan(use)
        full = inverse(code.field, code.generator[sorted(use)])
        assert np.array_equal(plan.solve_rows, full[list(plan.missing)])
        for target in range(n):
            assert np.array_equal(
                plan.recode_row(code, target),
                matmul_reference(code.field, code.generator[[target]], full)[0],
            )

    def test_codes_of_one_shape_share_plans(self):
        first, second = MDSCode(12, 8), MDSCode(12, 8)
        keep = [1, 2, 4, 5, 7, 8, 10, 11]
        plan = first.decode_plan(keep)
        assert second.decode_plan(keep) is plan
        assert second.generator is first.generator
        # counters stay per object; the table is the code's
        assert first.plan_cache_info()["misses"] == 1
        assert second.plan_cache_info() == {
            "hits": 1, "misses": 0, "size": 1, "maxsize": code_mod.PLAN_CACHE_SIZE,
        }
        assert MDSCode(12, 8, field=GF2m(4)).decode_plan(keep) is not plan
        assert MDSCode(13, 8).decode_plan(keep) is not plan

    def test_code_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(code_mod, "_CODE_TABLES", OrderedDict())
        monkeypatch.setattr(code_mod, "_CODE_TABLES_KEPT", 2)
        keep = list(range(1, 9))
        oldest = MDSCode(12, 8)
        plan = oldest.decode_plan(keep)
        MDSCode(13, 8)
        MDSCode(12, 8)  # a use makes (12, 8) the most recent again
        MDSCode(14, 8)
        assert [key[1:] for key in code_mod._CODE_TABLES] == [(12, 8), (14, 8)]
        MDSCode(15, 8)
        assert [key[1:] for key in code_mod._CODE_TABLES] == [(14, 8), (15, 8)]
        # a dropped table stays with the objects holding it, unshared
        assert oldest.decode_plan(keep) is plan
        assert MDSCode(12, 8).decode_plan(keep) is not plan

    def test_shared_plans_are_read_only(self):
        code = MDSCode(12, 8)
        plan = code.decode_plan([0, 2, 3, 5, 6, 8, 9, 11])
        row = plan.recode_row(code, 1)
        for array in (plan.solve_rows, row, code.generator):
            with pytest.raises(ValueError):
                array[0] ^= 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.solve_rows = np.zeros_like(plan.solve_rows)

    def test_recode_rows_cached_and_correct(self):
        code = MDSCode(9, 6)
        data = make_batch(1, 6, seed=12)[0]
        stripe = code.encode(data)
        keep = [0, 1, 2, 3, 4, 6]
        plan = code.decode_plan(keep)
        row = plan.recode_row(code, 8)
        assert row is plan.recode_row(code, 8)  # cached object
        out = code.reconstruct_block(8, keep, stripe[keep])
        assert np.array_equal(out, stripe[8])

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.sampled_from([4, 8, 16]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_cached_decode_identical_to_seed_path_across_fields(self, width, seed):
        gf = GF2m(width)
        code = MDSCode(7, 4, field=gf)
        rng = np.random.default_rng(seed)
        data = gf.random_elements(rng, (4, 10))
        stripe = code.encode(data)
        idx = rng.choice(7, size=4, replace=False).tolist()
        first = code.decode(idx, stripe[idx])
        again = code.decode(idx, stripe[idx])  # cache hit
        expect = seed_decode(code, idx, stripe[idx])
        assert np.array_equal(first, expect)
        assert np.array_equal(again, expect)


#: (n, k, block length) across every kernel regime: the w = 8 gather
#: path, the streamed row kernel (>= 256 columns per output row), the
#: largest fused batch (L == FUSE_MAX_BLOCK) and the per-stripe loop
#: above it, at the paper's k = 8 and at a wide-parity n = 22.
SEED_PATH_CASES = [
    pytest.param(6, 4, 64, id="6-4-L64"),
    pytest.param(6, 4, 256, id="6-4-L256"),
    pytest.param(12, 8, 1 << 10, id="12-8-L1KiB"),
    pytest.param(12, 8, code_mod.FUSE_MAX_BLOCK, id="12-8-Lfuse"),
    pytest.param(12, 8, 1 << 16, id="12-8-L64KiB"),
    pytest.param(22, 8, 512, id="22-8-L512"),
]


class TestSeedPathEquivalence:
    """The kernels against the pre-kernel reference paths, byte for byte.

    ``matmul_reference`` (outer-product accumulation) and a fresh
    Gauss-Jordan ``inverse`` per decode are the ground truth every
    encode/decode/update kernel must reproduce at any block length.
    """

    STRIPES = 3

    def _setup(self, n, k, length):
        code = MDSCode(n, k)
        batch = make_batch(self.STRIPES, k, length=length, seed=n * k + length)
        return code, batch

    @staticmethod
    def _survivors(code):
        # Lose m blocks spread over data and parity, keep the first k left.
        lost = {(3 * t) % code.n for t in range(code.m)}
        return [i for i in range(code.n) if i not in lost][: code.k]

    @pytest.mark.parametrize("n, k, length", SEED_PATH_CASES)
    def test_encode_matches_reference_matmul(self, n, k, length):
        code, batch = self._setup(n, k, length)
        stripe = code.encode(batch[0])
        assert np.array_equal(stripe[:k], batch[0])
        assert np.array_equal(
            stripe[k:], matmul_reference(code.field, code.parity_matrix, batch[0])
        )

    @pytest.mark.parametrize("n, k, length", SEED_PATH_CASES)
    def test_encode_batch_matches_per_stripe_encode(self, n, k, length):
        code, batch = self._setup(n, k, length)
        stripes = code.encode_batch(batch)
        for i in range(self.STRIPES):
            assert np.array_equal(stripes[i], code.encode(batch[i]))

    @pytest.mark.parametrize("n, k, length", SEED_PATH_CASES)
    def test_repeated_decode_matches_seed_with_one_inversion(self, n, k, length):
        code, batch = self._setup(n, k, length)
        stripe = code.encode(batch[0])
        keep = self._survivors(code)
        frag = np.ascontiguousarray(stripe[keep])
        expect = seed_decode(code, keep, frag)
        assert np.array_equal(expect, batch[0])
        for _ in range(3):
            assert np.array_equal(code.decode(keep, frag), expect)
        info = code.plan_cache_info()
        assert info["misses"] == 1 and info["hits"] == 2

    @pytest.mark.parametrize("n, k, length", SEED_PATH_CASES)
    def test_decode_batch_matches_seed_per_stripe(self, n, k, length):
        code, batch = self._setup(n, k, length)
        stripes = code.encode_batch(batch)
        keep = self._survivors(code)
        out = code.decode_batch(keep, np.ascontiguousarray(stripes[:, keep]))
        for i in range(self.STRIPES):
            assert np.array_equal(out[i], seed_decode(code, keep, stripes[i][keep]))
        assert np.array_equal(out, batch)

    @pytest.mark.parametrize("n, k, length", SEED_PATH_CASES)
    def test_parity_deltas_land_on_reencode(self, n, k, length):
        code, batch = self._setup(n, k, length)
        data = batch[0].copy()
        stripe = code.encode(data)
        new_block = batch[1][0]
        delta = code.delta(data[0], new_block)
        for j in range(k, n):
            code.apply_parity_delta(stripe[j], j, 0, delta)
        stripe[0] = data[0] = new_block
        assert np.array_equal(stripe, code.encode(data))


class TestPayloadBatch:
    def test_roundtrip(self):
        payloads = [b"hello world", b"", b"x" * 37]
        batch, lengths = split_payload_batch(payloads, k=4)
        assert batch.shape[0] == 3 and batch.shape[1] == 4
        assert join_payload_batch(batch, lengths) == payloads

    def test_empty_batch(self):
        batch, lengths = split_payload_batch([], k=3)
        assert batch.shape == (0, 3, 1) and lengths == []
        assert join_payload_batch(batch, lengths) == []

    def test_encode_decode_through_batch(self):
        code = MDSCode(6, 4)
        payloads = [bytes([i] * (10 + i)) for i in range(5)]
        batch, lengths = split_payload_batch(payloads, k=4)
        stripes = code.encode_batch(batch)
        keep = [0, 2, 4, 5]
        out = code.decode_batch(keep, stripes[:, keep])
        assert join_payload_batch(out, lengths) == payloads

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            split_payload_batch([b"x"], k=0)
        with pytest.raises(ConfigurationError):
            join_payload_batch(np.zeros((2, 4), dtype=np.uint8), [1, 2])
        with pytest.raises(ConfigurationError):
            join_payload_batch(np.zeros((2, 4, 2), dtype=np.uint8), [1])
