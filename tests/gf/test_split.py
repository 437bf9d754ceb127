"""Tests for split-table (nibble) multiplication in GF(2^8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf import GF256, GF2m
from tests.gf.split_reference import SplitTableMultiplier, split_tables


class TestSplitTables:
    def test_lo_table_is_products(self):
        lo, _ = split_tables(GF256, 7)
        for x in range(16):
            assert int(lo[x]) == int(GF256.mul(7, x))

    def test_hi_table_is_shifted_products(self):
        _, hi = split_tables(GF256, 7)
        for x in range(16):
            assert int(hi[x]) == int(GF256.mul(7, x << 4))

    def test_requires_width_8(self):
        with pytest.raises(FieldError):
            split_tables(GF2m(4), 3)
        with pytest.raises(FieldError):
            SplitTableMultiplier(GF2m(16))

    def test_scalar_range_checked(self):
        with pytest.raises(FieldError):
            split_tables(GF256, 256)


class TestMultiplier:
    @pytest.fixture
    def mult(self) -> SplitTableMultiplier:
        return SplitTableMultiplier(GF256)

    def test_matches_full_table_path(self, mult):
        rng = np.random.default_rng(0)
        vec = GF256.random_elements(rng, 512)
        for c in (0, 1, 2, 0x1D, 0x8E, 255):
            assert np.array_equal(mult.scalar_mul(c, vec), GF256.scalar_mul(c, vec))

    def test_zero_scalar(self, mult):
        vec = np.arange(16, dtype=np.uint8)
        assert not mult.scalar_mul(0, vec).any()

    def test_one_copies(self, mult):
        vec = np.arange(16, dtype=np.uint8)
        out = mult.scalar_mul(1, vec)
        assert np.array_equal(out, vec)
        out[0] = 99
        assert vec[0] == 0

    def test_addmul_into(self, mult):
        rng = np.random.default_rng(1)
        dst = GF256.random_elements(rng, 64)
        src = GF256.random_elements(rng, 64)
        expected = dst ^ GF256.scalar_mul(9, src)
        mult.addmul_into(dst, 9, src)
        assert np.array_equal(dst, expected)

    def test_addmul_zero_noop(self, mult):
        dst = np.arange(8, dtype=np.uint8)
        before = dst.copy()
        mult.addmul_into(dst, 0, np.ones(8, dtype=np.uint8))
        assert np.array_equal(dst, before)

    def test_table_cache_grows_and_reports_bytes(self, mult):
        vec = np.arange(32, dtype=np.uint8)
        assert mult.table_bytes() == 0
        mult.scalar_mul(5, vec)
        mult.scalar_mul(5, vec)  # cached
        mult.scalar_mul(9, vec)
        assert mult.table_bytes() == 64  # two scalars x 32 bytes

    @settings(max_examples=50)
    @given(c=st.integers(0, 255), seed=st.integers(0, 2**31 - 1))
    def test_agreement_property(self, c, seed):
        mult = SplitTableMultiplier(GF256)
        rng = np.random.default_rng(seed)
        vec = GF256.random_elements(rng, 33)
        assert np.array_equal(mult.scalar_mul(c, vec), GF256.scalar_mul(c, vec))

    def test_encode_parity_via_split_tables(self):
        """Third full-encode implementation agreeing with the other two."""
        from repro.erasure import MDSCode

        code = MDSCode(9, 6)
        mult = SplitTableMultiplier(GF256)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=(6, 64), dtype=np.int64).astype(np.uint8)
        parity = np.zeros((3, 64), dtype=np.uint8)
        for jj in range(3):
            for i in range(6):
                mult.addmul_into(parity[jj], code.coefficient(6 + jj, i), data[i])
        assert np.array_equal(parity, code.encode_parity(data))

    def test_decode_via_split_tables(self):
        """The cached decode plan, applied with split tables, recovers the
        data the matrix path decodes."""
        from repro.erasure import MDSCode

        code = MDSCode(9, 6)
        mult = SplitTableMultiplier(GF256)
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, size=(6, 48), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        survivors = [1, 2, 4, 6, 7, 8]
        plan = code.decode_plan(survivors)
        out = np.zeros((6, 48), dtype=np.uint8)
        for i, pos in plan.present:
            out[i] = stripe[survivors[pos]]
        for row, i in enumerate(plan.missing):
            for col, index in enumerate(survivors):
                mult.addmul_into(out[i], int(plan.solve_rows[row, col]), stripe[index])
        assert np.array_equal(out, data)
        assert np.array_equal(out, code.decode(survivors, stripe[survivors]))

    def test_parity_delta_via_split_tables(self):
        """Algorithm 1's in-place parity update, through split tables."""
        from repro.erasure import MDSCode

        code = MDSCode(9, 6)
        mult = SplitTableMultiplier(GF256)
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=(6, 32), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        new = rng.integers(0, 256, size=32, dtype=np.int64).astype(np.uint8)
        delta = code.delta(data[3], new)
        data[3] = new
        expect = code.encode_parity(data)
        for jj, j in enumerate(range(6, 9)):
            via_split = stripe[j].copy()
            mult.addmul_into(via_split, code.coefficient(j, 3), delta)
            via_field = stripe[j].copy()
            code.apply_parity_delta(via_field, j, 3, delta)
            assert np.array_equal(via_split, expect[jj])
            assert np.array_equal(via_field, expect[jj])
