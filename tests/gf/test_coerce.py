"""Regression tests for GF2m._coerce (single-pass validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FieldError
from repro.gf import GF256, GF2m, gf_matmul, gf_scaled_rows


class TestCoerce:
    def test_out_of_range_rejected(self):
        gf = GF2m(4)
        with pytest.raises(FieldError):
            gf.add([0, 16], [1, 2])  # 16 >= 2^4
        with pytest.raises(FieldError):
            gf.mul(np.array([300], dtype=np.int64), np.array([1], dtype=np.int64))
        with pytest.raises(FieldError):
            gf.add(np.array([-1]), np.array([0]))

    def test_in_dtype_array_passes_through_without_copy(self):
        arr = np.arange(8, dtype=np.uint8)
        out = GF256._coerce(arr)
        assert out is arr  # no copy, no validation pass for field-dtype input

    def test_python_ints_and_lists_coerced(self):
        assert int(GF256.add(250, 5)) == 250 ^ 5
        out = GF256.add([1, 2], [3, 4])
        assert out.dtype == np.uint8
        assert out.tolist() == [1 ^ 3, 2 ^ 4]

    def test_boundary_values(self):
        gf = GF2m(4)
        assert int(gf.add(15, 15)) == 0  # top element of the field is fine
        with pytest.raises(FieldError):
            gf.add(16, 0)

    def test_wide_field_range(self):
        gf = GF2m(12)
        assert int(gf.add(4095, 0)) == 4095
        with pytest.raises(FieldError):
            gf.add(4096, 0)

    @pytest.mark.parametrize("width,value", [(4, 200), (2, 4), (7, 128), (12, 5000)])
    def test_field_dtype_arrays_out_of_field_fail_typed(self, width, value):
        # Regression: arrays already in the field dtype skipped the range
        # check and leaked a bare IndexError from the table gathers.
        gf = GF2m(width)
        bad = np.array([value], dtype=gf.dtype)
        good = np.array([1], dtype=gf.dtype)
        with pytest.raises(FieldError):
            gf.scalar_mul(3, bad)
        with pytest.raises(FieldError):
            gf.mul(bad, good)
        with pytest.raises(FieldError):
            gf.mul(good, bad)
        with pytest.raises(FieldError):
            gf_matmul(gf, bad[None, :], good[None, :])
        with pytest.raises(FieldError):
            gf_matmul(gf, good[None, :], bad[None, :])
        with pytest.raises(FieldError):
            gf_matmul(gf, good[None, :], [bad])
        with pytest.raises(FieldError):
            gf_scaled_rows(gf, good, bad)
        with pytest.raises(FieldError):
            gf_scaled_rows(gf, bad, good)

    def test_top_element_of_narrow_field_still_accepted(self):
        gf = GF2m(4)
        top = np.array([15], dtype=np.uint8)
        assert gf.scalar_mul(3, top).tolist() == gf.mul(3, top).tolist()
        assert gf_matmul(gf, top[None, :], top[None, :]).shape == (1, 1)
        assert gf._coerce(np.empty(0, dtype=np.uint8)).size == 0
