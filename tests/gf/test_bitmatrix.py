"""Tests for the bit-matrix (XOR-schedule) representation of GF(2^w)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf import (
    GF256,
    GF2m,
    bitmatrix_matvec,
    bitmatrix_to_element,
    element_to_bitmatrix,
    expand_matrix,
    xor_count,
)

elem8 = st.integers(0, 255)


class TestElementMatrices:
    def test_zero_is_zero_matrix(self):
        assert not element_to_bitmatrix(GF256, 0).any()

    def test_one_is_identity(self):
        assert np.array_equal(element_to_bitmatrix(GF256, 1), np.eye(8, dtype=np.uint8))

    def test_matrix_action_matches_field(self):
        for a in (2, 3, 0x1D, 0x80, 255):
            m = element_to_bitmatrix(GF256, a)
            for x in (1, 2, 7, 0x53, 0xFF):
                bits_x = np.array([(x >> i) & 1 for i in range(8)], dtype=np.uint8)
                bits_out = (m @ bits_x) % 2
                out = sum(int(b) << i for i, b in enumerate(bits_out))
                assert out == int(GF256.mul(a, x)), (a, x)

    @given(elem8, elem8)
    def test_additive_homomorphism(self, a, b):
        ma = element_to_bitmatrix(GF256, a)
        mb = element_to_bitmatrix(GF256, b)
        assert np.array_equal(element_to_bitmatrix(GF256, a ^ b), ma ^ mb)

    @settings(max_examples=40)
    @given(elem8, elem8)
    def test_multiplicative_homomorphism(self, a, b):
        ma = element_to_bitmatrix(GF256, a)
        mb = element_to_bitmatrix(GF256, b)
        prod = (ma.astype(np.int64) @ mb.astype(np.int64)) % 2
        assert np.array_equal(
            element_to_bitmatrix(GF256, int(GF256.mul(a, b))), prod.astype(np.uint8)
        )

    @given(elem8)
    def test_roundtrip(self, a):
        assert bitmatrix_to_element(GF256, element_to_bitmatrix(GF256, a)) == a

    def test_invalid_matrix_rejected(self):
        bad = np.zeros((8, 8), dtype=np.uint8)
        bad[0, 1] = 1  # column 1 says a*x = 1, column 0 says a = 0
        with pytest.raises(FieldError):
            bitmatrix_to_element(GF256, bad)

    def test_shape_validated(self):
        with pytest.raises(FieldError):
            bitmatrix_to_element(GF256, np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(FieldError):
            element_to_bitmatrix(GF256, 256)

    def test_small_field(self):
        gf = GF2m(4)
        for a in range(16):
            m = element_to_bitmatrix(gf, a)
            assert m.shape == (4, 4)
            assert bitmatrix_to_element(gf, m) == a


class TestExpandedCodec:
    def test_expand_shape(self):
        from repro.erasure import MDSCode

        code = MDSCode(6, 4)
        expanded = expand_matrix(GF256, code.parity_matrix)
        assert expanded.shape == (2 * 8, 4 * 8)

    def test_bitmatrix_encode_matches_table_encode(self):
        from repro.erasure import MDSCode

        code = MDSCode(7, 4)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(4, 32), dtype=np.int64).astype(np.uint8)
        via_tables = code.encode_parity(data)
        via_xor = bitmatrix_matvec(GF256, code.parity_matrix, data)
        assert np.array_equal(via_tables, via_xor)

    def test_bitmatrix_matvec_identity(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=(3, 16), dtype=np.int64).astype(np.uint8)
        eye = np.eye(3, dtype=np.uint8)
        assert np.array_equal(bitmatrix_matvec(GF256, eye, data), data)

    def test_shape_mismatch(self):
        with pytest.raises(FieldError):
            bitmatrix_matvec(GF256, np.eye(3, dtype=np.uint8), np.zeros((4, 8), dtype=np.uint8))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), width=st.sampled_from([4, 8]))
    def test_encode_agreement_property(self, seed, width):
        from repro.erasure import MDSCode

        gf = GF2m(width)
        code = MDSCode(6, 3, field=gf)
        rng = np.random.default_rng(seed)
        data = gf.random_elements(rng, (3, 8))
        assert np.array_equal(
            code.encode_parity(data), bitmatrix_matvec(gf, code.parity_matrix, data)
        )


class TestXorCount:
    def test_identity_costs_nothing(self):
        assert xor_count(GF256, np.eye(4, dtype=np.uint8)) == 0

    def test_zero_costs_nothing(self):
        assert xor_count(GF256, np.zeros((2, 3), dtype=np.uint8)) == 0

    def test_positive_for_real_parity(self):
        from repro.erasure import MDSCode

        code = MDSCode(6, 4)
        assert xor_count(GF256, code.parity_matrix) > 0

    @pytest.mark.parametrize(
        "n, k, xors", [(6, 4, 103), (9, 6, 349), (12, 8, 712), (15, 8, 1399)]
    )
    def test_parity_schedule_cost_golden(self, n, k, xors):
        """The XOR-schedule yardstick of the normalised generator."""
        from repro.erasure import MDSCode

        code = MDSCode(n, k)
        assert xor_count(GF256, code.parity_matrix) == xors
