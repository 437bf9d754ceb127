"""Property tests: batched kernels are bit-identical to the references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf import (
    GF256,
    GF2m,
    gf_matmul,
    gf_matvec,
    gf_scaled_rows,
    matmul,
    matmul_reference,
    matvec,
    matvec_reference,
    xor_blocks,
    xor_into,
)
from repro.gf import kernels
from tests.gf.split_reference import SplitTableMultiplier

#: Row lengths the row kernel is pinned at: empty, sub-word, one word, an
#: odd tail, and the benchmark's 4 KiB / 64 KiB blocks.
ROW_LENGTHS = [0, 1, 7, 8, 255, 4096, 65536]
SCALARS = st.one_of(st.just(0), st.just(1), st.integers(2, 255))


def random_bytes(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def mixed_coefficients(seed: int, m: int, t: int) -> np.ndarray:
    """GF(2^8) coefficients mixing 0, 1 and other values, like the
    normalised generator: row 0 all ones, row 1 (if any) all zeros."""
    rng = np.random.default_rng(seed)
    a = rng.integers(2, 256, (m, t), dtype=np.uint8)
    a[rng.random((m, t)) < 0.4] = 1
    a[rng.random((m, t)) < 0.2] = 0
    a[0] = 1
    a[1:2] = 0
    return a


class TestGfMatmulIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([2, 3, 4, 8, 9, 12, 16]),
        m=st.integers(1, 6),
        t=st.integers(1, 6),
        cols=st.integers(1, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_reference_all_widths(self, width, m, t, cols, seed):
        gf = GF2m(width)
        rng = np.random.default_rng(seed)
        a = gf.random_elements(rng, (m, t))
        b = gf.random_elements(rng, (t, cols))
        assert np.array_equal(gf_matmul(gf, a, b), matmul_reference(gf, a, b))

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([4, 8, 12, 16]),
        m=st.integers(1, 5),
        t=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matvec_matches_reference(self, width, m, t, seed):
        gf = GF2m(width)
        rng = np.random.default_rng(seed)
        a = gf.random_elements(rng, (m, t))
        x = gf.random_elements(rng, t)
        assert np.array_equal(gf_matvec(gf, a, x), matvec_reference(gf, a, x))

    def test_zero_operands(self):
        gf = GF256
        a = np.zeros((3, 4), dtype=np.uint8)
        b = np.zeros((4, 7), dtype=np.uint8)
        assert not gf_matmul(gf, a, b).any()

    def test_sparse_rows_wide_field(self):
        # w > 8 fallback: zero rows/columns exercise the masking logic.
        gf = GF2m(12)
        rng = np.random.default_rng(0)
        a = gf.random_elements(rng, (4, 5))
        a[1] = 0
        a[:, 2] = 0
        b = gf.random_elements(rng, (5, 9))
        b[3] = 0
        assert np.array_equal(gf_matmul(gf, a, b), matmul_reference(gf, a, b))

    def test_linalg_matmul_dispatches_to_kernel(self):
        gf = GF256
        rng = np.random.default_rng(1)
        a = gf.random_elements(rng, (3, 3))
        b = gf.random_elements(rng, (3, 10))
        assert np.array_equal(matmul(gf, a, b), gf_matmul(gf, a, b))
        x = gf.random_elements(rng, 3)
        assert np.array_equal(matvec(gf, a, x), gf_matvec(gf, a, x))

    def test_shape_mismatch(self):
        with pytest.raises(FieldError):
            gf_matmul(GF256, np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(FieldError):
            gf_matvec(GF256, np.zeros((2, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        with pytest.raises(FieldError):
            gf_matmul(GF256, np.zeros(3, dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))


class TestRowKernel:
    """GF(2^8) constant-multiply through ``translate`` row tables."""

    @pytest.mark.parametrize("length", ROW_LENGTHS)
    @settings(max_examples=12, deadline=None)
    @given(c=SCALARS, seed=st.integers(0, 2**31 - 1))
    def test_scalar_mul_matches_three_oracles(self, length, c, seed):
        vec = random_bytes(seed, length)
        out = GF256.scalar_mul(c, vec)
        assert out.dtype == np.uint8 and out.shape == vec.shape
        # exp/log, the nibble split tables, and the reference matmul.
        assert np.array_equal(out, GF256.mul(c, vec))
        assert np.array_equal(out, SplitTableMultiplier(GF256).scalar_mul(c, vec))
        ref = matmul_reference(GF256, np.array([[c]], dtype=np.uint8), vec[None, :])
        assert np.array_equal(out, ref[0])

    @pytest.mark.parametrize("c", [0, 1, 37])
    @pytest.mark.parametrize(
        "view",
        [
            lambda base: base[::2],
            lambda base: base[::-1],
            lambda base: base.reshape(8, 16, 4)[:, ::2, ::-1],
            lambda base: base.reshape(32, 16).T,
            lambda base: np.asfortranarray(base.reshape(16, 32)),
            lambda base: base.reshape(2, 4, 8, 8),
        ],
    )
    def test_any_layout_gives_fresh_writable_c_contiguous(self, c, view):
        vec = view(random_bytes(3, 512))
        vec.setflags(write=False)
        before = vec.copy()
        out = GF256.scalar_mul(c, vec)
        assert np.array_equal(out, GF256.mul(c, vec))
        assert out.shape == vec.shape
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, vec)
        out[...] = 0xFF
        assert np.array_equal(vec, before)

    def test_scalar_operand_stays_a_scalar(self):
        out = GF256.scalar_mul(37, 5)
        assert out.shape == () and int(out) == int(GF256.mul(37, 5))

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 255, 4096])
    @settings(max_examples=10, deadline=None)
    @given(c=SCALARS, seed=st.integers(0, 2**31 - 1))
    def test_addmul_into_and_dot_match_reference(self, length, c, seed):
        vectors = random_bytes(seed, (3, length))
        dst = random_bytes(seed + 1, length)
        expect = dst ^ GF256.mul(c, vectors[0])
        GF256.addmul_into(dst, c, vectors[0])
        assert np.array_equal(dst, expect)
        coeffs = np.array([c, 1, 200], dtype=np.uint8)
        ref = matmul_reference(GF256, coeffs[None, :], vectors)[0]
        assert np.array_equal(GF256.dot(coeffs, vectors), ref)

    def test_addmul_into_unaligned_destination(self):
        buf = random_bytes(5, 65)
        src = random_bytes(6, 64)
        expect = buf[1:] ^ GF256.mul(91, src)
        GF256.addmul_into(buf[1:], 91, src)
        assert np.array_equal(buf[1:], expect)

    def test_row_tables_are_gf256_only(self):
        # A narrower field has no product for the bytes above its order, so
        # it must stay on the gather, where _coerce has range-checked them.
        gf = GF2m(4)
        vec = np.arange(16, dtype=np.uint8)
        assert np.array_equal(gf.scalar_mul(3, vec), gf.mul(3, vec))
        assert np.array_equal(
            np.stack(gf_scaled_rows(gf, [3, 9], vec)), gf.mul(np.array([[3], [9]]), vec)
        )
        assert not gf._row_tables

    def test_row_tables_cached_per_field(self):
        gf = GF2m(8)
        gf.scalar_mul(7, np.arange(16, dtype=np.uint8))
        assert set(gf._row_tables) == {7}
        assert gf._row_table(7) is gf._row_table(7)
        assert gf._row_table(7) == gf.mul_table()[7].tobytes()


class TestMatmulPathChoice:
    """The gather / row-kernel choice looks only at the operand shape."""

    @pytest.fixture
    def streamed(self, monkeypatch):
        calls = []
        real = kernels._matmul_stream

        def spy(field, a, b, cols):
            calls.append((a.shape, cols))
            return real(field, a, b, cols)

        monkeypatch.setattr(kernels, "_matmul_stream", spy)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_both_sides_of_the_threshold(self, m, streamed):
        edge = kernels._STREAM_MIN_COLS_PER_ROW * m
        a = mixed_coefficients(m, m, 5)
        for cols, expect_stream in [(edge - 1, False), (edge, True), (edge + 3, True)]:
            del streamed[:]
            b = random_bytes(cols, (5, cols))
            out = gf_matmul(GF256, a, b)
            assert bool(streamed) is expect_stream, (m, cols)
            assert np.array_equal(out, matmul_reference(GF256, a, b))
            assert out.shape == (m, cols)
            assert out.flags.c_contiguous and out.flags.writeable

    def test_narrow_fields_never_stream(self, streamed):
        gf = GF2m(4)
        rng = np.random.default_rng(0)
        a = gf.random_elements(rng, (1, 3))
        b = gf.random_elements(rng, (3, 4096))
        assert np.array_equal(gf_matmul(gf, a, b), matmul_reference(gf, a, b))
        assert not streamed

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        t=st.integers(1, 8),
        cols=st.sampled_from([1, 8, 255, 256, 1000, 1024, 4096]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_wide_rows_match_reference(self, m, t, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, t), dtype=np.uint8)
        a[0, 0] = seed % 2  # the 0 and 1 rows of the table get exercised
        b = rng.integers(0, 256, (t, cols), dtype=np.uint8)
        assert np.array_equal(gf_matmul(GF256, a, b), matmul_reference(GF256, a, b))

    @pytest.mark.parametrize("width", [4, 8, 12])
    @pytest.mark.parametrize("cols", [9, 2048])
    def test_row_sequence_equals_stacked_operand(self, width, cols):
        gf = GF2m(width)
        rng = np.random.default_rng(cols)
        a = gf.random_elements(rng, (2, 4))
        b = gf.random_elements(rng, (4, cols))
        # Rows as they arrive from nodes: separate, strided, read-only.
        backing = np.zeros((4, 2 * cols), dtype=gf.dtype)
        backing[:, ::2] = b
        rows = [backing[t, ::2] for t in range(4)]
        for row in rows:
            row.setflags(write=False)
        out = gf_matmul(gf, a, rows)
        assert np.array_equal(out, gf_matmul(gf, a, b))
        assert out.flags.writeable and not any(np.shares_memory(out, r) for r in rows)
        assert np.array_equal(gf_matmul(gf, a, tuple(b.tolist())), out)

    def test_row_sequence_validation(self):
        a = np.ones((1, 2), dtype=np.uint8)
        with pytest.raises(FieldError):
            gf_matmul(GF256, a, [np.zeros(4, np.uint8), np.zeros(5, np.uint8)])
        with pytest.raises(FieldError):
            gf_matmul(GF256, a, [np.zeros(4, np.uint8)])  # 1 row for t = 2
        with pytest.raises(FieldError):
            gf_matmul(GF256, a, [np.zeros((2, 2), np.uint8)] * 2)
        with pytest.raises(FieldError):
            gf_matmul(GF256, a, [1, 2])
        assert gf_matmul(GF256, np.ones((3, 0), dtype=np.uint8), []).shape == (3, 0)


class TestScaledRows:
    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([4, 8, 16]),
        m=st.integers(1, 6),
        length=st.integers(1, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_elementwise_mul(self, width, m, length, seed):
        gf = GF2m(width)
        rng = np.random.default_rng(seed)
        coeffs = gf.random_elements(rng, m)
        coeffs[rng.random(m) < 0.4] = 1
        coeffs[rng.random(m) < 0.2] = 0
        vec = gf.random_elements(rng, length)
        out = gf_scaled_rows(gf, coeffs, vec)
        expect = matmul_reference(gf, coeffs[:, None], vec[None, :])
        assert np.array_equal(np.stack(out), expect)
        for c, row in zip(coeffs.tolist(), out):
            if c == 1:
                assert row is vec
            else:
                assert not any(np.shares_memory(row, r) for r in out + [vec] if r is not row)

    @pytest.mark.parametrize("length", ROW_LENGTHS)
    def test_equals_stacked_scalar_mul(self, length):
        coeffs = np.array([0, 1, 2, 143, 255], dtype=np.uint8)
        vec = random_bytes(length, 2 * length)[::2]  # strided, like a column
        vec.setflags(write=False)
        out = gf_scaled_rows(GF256, coeffs, vec)
        expect = np.stack([GF256.scalar_mul(int(c), vec) for c in coeffs])
        assert isinstance(out, list) and len(out) == 5
        assert all(row.shape == (length,) for row in out)
        assert np.array_equal(np.stack(out), expect)
        assert out[1] is vec  # the unit row is the block itself
        for row in out[:1] + out[2:]:
            assert row.flags.c_contiguous and not np.shares_memory(row, vec)

    def test_no_coefficients(self):
        out = gf_scaled_rows(GF256, np.empty(0, dtype=np.uint8), np.arange(8, dtype=np.uint8))
        assert out == []

    def test_rejects_matrices(self):
        with pytest.raises(FieldError):
            gf_scaled_rows(GF256, np.zeros((2, 2), dtype=np.uint8), np.zeros(4, dtype=np.uint8))

    def test_unit_coefficients_need_no_row_table(self, monkeypatch):
        lookups = []
        real = GF2m._row_table
        monkeypatch.setattr(
            GF2m, "_row_table", lambda f, c: lookups.append(c) or real(f, c)
        )
        vec = random_bytes(3, 4096)
        assert all(row is vec for row in gf_scaled_rows(GF256, [1, 1, 1], vec))
        a = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        b = random_bytes(4, (3, 4096))
        assert np.array_equal(gf_matmul(GF256, a, b), matmul_reference(GF256, a, b))
        assert lookups == []


class TestXorFolds:
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 16, 63, 64, 65, 1024])
    def test_xor_into_matches_plain_xor(self, length):
        rng = np.random.default_rng(length)
        dst = rng.integers(0, 256, length, dtype=np.int64).astype(np.uint8)
        src = rng.integers(0, 256, length, dtype=np.int64).astype(np.uint8)
        expect = dst ^ src
        xor_into(dst, src)
        assert np.array_equal(dst, expect)

    def test_xor_into_unaligned_view(self):
        rng = np.random.default_rng(0)
        buf = rng.integers(0, 256, 33, dtype=np.int64).astype(np.uint8)
        dst = buf[1:33]  # 32 bytes, but offset 1 from the allocation
        src = rng.integers(0, 256, 32, dtype=np.int64).astype(np.uint8)
        expect = dst ^ src
        xor_into(dst, src)
        assert np.array_equal(dst, expect)

    def test_xor_into_non_contiguous(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 256, (4, 16), dtype=np.int64).astype(np.uint8)
        dst = mat[:, 3]  # strided view
        src = rng.integers(0, 256, 4, dtype=np.int64).astype(np.uint8)
        expect = dst ^ src
        xor_into(dst, src)
        assert np.array_equal(mat[:, 3], expect)

    def test_xor_into_shape_mismatch(self):
        with pytest.raises(FieldError):
            xor_into(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(4, 10), (5, 8), (3, 3), (2, 2, 6)])
    def test_xor_into_multidimensional(self, shape):
        # Regression: 2-D operands whose last axis is not word-divisible
        # must still fold (flat word view or plain-XOR fallback).
        rng = np.random.default_rng(17)
        dst = rng.integers(0, 256, shape, dtype=np.int64).astype(np.uint8)
        src = rng.integers(0, 256, shape, dtype=np.int64).astype(np.uint8)
        expect = dst ^ src
        xor_into(dst, src)
        assert np.array_equal(dst, expect)

    @pytest.mark.parametrize("shape", [(1, 8), (3, 16), (5, 7), (2, 1), (4, 64)])
    def test_xor_blocks_matches_reduce(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        blocks = rng.integers(0, 256, shape, dtype=np.int64).astype(np.uint8)
        assert np.array_equal(
            xor_blocks(blocks), np.bitwise_xor.reduce(blocks, axis=0)
        )

    def test_xor_blocks_rejects_non_2d(self):
        with pytest.raises(FieldError):
            xor_blocks(np.zeros(8, dtype=np.uint8))


class TestFieldKernelSupport:
    def test_mul_table_rejected_for_wide_fields(self):
        with pytest.raises(FieldError):
            GF2m(12).mul_table()

    def test_mul_table_read_only_and_correct(self):
        table = GF256.mul_table()
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert int(table[2, 3]) == int(GF256.mul(2, 3))
        assert not table[0].any() and not table[:, 0].any()
