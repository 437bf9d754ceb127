"""Tests for the Lagrange-interpolation decode path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import MDSCode
from repro.errors import CodeError, DecodeError
from repro.gf import GF256, GF2m
from tests.erasure.lagrange_reference import (
    lagrange_coefficients,
    lagrange_reconstruct,
)


class TestCoefficients:
    def test_sum_to_one_on_constants(self):
        # For the constant polynomial f = c, sum of weights must be 1.
        coeffs = lagrange_coefficients(GF256, [1, 2, 3], 7)
        acc = 0
        for c in coeffs:
            acc ^= int(c)
        assert acc == 1

    def test_target_equal_to_point_gives_indicator(self):
        coeffs = lagrange_coefficients(GF256, [5, 9, 11], 9)
        assert coeffs.tolist() == [0, 1, 0]

    def test_distinct_points_required(self):
        with pytest.raises(CodeError):
            lagrange_coefficients(GF256, [1, 1, 2], 5)

    def test_range_checked(self):
        with pytest.raises(CodeError):
            lagrange_coefficients(GF256, [1, 256], 5)
        with pytest.raises(CodeError):
            lagrange_coefficients(GF256, [1, 2], 300)


class TestReconstruct:
    def test_matches_matrix_decode_all_subsets(self):
        """The independent polynomial path must agree with Gauss-Jordan."""
        from itertools import combinations

        code = MDSCode(7, 4, construction="vandermonde")
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(4, 16), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        for keep in combinations(range(7), 4):
            for target in range(7):
                via_matrix = code.reconstruct_block(target, list(keep), stripe[list(keep)])
                via_poly = lagrange_reconstruct(
                    GF256, list(keep), stripe[list(keep)], target
                )
                assert np.array_equal(via_matrix, via_poly), (keep, target)

    def test_known_point_shortcut(self):
        code = MDSCode(6, 3)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=(3, 8), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        out = lagrange_reconstruct(GF256, [0, 2, 4], stripe[[0, 2, 4]], 2)
        assert np.array_equal(out, stripe[2])

    def test_shape_validation(self):
        with pytest.raises(DecodeError):
            lagrange_reconstruct(GF256, [0, 1], np.zeros((3, 4), dtype=np.uint8), 2)

    def test_other_field_widths(self):
        gf = GF2m(16)
        code = MDSCode(6, 3, field=gf)
        rng = np.random.default_rng(2)
        data = gf.random_elements(rng, (3, 8))
        stripe = code.encode(data)
        out = lagrange_reconstruct(gf, [1, 3, 5], stripe[[1, 3, 5]], 0)
        assert np.array_equal(out, stripe[0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nk=st.tuples(st.integers(3, 10), st.integers(1, 10)).filter(
            lambda t: t[0] > t[1]
        ),
    )
    def test_poly_matrix_agreement_property(self, seed, nk):
        n, k = nk
        code = MDSCode(n, k, construction="vandermonde")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        target = int(rng.integers(0, n))
        via_matrix = code.reconstruct_block(target, keep, stripe[keep])
        via_poly = lagrange_reconstruct(code.field, keep, stripe[keep], target)
        assert np.array_equal(via_matrix, via_poly)


SHAPES = st.sampled_from([(7, 4), (9, 6), (12, 8)])


class TestSupersetsDecodeTheSame:
    """Any survivor set of size >= k, in any order, yields the blocks the
    polynomial oracle interpolates from any k of its members."""

    @staticmethod
    def _stripe(n, k, seed):
        code = MDSCode(n, k, construction="vandermonde")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8), dtype=np.int64).astype(np.uint8)
        return code, data, code.encode(data), rng

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shape=SHAPES)
    def test_decode_from_a_superset(self, seed, shape):
        n, k = shape
        code, data, stripe, rng = self._stripe(n, k, seed)
        size = int(rng.integers(k, n + 1))
        survivors = rng.permutation(n)[:size].tolist()
        assert np.array_equal(code.decode(survivors, stripe[survivors]), data)
        inner = sorted(survivors[:k])
        for i in range(k):
            via_poly = lagrange_reconstruct(code.field, inner, stripe[inner], i)
            assert np.array_equal(via_poly, data[i])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shape=SHAPES)
    def test_reconstruct_block_from_a_superset(self, seed, shape):
        n, k = shape
        code, _, stripe, rng = self._stripe(n, k, seed)
        target = int(rng.integers(0, n))
        others = [i for i in rng.permutation(n).tolist() if i != target]
        survivors = others[: int(rng.integers(k, n))]
        via_matrix = code.reconstruct_block(target, survivors, stripe[survivors])
        subset = sorted(rng.choice(survivors, size=k, replace=False).tolist())
        via_poly = lagrange_reconstruct(code.field, subset, stripe[subset], target)
        assert np.array_equal(via_matrix, via_poly)
        assert np.array_equal(via_matrix, stripe[target])

    def test_repair_from_every_superset_of_one_loss_pattern(self):
        from itertools import combinations

        code, _, stripe, _ = self._stripe(7, 4, 3)
        lost = [1, 5]
        alive = [i for i in range(7) if i not in lost]
        for size in range(4, len(alive) + 1):
            for survivors in combinations(alive, size):
                keep = list(survivors)[::-1]
                rebuilt = code.repair(lost, keep, stripe[keep])
                for row, index in zip(rebuilt, lost):
                    inner = sorted(keep[-4:])
                    oracle = lagrange_reconstruct(
                        code.field, inner, stripe[inner], index
                    )
                    assert np.array_equal(row, oracle), (survivors, index)
                    assert np.array_equal(row, stripe[index])
