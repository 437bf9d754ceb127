"""Tests for the normalised systematic generator matrix."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gf import GF256, GF2m, cauchy, identity, inverse, matmul, vandermonde
from repro.erasure.generator import build_generator, verify_mds

PARAMS = [(3, 1), (4, 2), (5, 3), (6, 4), (9, 6), (12, 8), (15, 8), (15, 12)]

#: Every (n, k) with n <= 16 whose k-subsets verify_mds checks exhaustively.
EXHAUSTIVE = [
    (n, k) for n in range(2, 17) for k in range(1, n + 1) if comb(n, k) <= 5000
]

FIELDS = [GF2m(4), GF256, GF2m(16)]


def normalise(field, p: np.ndarray) -> np.ndarray:
    """Scale columns so row 0 is all ones, then rows so column 0 is."""
    p = field.div(p, p[0][None, :])
    return field.div(p, p[:, 0][:, None])


class TestGenerator:
    @pytest.mark.parametrize("n,k", PARAMS)
    def test_systematic(self, n, k):
        g = build_generator(GF256, n, k)
        assert g.shape == (n, k)
        assert np.array_equal(g[:k], identity(GF256, k))

    @pytest.mark.parametrize("n,k", EXHAUSTIVE)
    def test_mds_exhaustive(self, n, k):
        assert verify_mds(GF256, build_generator(GF256, n, k))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.width}")
    @pytest.mark.parametrize("n,k", [(5, 1), (6, 4), (7, 3), (9, 6), (12, 8), (16, 8)])
    def test_first_parity_row_and_column_are_ones(self, field, n, k):
        p = build_generator(field, n, k)[k:]
        assert np.all(p[0] == 1) and np.all(p[:, 0] == 1)
        assert int((p == 1).sum()) == n - 1  # no other coefficient is 1
        assert np.all(p != 0)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.width}")
    @pytest.mark.parametrize(
        "n,k", [(6, 4), (7, 3), (9, 6), (12, 8), (15, 8), (16, 8), (16, 15)]
    )
    def test_equals_both_classical_constructions_normalised(self, field, n, k):
        v = vandermonde(field, n, k)  # points 0..n-1
        g_vandermonde = matmul(field, v, inverse(field, v[:k]))
        g_cauchy = cauchy(field, np.arange(k, n), np.arange(k))
        g = build_generator(field, n, k)
        assert np.array_equal(g[k:], normalise(field, g_vandermonde[k:]))
        assert np.array_equal(g[k:], normalise(field, g_cauchy))

    def test_k_equals_n(self):
        g = build_generator(GF256, 4, 4)
        assert np.array_equal(g, identity(GF256, 4))

    def test_k_equals_one(self):
        # (n, 1) is replication: the normalised parity column is all ones.
        g = build_generator(GF256, 5, 1)
        assert np.all(g == 1)
        assert verify_mds(GF256, g)

    def test_small_field(self):
        gf = GF2m(4)
        g = build_generator(gf, 10, 6)
        assert verify_mds(gf, g)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            build_generator(GF256, 2, 3)
        with pytest.raises(ConfigurationError):
            build_generator(GF256, 3, 0)

    def test_field_capacity_limit(self):
        gf = GF2m(2)  # only 4 elements
        with pytest.raises(ConfigurationError):
            build_generator(gf, 5, 2)


class TestBuildGenerator:
    def test_verify_mds_detects_violation(self):
        # Duplicate a parity row: the two equal rows form a singular pair
        # with any k-2 others, so the check must fail.
        g = build_generator(GF256, 6, 3).copy()
        g[4] = g[5]
        assert not verify_mds(GF256, g)

    def test_verify_mds_sampled_path(self):
        g = build_generator(GF256, 24, 12)
        assert verify_mds(GF256, g, exhaustive_limit=10, samples=60)

    def test_paper_fig1_parameters(self):
        # The paper's running example: Nbnode = n - k + 1 = 15.
        # With k = 8 that is n = 22: a (22, 8) code must be constructible.
        g = build_generator(GF256, 22, 8)
        assert verify_mds(GF256, g, exhaustive_limit=0, samples=200)
