"""Tests for the Φ combinator (paper eq. 7)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.phi import at_least, at_least_table, exactly, phi
from repro.errors import ConfigurationError

#: node availabilities spanning the edges: 0, 1 and 1e-12 from each
ORACLE_PS = np.array(
    [0.0, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12, 1.0]
)


def phi_reference(z: int, i: int, j: int, p: float) -> float:
    """Literal transcription of eq. (7) for cross-checking."""
    return sum(
        math.comb(z, m) * p**m * (1 - p) ** (z - m)
        for m in range(max(i, 0), min(j, z) + 1)
    )


class TestPhi:
    def test_full_range_is_one(self):
        p = np.linspace(0, 1, 11)
        np.testing.assert_allclose(phi(7, 0, 7, p), np.ones_like(p), atol=1e-12)

    def test_empty_range_is_zero(self):
        p = np.linspace(0, 1, 11)
        np.testing.assert_allclose(phi(7, 5, 4, p), np.zeros_like(p))
        np.testing.assert_allclose(phi(7, 0, -1, p), np.zeros_like(p))

    def test_clamps_to_support(self):
        p = 0.3
        assert phi(5, -3, 99, p) == pytest.approx(1.0)
        assert phi(5, 3, 99, p) == pytest.approx(phi_reference(5, 3, 5, p))

    def test_matches_reference(self):
        for z in (1, 4, 9):
            for i in range(z + 1):
                for j in range(i, z + 1):
                    for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                        assert phi(z, i, j, p) == pytest.approx(
                            phi_reference(z, i, j, p), abs=1e-12
                        ), (z, i, j, p)

    def test_z_zero(self):
        # Zero nodes: exactly zero are available with probability 1.
        assert phi(0, 0, 0, 0.3) == pytest.approx(1.0)
        assert phi(0, 1, 1, 0.3) == pytest.approx(0.0)

    def test_negative_z_raises(self):
        with pytest.raises(ConfigurationError):
            phi(-1, 0, 0, 0.5)

    def test_p_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            phi(3, 0, 1, 1.5)
        with pytest.raises(ConfigurationError):
            phi(3, 0, 1, -0.1)

    def test_vectorized_over_p(self):
        p = np.linspace(0, 1, 23)
        out = phi(6, 2, 4, p)
        assert out.shape == p.shape
        for idx in (0, 7, 22):
            assert out[idx] == pytest.approx(phi_reference(6, 2, 4, p[idx]))

    def test_at_least(self):
        p = 0.7
        assert at_least(6, 4, p) == pytest.approx(phi_reference(6, 4, 6, p))

    def test_at_least_zero_threshold(self):
        assert at_least(6, 0, 0.01) == pytest.approx(1.0)

    def test_exactly(self):
        p = 0.4
        assert exactly(5, 2, p) == pytest.approx(math.comb(5, 2) * 0.4**2 * 0.6**3)

    def test_exactly_out_of_support(self):
        assert exactly(5, 6, 0.4) == pytest.approx(0.0)
        assert exactly(5, -1, 0.4) == pytest.approx(0.0)

    @settings(max_examples=60)
    @given(
        z=st.integers(0, 12),
        i=st.integers(-2, 13),
        j=st.integers(-2, 13),
        p=st.floats(0, 1),
    )
    def test_property_matches_reference(self, z, i, j, p):
        assert phi(z, i, j, p) == pytest.approx(phi_reference(z, i, j, p), abs=1e-9)

    @settings(max_examples=40)
    @given(z=st.integers(1, 10), i=st.integers(1, 10))
    def test_at_least_monotone_decreasing_in_threshold(self, z, i):
        p = 0.6
        if i <= z:
            assert at_least(z, i, p) <= at_least(z, i - 1, p) + 1e-12


class TestScipyOracle:
    """The numpy binomial against ``scipy.stats.binom`` (a test-only
    dependency): Φ and the pmf within 1e-13 absolute."""

    @pytest.mark.parametrize("z", [*range(17), 31, 64, 127, 200])
    def test_phi_matches_binom_for_every_range(self, z):
        # cdf[m + 1] = P(#available <= m), for m = -1..z
        cdf = np.vstack([stats.binom.cdf(m, z, ORACLE_PS) for m in range(-1, z + 1)])
        errors = {}
        for i in range(-2, z + 3):
            for j in range(i, z + 3):
                lo, hi = max(i, 0), min(j, z)
                want = cdf[hi + 1] - cdf[lo] if lo <= hi else 0.0
                errors[i, j] = np.max(np.abs(phi(z, i, j, ORACLE_PS) - want))
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-13, (z, worst, errors[worst])

    @settings(max_examples=60)
    @given(z=st.integers(0, 200), i=st.integers(-3, 203), j=st.integers(-3, 203))
    def test_phi_property_matches_binom(self, z, i, j):
        lo, hi = max(i, 0), min(j, z)
        want = 0.0
        if lo <= hi:
            want = stats.binom.cdf(hi, z, ORACLE_PS) - stats.binom.cdf(lo - 1, z, ORACLE_PS)
        np.testing.assert_allclose(phi(z, i, j, ORACLE_PS), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("z", [0, 1, 7, 30, 200])
    def test_exactly_matches_binom_pmf(self, z):
        for m in range(-1, z + 2):
            np.testing.assert_allclose(
                exactly(z, m, ORACLE_PS), stats.binom.pmf(m, z, ORACLE_PS),
                rtol=0, atol=1e-13,
            )


class TestBinomialEdges:
    @pytest.mark.parametrize("z", [1029, 1030, 2000, 5000])
    def test_large_z_is_finite(self, z):
        # 1029 is the last z whose C(z, m) all fit a float; past it the
        # terms are built in log space.
        table = at_least_table(z, ORACLE_PS)
        assert np.all(np.isfinite(table))
        assert np.all((table >= 0.0) & (table <= 1.0 + 1e-12))
        assert np.all(np.diff(table, axis=0) <= 1e-15)  # non-increasing in i
        np.testing.assert_allclose(table[0], 1.0, rtol=0, atol=1e-12)
        mid = phi(z, z // 3, 2 * z // 3, ORACLE_PS)
        assert np.all(np.isfinite(mid))
        assert np.all(np.isfinite(exactly(z, z // 2, ORACLE_PS)))

    @pytest.mark.parametrize("z", [0, 1, 5, 40])
    def test_empty_ranges_are_zero(self, z):
        for i in range(-2, z + 3):
            for j in range(-3, i):
                assert np.all(phi(z, i, j, ORACLE_PS) == 0.0), (z, i, j)
        assert np.all(phi(z, z + 1, z + 9, ORACLE_PS) == 0.0)
        assert np.all(phi(z, -9, -1, ORACLE_PS) == 0.0)

    def test_z_zero_is_one_only_at_zero(self):
        assert np.all(phi(0, 0, 0, ORACLE_PS) == 1.0)
        assert np.all(phi(0, -3, 4, ORACLE_PS) == 1.0)
        assert np.all(phi(0, 1, 1, ORACLE_PS) == 0.0)
        assert np.all(at_least_table(0, ORACLE_PS) == 1.0)

    @pytest.mark.parametrize("z", [3, 12, 1030])
    def test_certain_nodes_are_exact(self, z):
        # p = 0: none available; p = 1: all available — no 0 * log 0 nan.
        for i in range(z + 1):
            assert phi(z, 0, i, 0.0) == 1.0
            assert phi(z, i, z, 1.0) == 1.0
            assert phi(z, i + 1, z, 0.0) == 0.0
            assert phi(z, 0, i - 1, 1.0) == 0.0

    def test_scalar_p_keeps_array_shape(self):
        assert phi(4, 1, 2, 0.5).shape == ()
        assert exactly(4, 2, 0.5).shape == ()
        assert phi(4, 1, 2, np.full((2, 3), 0.5)).shape == (2, 3)


class TestAtLeastTable:
    @pytest.mark.parametrize("z", [*range(33), 64, 200, 1030])
    def test_rows_equal_at_least(self, z):
        table = at_least_table(z, ORACLE_PS)
        assert table.shape == (z + 1, len(ORACLE_PS))
        for i in range(z + 1):
            assert np.array_equal(table[i], at_least(z, i, ORACLE_PS)), (z, i)

    @pytest.mark.parametrize("p", [0.37, 0.5, 0.999])
    def test_scalar_rows_equal_at_least(self, p):
        for z in (4, 15, 29):
            table = at_least_table(z, p)
            assert table.shape == (z + 1,)
            assert all(table[i] == at_least(z, i, p) for i in range(z + 1))


def test_import_path_binds_the_module():
    # The package re-exports no name that shadows its ``phi`` submodule,
    # so the dotted import reaches the module and its private helpers.
    import inspect

    import repro.analysis.phi as module

    assert inspect.ismodule(module)
    assert module._pmf(2, np.array([0.5])).shape == (3, 1)
