"""Tests for the storage model (eqs. 14-15, Figure 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    storage_erc,
    storage_fr,
    storage_saving,
    storage_series,
    stripe_storage_erc,
    stripe_storage_fr,
)
from repro.errors import ConfigurationError


class TestPerBlockStorage:
    def test_eq14_fr(self):
        assert storage_fr(15, 8) == 8.0  # n - k + 1, the paper's k=8 example

    def test_eq15_erc(self):
        assert storage_erc(15, 8) == pytest.approx(15 / 8)
        assert storage_erc(15, 14) == pytest.approx(15 / 14)  # -> 1 as k -> n

    def test_blocksize_scaling(self):
        assert storage_fr(9, 6, blocksize=4096) == 4 * 4096
        assert storage_erc(9, 6, blocksize=4096) == pytest.approx(1.5 * 4096)

    def test_replication_limit(self):
        # k = 1: the code degenerates to n-way replication; both match n.
        assert storage_fr(5, 1) == 5
        assert storage_erc(5, 1) == 5

    def test_no_redundancy_limit(self):
        # k = n: single copy in both schemes.
        assert storage_fr(6, 6) == 1
        assert storage_erc(6, 6) == 1

    def test_erc_never_exceeds_fr(self):
        for n in range(1, 20):
            for k in range(1, n + 1):
                assert storage_erc(n, k) <= storage_fr(n, k) + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            storage_fr(3, 4)
        with pytest.raises(ConfigurationError):
            storage_erc(3, 0)


class TestSaving:
    def test_saving_k8_n15(self):
        # 1 - (15/8)/8 ~ 0.766: ERC saves ~77% (the text's "50%" example is
        # inconsistent with eq. 15; see EXPERIMENTS.md).
        assert storage_saving(15, 8) == pytest.approx(1 - (15 / 8) / 8)

    def test_saving_zero_when_no_redundancy(self):
        assert storage_saving(6, 6) == pytest.approx(0.0)

    def test_saving_nonnegative(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                assert storage_saving(n, k) >= -1e-12


class TestStripeStorage:
    def test_fr_total(self):
        assert stripe_storage_fr(15, 8) == 8 * 8

    def test_erc_total_is_n(self):
        assert stripe_storage_erc(15, 8) == 15

    def test_consistency_with_per_block(self):
        for n, k in [(9, 6), (15, 8), (12, 4)]:
            assert stripe_storage_fr(n, k) == pytest.approx(k * storage_fr(n, k))
            assert stripe_storage_erc(n, k) == pytest.approx(k * storage_erc(n, k))


class TestSeries:
    def test_fig5_series(self):
        ks, erc, fr = storage_series(15, range(1, 15))
        assert ks.shape == erc.shape == fr.shape == (14,)
        # FR decreases linearly in k; ERC decreases hyperbolically.
        assert np.all(np.diff(fr) == -1)
        assert np.all(np.diff(erc) < 0)
        assert np.all(erc <= fr + 1e-12)

    def test_fig5_anchor_values(self):
        ks, erc, fr = storage_series(15, [8])
        assert fr[0] == 8.0
        assert erc[0] == pytest.approx(1.875)
