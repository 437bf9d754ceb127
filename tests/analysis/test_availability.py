"""Tests for the closed-form availability formulas (eqs. 8-13)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    erc_betas_lambdas,
    exact_read_erc,
    read_availability_erc,
    read_availability_erc_terms,
    read_availability_fr,
    validate_erc_geometry,
    write_availability,
)
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape, TrapezoidSystem
from tests.analysis.exact_reference import exact_availability

P = np.linspace(0.0, 1.0, 21)

#: the paper's running configuration: trapezoid 2l+3 (Fig. 1),
#: Nbnode = 15 => (n, k) with n - k + 1 = 15, e.g. (22, 8).
SHAPE15 = TrapezoidShape(2, 3, 2)


def quorum15(w: int = 3) -> TrapezoidQuorum:
    return TrapezoidQuorum.uniform(SHAPE15, w)


class TestValidateGeometry:
    def test_accepts_matching(self):
        validate_erc_geometry(quorum15(), 22, 8)

    def test_rejects_mismatch(self):
        with pytest.raises(ConfigurationError):
            validate_erc_geometry(quorum15(), 15, 8)

    def test_rejects_bad_nk(self):
        with pytest.raises(ConfigurationError):
            validate_erc_geometry(quorum15(), 8, 22)


class TestWriteAvailability:
    def test_matches_exact_enumeration(self):
        for w in (1, 3, 5):
            q = quorum15(w)
            closed = write_availability(q, P)
            exact = exact_availability(TrapezoidSystem(q), P, kind="write")
            np.testing.assert_allclose(closed, exact, atol=1e-10)

    def test_boundaries(self):
        q = quorum15(3)
        assert write_availability(q, 0.0) == pytest.approx(0.0)
        assert write_availability(q, 1.0) == pytest.approx(1.0)

    def test_monotone_in_p(self):
        vals = write_availability(quorum15(3), np.linspace(0, 1, 50))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_decreasing_in_w(self):
        # Larger write quorums are harder to assemble.
        p = 0.7
        vals = [float(write_availability(quorum15(w), p)) for w in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_single_level_reduces_to_majority(self):
        from repro.quorum import MajoritySystem

        q = TrapezoidQuorum.uniform(TrapezoidShape(0, 7, 0))
        np.testing.assert_allclose(
            write_availability(q, P), MajoritySystem(7).write_availability(P), atol=1e-12
        )

    def test_flat_rectangle(self):
        q = TrapezoidQuorum.uniform(TrapezoidShape(0, 3, 1), 2)
        closed = write_availability(q, P)
        exact = exact_availability(TrapezoidSystem(q), P, kind="write")
        np.testing.assert_allclose(closed, exact, atol=1e-12)


class TestReadAvailabilityFR:
    def test_matches_exact_enumeration(self):
        for w in (1, 3, 5):
            q = quorum15(w)
            closed = read_availability_fr(q, P)
            exact = exact_availability(TrapezoidSystem(q), P, kind="read")
            np.testing.assert_allclose(closed, exact, atol=1e-10)

    def test_boundaries(self):
        q = quorum15(3)
        assert read_availability_fr(q, 0.0) == pytest.approx(0.0)
        assert read_availability_fr(q, 1.0) == pytest.approx(1.0)

    def test_monotone_in_p(self):
        vals = read_availability_fr(quorum15(3), np.linspace(0, 1, 50))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_increasing_in_w(self):
        # Larger w means smaller read thresholds r_l, so reads get easier.
        p = 0.5
        vals = [float(read_availability_fr(quorum15(w), p)) for w in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBetasLambdas:
    def test_paper_eq11_eq12(self):
        q = quorum15(3)  # s = (3,5,7), w = (2,3,3), r = (2,3,5)
        betas, lambdas = erc_betas_lambdas(q)
        assert betas == [0, 2, 4]
        assert lambdas == [2, 5, 7]

    def test_beta0_clamped_at_zero(self):
        # b = 1: w_0 = 1, r_0 = 1 -> beta_0 = max(0, -1) = 0.
        q = TrapezoidQuorum.uniform(TrapezoidShape(1, 1, 1), 1)
        betas, _ = erc_betas_lambdas(q)
        assert betas[0] == 0


class TestReadAvailabilityERC:
    def test_terms_sum(self):
        q = quorum15(3)
        p1, p2 = read_availability_erc_terms(q, 22, 8, P)
        np.testing.assert_allclose(p1 + p2, read_availability_erc(q, 22, 8, P))

    def test_boundaries(self):
        q = quorum15(3)
        assert read_availability_erc(q, 22, 8, 0.0) == pytest.approx(0.0)
        assert read_availability_erc(q, 22, 8, 1.0) == pytest.approx(1.0)

    def test_within_unit_interval(self):
        q = quorum15(3)
        vals = read_availability_erc(q, 22, 8, np.linspace(0, 1, 101))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-9)

    def test_monotone_in_p(self):
        vals = read_availability_erc(quorum15(3), 22, 8, np.linspace(0, 1, 60))
        assert np.all(np.diff(vals) >= -1e-9)

    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            read_availability_erc(quorum15(3), 15, 8, 0.5)

    def test_fig3_anchor_values(self):
        # Calibrated Fig. 3 configuration: n=15, k=8 => Nbnode = 8 with
        # shape (a=2, b=3, h=1) and w=3. The paper quotes FR ~ 75% and
        # ERC ~ 63% at p = 0.5; the formulas give exactly 0.7500 / 0.6351.
        q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)
        assert read_availability_fr(q, 0.5) == pytest.approx(0.75, abs=1e-9)
        assert read_availability_erc(q, 15, 8, 0.5) == pytest.approx(0.635, abs=1e-3)

    def test_erc_below_fr_at_low_p(self):
        # Fig. 3: ERC read availability is below FR at small p...
        q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)
        p_low = np.linspace(0.2, 0.6, 9)
        erc = read_availability_erc(q, 15, 8, p_low)
        fr = read_availability_fr(q, p_low)
        assert np.all(erc <= fr + 1e-9)

    def test_erc_matches_fr_at_high_p(self):
        # ... and indistinguishable for p >= 0.8 (paper's observation).
        q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)
        p_high = np.linspace(0.8, 1.0, 9)
        erc = read_availability_erc(q, 15, 8, p_high)
        fr = read_availability_fr(q, p_high)
        np.testing.assert_allclose(erc, fr, atol=0.005)

    def test_exact_erc_never_exceeds_fr(self):
        # The true Algorithm-2 predicate is the FR predicate AND a decode
        # condition, so exact ERC read availability can never exceed FR —
        # unlike the paper's approximation (see EXPERIMENTS.md).
        for w in (1, 3, 5):
            q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), w)
            exact = exact_read_erc(q, 15, 8, P)
            fr = read_availability_fr(q, P)
            assert np.all(exact <= fr + 1e-9)

    def test_fig4_more_redundancy_helps(self):
        # Fig. 4: larger n - k (bigger trapezoid) => better read availability.
        p = np.linspace(0.3, 0.9, 7)
        k = 8
        prev = None
        for nbnode in (5, 10, 15):
            from repro.quorum import default_shape_for_nbnode

            shape = default_shape_for_nbnode(nbnode)
            q = TrapezoidQuorum.uniform(shape)
            n = nbnode + k - 1
            vals = read_availability_erc(q, n, k, p)
            if prev is not None:
                assert np.all(vals >= prev - 0.02)
            prev = vals


class TestPaperFormulaVsExact:
    """Quantify eq. 13 against the exact Algorithm-2 predicate."""

    def test_paper_upper_bounds_exact_for_standard_shapes(self):
        # With r_0 >= 2 the P1 term is exact and P2 only over-counts
        # (it ignores the version-check requirement), so eq. 13 must be an
        # upper bound on the true availability.
        q = quorum15(3)
        paper = read_availability_erc(q, 22, 8, P)
        exact = exact_read_erc(q, 22, 8, P)
        assert np.all(paper >= exact - 1e-9)

    def test_gap_small_at_high_p(self):
        q = quorum15(3)
        p_high = np.linspace(0.8, 1.0, 11)
        gap = read_availability_erc(q, 22, 8, p_high) - exact_read_erc(q, 22, 8, p_high)
        assert np.all(np.abs(gap) < 0.02)

    def test_exact_boundaries(self):
        q = quorum15(3)
        assert exact_read_erc(q, 22, 8, 0.0) == pytest.approx(0.0)
        assert exact_read_erc(q, 22, 8, 1.0) == pytest.approx(1.0)

    def test_exact_monotone(self):
        vals = exact_read_erc(quorum15(3), 22, 8, np.linspace(0, 1, 40))
        assert np.all(np.diff(vals) >= -1e-9)

    def test_small_config_brute_force(self):
        """Cross-check exact_read_erc against a literal whole-universe
        enumeration for a small (n, k)."""
        from itertools import product

        shape = TrapezoidShape(1, 2, 1)  # levels (2, 3): Nbnode = 5
        q = TrapezoidQuorum.uniform(shape, 2)
        n, k = 8, 4  # n - k + 1 = 5
        # positions: trapezoid = [N_i, P1..P4]; others = 3 data nodes
        r = [q.r(l) for l in shape.levels]
        p_val = 0.55
        total = 0.0
        for bits in product([0, 1], repeat=n):
            # bits: 0 = N_i, 1..4 = parity, 5..7 = other data nodes
            trap = bits[:5]
            level_counts = [trap[0] + trap[1], trap[2] + trap[3] + trap[4]]
            ok = any(c >= r[l] for l, c in enumerate(level_counts))
            if ok:
                if trap[0]:
                    success = True
                else:
                    success = (sum(bits) - trap[0]) >= k
            else:
                success = False
            if success:
                na = sum(bits)
                total += p_val**na * (1 - p_val) ** (n - na)
        assert exact_read_erc(q, n, k, p_val) == pytest.approx(total, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        w=st.integers(1, 5),
        p=st.floats(0.05, 0.95),
    )
    def test_paper_bound_property(self, w, p):
        q = quorum15(w)
        paper = float(read_availability_erc(q, 22, 8, p))
        exact = float(exact_read_erc(q, 22, 8, p))
        assert paper >= exact - 1e-9
        assert 0.0 <= exact <= 1.0
