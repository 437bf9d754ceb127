"""Tests for rack topologies and correlated failure sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import RackTopology, rack_aware_assignment, make_rng
from repro.errors import ConfigurationError


class TestTopology:
    def test_uniform_round_robin(self):
        topo = RackTopology.uniform(9, 3)
        assert topo.racks == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
        assert topo.rack_of(4) == 1

    def test_explicit_racks(self):
        topo = RackTopology([[0, 1], [2, 3, 4]])
        assert topo.num_nodes == 5
        assert topo.rack_of(2) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RackTopology([])
        with pytest.raises(ConfigurationError):
            RackTopology([[0, 1], []])
        with pytest.raises(ConfigurationError):
            RackTopology([[0, 1], [1, 2]])  # duplicate
        with pytest.raises(ConfigurationError):
            RackTopology([[0, 2]])  # gap
        with pytest.raises(ConfigurationError):
            RackTopology.uniform(3, 4)
        with pytest.raises(ConfigurationError):
            RackTopology.uniform(9, 3).rack_of(9)


class TestMarginals:
    def test_marginal_p(self):
        topo = RackTopology.uniform(6, 2)
        assert topo.marginal_p(0.1, 0.2) == pytest.approx(0.9 * 0.8)

    def test_node_failure_for_marginal_roundtrip(self):
        topo = RackTopology.uniform(6, 2)
        node_q = topo.node_failure_for_marginal(0.1, 0.72)
        assert topo.marginal_p(0.1, node_q) == pytest.approx(0.72)

    def test_unreachable_marginal(self):
        topo = RackTopology.uniform(6, 2)
        with pytest.raises(ConfigurationError):
            topo.node_failure_for_marginal(0.5, 0.6)

    def test_prob_validation(self):
        topo = RackTopology.uniform(6, 2)
        with pytest.raises(ConfigurationError):
            topo.sample_alive(10, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            topo.sample_alive(10, 0.1, 1.5)
        with pytest.raises(ConfigurationError):
            topo.sample_alive(0, 0.1, 0.1)


class TestSampling:
    def test_shape_and_dtype(self):
        topo = RackTopology.uniform(9, 3)
        alive = topo.sample_alive(100, 0.1, 0.1, rng=make_rng(0))
        assert alive.shape == (100, 9)
        assert alive.dtype == bool

    def test_marginal_matches(self):
        topo = RackTopology.uniform(12, 4)
        alive = topo.sample_alive(40_000, 0.15, 0.1, rng=make_rng(1))
        assert abs(alive.mean() - topo.marginal_p(0.15, 0.1)) < 0.01

    def test_rack_members_fail_together(self):
        topo = RackTopology.uniform(9, 3)
        alive = topo.sample_alive(20_000, 0.3, 0.0, rng=make_rng(2))
        # With node_q = 0 nodes only fail with their whole rack: members
        # of rack 0 (nodes 0, 3, 6) must be perfectly correlated.
        assert np.array_equal(alive[:, 0], alive[:, 3])
        assert np.array_equal(alive[:, 0], alive[:, 6])
        # Different racks are independent: correlation near zero.
        corr = np.corrcoef(alive[:, 0], alive[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_zero_rack_q_is_independent_model(self):
        topo = RackTopology.uniform(8, 2)
        alive = topo.sample_alive(20_000, 0.0, 0.25, rng=make_rng(3))
        assert abs(alive.mean() - 0.75) < 0.01
        corr = np.corrcoef(alive[:, 0], alive[:, 2])[0, 1]  # same rack
        assert abs(corr) < 0.05


class TestCorrelationHurtsAvailability:
    def test_write_availability_drops_under_rack_failures(self):
        """At equal marginal p, rack-correlated failures reduce quorum
        availability versus the paper's independence assumption."""
        from repro.quorum import TrapezoidQuorum, TrapezoidShape
        from repro.sim import level_membership_matrix

        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)
        p = 0.85
        rack_q = 0.10
        topo = RackTopology.uniform(8, 2)
        node_q = topo.node_failure_for_marginal(rack_q, p)
        membership = level_membership_matrix(quorum).T

        def write_rate(alive: np.ndarray) -> float:
            counts = alive @ membership
            return float(np.all(counts >= np.asarray(quorum.w), axis=1).mean())

        correlated = topo.sample_alive(60_000, rack_q, node_q, rng=make_rng(4))
        independent = topo.sample_alive(60_000, 0.0, 1.0 - p, rng=make_rng(5))
        assert abs(correlated.mean() - independent.mean()) < 0.01  # same marginal
        assert write_rate(correlated) < write_rate(independent) - 0.02

    def test_fig3_stripe_under_rack_failures(self):
        """Block 0 of the calibrated (15, 8) stripe at marginal p = 0.85:
        reads always lose under rack correlation, writes lose only when
        the racks are large."""
        from repro.analysis import write_availability
        from repro.bench import FIG_K, FIG_N, fig_quorum
        from repro.sim import level_membership_matrix

        quorum = fig_quorum(3)
        group = [0] + list(range(FIG_K, FIG_N))  # N_0, then the n - k parities
        membership = level_membership_matrix(quorum).T

        def measure(rack_q: float, racks: int) -> dict[str, float]:
            topo = RackTopology.uniform(FIG_N, racks)
            node_q = topo.node_failure_for_marginal(rack_q, 0.85)
            alive = topo.sample_alive(80_000, rack_q, node_q, rng=make_rng(17))
            counts = alive[:, group] @ membership
            check_ok = np.any(counts >= np.asarray(quorum.read_thresholds), axis=1)
            decodable = alive[:, 0] | (alive[:, 1:].sum(axis=1) >= FIG_K)
            return {
                "marginal_p": float(alive.mean()),
                "write": float(np.all(counts >= np.asarray(quorum.w), axis=1).mean()),
                "read": float((check_ok & decodable).mean()),
            }

        base = measure(0.0, 3)
        assert abs(base["write"] - float(write_availability(quorum, 0.85))) < 0.01
        table = {(q, r): measure(q, r) for q in (0.05, 0.10) for r in (3, 5)}
        for scenario, row in [("independent", base), *table.items()]:
            assert abs(row["marginal_p"] - 0.85) < 0.01, scenario
        for scenario, row in table.items():
            assert row["read"] < base["read"] - 0.003, scenario
        # Few large racks (5 nodes each) hurt writes; many small racks
        # concentrate the failure mass into fewer trials.
        assert table[0.10, 3]["write"] < base["write"] - 0.02
        assert table[0.10, 5]["write"] > base["write"] - 0.01


class TestRackAwareAssignment:
    def test_spreads_across_racks(self):
        topo = RackTopology.uniform(9, 3)
        order = rack_aware_assignment(topo, 6)
        assert len(set(order)) == 6
        racks_used = [topo.rack_of(n) for n in order[:3]]
        assert sorted(racks_used) == [0, 1, 2]

    def test_full_assignment(self):
        topo = RackTopology.uniform(7, 2)
        order = rack_aware_assignment(topo, 7)
        assert sorted(order) == list(range(7))

    def test_validation(self):
        topo = RackTopology.uniform(6, 2)
        with pytest.raises(ConfigurationError):
            rack_aware_assignment(topo, 7)
        with pytest.raises(ConfigurationError):
            rack_aware_assignment(topo, 0)
