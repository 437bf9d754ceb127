"""Coverage for remaining API corners across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import counts_to_probability, exactly
from repro.cluster import Cluster, Network
from repro.core import ReadResult, WriteResult
from repro.errors import ConfigurationError
from repro.gf import GF256
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from tests.analysis.exact_reference import exact_availability, subset_counts


class TestExactEnumerationAPI:
    def test_subset_counts_majority(self):
        counts = subset_counts(3, lambda s: len(s) >= 2)
        assert counts.tolist() == [0, 0, 3, 1]

    def test_subset_counts_guard(self):
        with pytest.raises(ConfigurationError):
            subset_counts(25, lambda s: True)
        with pytest.raises(ConfigurationError):
            subset_counts(-1, lambda s: True)

    def test_counts_to_probability_matches_binomial(self):
        # All subsets satisfying: probability must be 1 for any p.
        counts = subset_counts(4, lambda s: True)
        p = np.linspace(0, 1, 5)
        np.testing.assert_allclose(counts_to_probability(counts, 4, p), 1.0)

    def test_counts_to_probability_single_subset(self):
        # Only the full set: probability p^n.
        counts = subset_counts(3, lambda s: len(s) == 3)
        np.testing.assert_allclose(
            counts_to_probability(counts, 3, 0.5), 0.125
        )

    def test_exact_availability_kind_guard(self):
        from repro.quorum import MajoritySystem

        with pytest.raises(ConfigurationError):
            exact_availability(MajoritySystem(3), 0.5, kind="both")


class TestNetworkDetails:
    def test_by_kind_counter(self):
        cluster = Cluster(2)
        cluster.rpc(0, "data_version", "k")
        cluster.rpc(0, "data_version", "k")
        cluster.rpc(1, "put_data", "k", np.zeros(4, dtype=np.uint8), 0)
        assert cluster.network.stats.by_kind["data_version"] == 2
        assert cluster.network.stats.by_kind["put_data"] == 1

    def test_failed_rpc_still_counts_messages(self):
        cluster = Cluster(2)
        cluster.fail(0)
        before = cluster.network.stats.messages
        with pytest.raises(Exception):
            cluster.rpc(0, "data_version", "k")
        assert cluster.network.stats.messages == before + 2

    def test_is_reachable(self):
        net = Network()
        cluster = Cluster(2, network=net)
        assert net.is_reachable(cluster.node(0))
        cluster.fail(0)
        assert not net.is_reachable(cluster.node(0))
        cluster.recover(0)
        net.partition([0])
        assert not net.is_reachable(cluster.node(0))


class TestResultTypes:
    def test_write_result_truthiness(self):
        assert WriteResult(success=True)
        assert not WriteResult(success=False)

    def test_read_result_truthiness(self):
        assert ReadResult(success=True)
        assert not ReadResult(success=False)

    def test_defaults(self):
        r = ReadResult(success=False)
        assert r.value is None and r.version == -1 and r.case is None
        w = WriteResult(success=False)
        assert w.acks_per_level == [] and w.failed_level is None


class TestFieldCorners:
    def test_random_elements_nonzero(self):
        rng = np.random.default_rng(0)
        vals = GF256.random_elements(rng, 500, nonzero=True)
        assert not (vals == 0).any()

    def test_pow_vectorized(self):
        vec = np.array([0, 1, 2, 3], dtype=np.uint8)
        out = GF256.pow(vec, 2)
        assert out.tolist() == [0, 1, 4, 5]  # 3^2 = 5 over 0x11D

    def test_exactly_full_support_sums_to_one(self):
        total = sum(float(exactly(6, m, 0.37)) for m in range(7))
        assert total == pytest.approx(1.0)


class TestVolumeSpans:
    def test_write_span_reports_partial_failure(self):
        from repro.storage import VirtualDisk

        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(cluster, 12, 32, 9, 6, quorum)
        disk.format()
        cluster.fail_many([6, 7])  # writes impossible (w_1 = 2 of 1 alive)
        assert disk.write_span(0, b"x" * 64) is False

    def test_read_span_none_on_failure(self):
        from repro.storage import VirtualDisk

        cluster = Cluster(9)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)
        disk = VirtualDisk(cluster, 12, 32, 9, 6, quorum)
        disk.format()
        cluster.fail_many([1, 6, 7, 8])
        assert disk.read_span(0, 3) is None


class TestGeneratorNegativeSampling:
    def test_sampled_verify_detects_planted_defect(self):
        from repro.erasure import build_generator, verify_mds

        g = build_generator(GF256, 20, 10)
        g[15] = g[16]  # planted duplicate row
        rng = np.random.default_rng(0)
        assert not verify_mds(
            GF256, g, exhaustive_limit=0, samples=4000, rng=rng
        )


class TestFigureCustomParams:
    def test_fig2_custom_grid(self):
        from repro.bench import fig2_series

        series = fig2_series(np.array([0.25, 0.75]))
        assert series.x.tolist() == [0.25, 0.75]

    def test_fig3_custom_w(self):
        from repro.bench import fig3_series

        series = fig3_series(w=5)
        assert "w=5" in series.name
