"""Tests for the batched simulation paths: cached membership matrices,
multi-stripe protocol MC, and multi-stripe trace runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    PlacementSpec,
    ScenarioSpec,
    ShardingSpec,
    SystemSpec,
    WorkloadSpec,
    build_sharded_system,
    run_spec,
)
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape, default_shape_for_nbnode
from repro.sim import (
    ProtocolMonteCarlo,
    level_membership_matrix,
    mc_write_availability,
)


def quorum_for(n: int, k: int) -> TrapezoidQuorum:
    return TrapezoidQuorum.uniform(default_shape_for_nbnode(n - k + 1))


class TestMembershipCache:
    def test_same_quorum_returns_cached_object(self):
        q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2))
        m1 = level_membership_matrix(q)
        m2 = level_membership_matrix(q)
        assert m1 is m2  # cached, not rebuilt

    def test_equal_quorums_share_entry(self):
        q1 = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2))
        q2 = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2))
        assert level_membership_matrix(q1) is level_membership_matrix(q2)

    def test_matrix_read_only(self):
        q = TrapezoidQuorum.uniform(TrapezoidShape(1, 3, 1))
        with pytest.raises(ValueError):
            level_membership_matrix(q)[0, 0] = 7

    def test_matrix_contents(self):
        q = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2))
        m = level_membership_matrix(q)
        assert m.shape == (3, 15)
        assert m.sum() == 15  # every position on exactly one level
        assert np.array_equal(m.sum(axis=1), [3, 5, 7])

    def test_estimator_still_correct(self):
        q = TrapezoidQuorum.uniform(TrapezoidShape(0, 3, 0))
        # Single level of 3 with w0 = 2: availability at p=1 must be 1.
        est = mc_write_availability(q, 1.0, trials=100, rng=0)
        assert est.successes == 100


class TestMultiStripeProtocolMC:
    def test_stripes_multiply_trial_count(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=0, stripes=3)
        est = mc.read_availability(1.0, trials=10)
        assert est.trials == 30
        assert est.successes == 30

    def test_write_availability_all_up(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=1, stripes=2)
        est = mc.write_availability(1.0, trials=5)
        assert est.trials == 10 and est.successes == 10

    def test_rotated_layouts_distinct(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=2, stripes=3)
        layouts = {erc.layout.node_ids for erc in mc.engines()}
        assert len(layouts) == 3

    def test_single_stripe_backcompat(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=3)
        assert mc.engines() is mc.engines()
        assert len(mc.engines()) == 1
        fr = ProtocolMonteCarlo.from_spec(mc.spec.replace(protocol="trap-fr"), rng=3)
        assert len(fr.engines()) == 1
        est = fr.read_availability(0.9, trials=20)
        assert est.trials == 20

    def test_all_down_fails(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=4, stripes=2)
        est = mc.read_availability(0.0, trials=5)
        assert est.successes == 0

    def test_invalid_stripes(self):
        with pytest.raises(ConfigurationError):
            ProtocolMonteCarlo(6, 4, quorum_for(6, 4), stripes=0)

    def test_decode_plan_cache_used_on_decode_reads(self):
        mc = ProtocolMonteCarlo(6, 4, quorum_for(6, 4), rng=5)
        mc.code.clear_plan_cache()
        mc.cluster.fail(0)  # N_0 down -> reads of block 0 take the decode path
        first = mc.engines()[0].read_block(0)
        second = mc.engines()[0].read_block(0)
        assert first.success and second.success
        assert np.array_equal(first.value, second.value)
        info = mc.code.plan_cache_info()
        # Same survivor set twice: one solve, then cache hits.
        assert info["misses"] == 1 and info["hits"] >= 1


class TestMultiStripeTraceSim:
    def _spec(self, horizon: float, stripes: int, seed: int) -> SystemSpec:
        # (6, 4): Nbnode = 3, the single-level default shape; no failures
        return SystemSpec.trapezoid(
            6, 4, 0, 3, 0,
            cluster=ClusterSpec(num_nodes=6, failure="exponential", mtbf=1e9, mttr=1.0),
            placement=PlacementSpec(kind="rotating", stripes=stripes),
            workload=WorkloadSpec(block_length=8),
            scenario=ScenarioSpec(kind="trace", horizon=horizon, op_rate=1.0),
            seed=seed,
        )

    def test_volume_run_no_failures(self):
        spec = self._spec(50.0, stripes=3, seed=0)
        # the volume the trace kind builds: one shard per stripe
        system = build_sharded_system(spec.replace(sharding=ShardingSpec(shards=3)))
        assert system.num_blocks == 12
        assert system.num_shards == 3
        data = run_spec(spec).data
        assert data["consistency_violations"] == 0
        assert data["reads_attempted"] + data["writes_attempted"] > 0
        assert data["reads_succeeded"] == data["reads_attempted"]
        assert data["writes_succeeded"] == data["writes_attempted"]

    def test_single_stripe_default_unchanged(self):
        spec = self._spec(30.0, stripes=1, seed=1)
        system = build_sharded_system(spec.replace(sharding=ShardingSpec(shards=1)))
        assert system.num_blocks == 4
        assert system.num_shards == 1
        assert run_spec(spec).data["consistency_violations"] == 0

    def test_invalid_stripes_config(self):
        with pytest.raises(ConfigurationError):
            PlacementSpec(stripes=0)
