"""Tests for the TRAP-ERC protocol engine (Algorithms 1-2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import ReadCase, TrapErcProtocol
from repro.erasure import MDSCode, StripeLayout, update_io_cost
from repro.errors import ConfigurationError
from repro.gf import GF2m
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.runtime import WRITE_ROUND, Round
from repro.runtime.verify import BlockVerifier, MetadataQuorum

L = 16  # block length used throughout


def make_protocol(
    n: int = 9,
    k: int = 6,
    shape: TrapezoidShape | None = None,
    w: int | None = None,
    stripe_id: str = "s0",
):
    """(9, 6) stripe: trapezoid of Nbnode = 4 nodes, levels (1, 3)."""
    if shape is None:
        shape = TrapezoidShape(2, 1, 1)  # levels (1, 3): Nbnode = 4 = n - k + 1
    quorum = TrapezoidQuorum.uniform(shape, w)
    cluster = Cluster(n)
    code = MDSCode(n, k)
    proto = TrapErcProtocol(cluster, code, quorum, stripe_id=stripe_id)
    return cluster, code, proto


def rand_data(k: int = 6, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, L), dtype=np.int64).astype(np.uint8)


def rand_block(seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=L, dtype=np.int64).astype(np.uint8)


def step(proto, plan, hook=lambda round_, last: round_):
    """Run ``plan`` on the instant path one round at a time.

    ``hook(round_, last_outcome)`` runs before each round and returns the
    round to run in its place. Returns ``(result, rounds run)``.
    """
    rounds, outcome = [], None
    while True:
        try:
            round_ = hook(plan.send(outcome), outcome)
        except StopIteration as stop:
            return stop.value, rounds
        rounds.append(round_)
        outcome = proto.coordinator.run_round(round_)


class TestConstruction:
    def test_geometry_mismatch_rejected(self):
        cluster = Cluster(9)
        code = MDSCode(9, 6)
        bad = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2))  # 15 != 4
        with pytest.raises(ConfigurationError):
            TrapErcProtocol(cluster, code, bad)

    def test_layout_mismatch_rejected(self):
        cluster = Cluster(9)
        code = MDSCode(9, 6)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(1, 1, 1))
        with pytest.raises(ConfigurationError):
            TrapErcProtocol(cluster, code, quorum, layout=StripeLayout(8, 5))

    def test_cluster_must_contain_layout_nodes(self):
        cluster = Cluster(5)  # too small for n = 9
        code = MDSCode(9, 6)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(1, 1, 1))
        with pytest.raises(ConfigurationError):
            TrapErcProtocol(cluster, code, quorum)

    def test_trapezoid_nodes_start_with_ni(self):
        _, _, proto = make_protocol()
        for i in range(6):
            group = proto.placement.group_nodes(i)
            assert group[0] == i
            # the parity order rotates with the block
            assert group[1:] == [6 + (i + p) % 3 for p in range(3)]


class TestInitialize:
    def test_roundtrip_all_blocks(self):
        _, _, proto = make_protocol()
        data = rand_data()
        proto.initialize(data)
        for i in range(6):
            result = proto.read_block(i)
            assert result.success
            assert result.version == 0
            assert result.case == ReadCase.DIRECT
            assert np.array_equal(result.value, data[i])

    def test_parity_records_match_encode(self):
        cluster, code, proto = make_protocol()
        data = rand_data(seed=2)
        proto.initialize(data)
        stripe = code.encode(data)
        for j in range(6, 9):
            payload, vv = cluster.node(j).read_parity(proto.parity_key())
            assert np.array_equal(payload, stripe[j])
            assert vv.tolist() == [0] * 6


class TestWrite:
    def test_healthy_write_and_read(self):
        _, _, proto = make_protocol()
        data = rand_data(seed=3)
        proto.initialize(data)
        new = rand_block(seed=4)
        result = proto.write_block(2, new)
        assert result.success
        assert result.version == 1
        assert result.acks_per_level == [1, 3]
        r = proto.read_block(2)
        assert r.success and r.version == 1
        assert np.array_equal(r.value, new)

    def test_sequential_versions(self):
        _, _, proto = make_protocol()
        proto.initialize(rand_data(seed=5))
        for expected_version in (1, 2, 3):
            res = proto.write_block(0, rand_block(seed=10 + expected_version))
            assert res.success
            assert res.version == expected_version

    def test_write_updates_parity_consistently(self):
        cluster, code, proto = make_protocol()
        data = rand_data(seed=6)
        proto.initialize(data)
        new = rand_block(seed=7)
        proto.write_block(4, new)
        data[4] = new
        stripe = code.encode(data)
        for j in range(6, 9):
            payload, vv = cluster.node(j).read_parity(proto.parity_key())
            assert np.array_equal(payload, stripe[j])
            assert vv.tolist() == [0, 0, 0, 0, 1, 0]

    def test_write_fails_when_level_quorum_missed(self):
        cluster, _, proto = make_protocol()
        proto.initialize(rand_data(seed=8))
        # Level 0 of block 0's trapezoid is {node 0}; failing it blocks writes.
        cluster.fail(0)
        result = proto.write_block(0, rand_block(seed=9))
        assert not result.success
        assert result.failed_level == 0
        assert "w_l" in result.reason

    def test_write_succeeds_with_tolerable_failures(self):
        cluster, _, proto = make_protocol(w=1)
        proto.initialize(rand_data(seed=10))
        # w = (1, 1): one parity at level 1 suffices; kill two of three.
        cluster.fail(7)
        cluster.fail(8)
        result = proto.write_block(1, rand_block(seed=11))
        assert result.success
        assert result.acks_per_level == [1, 1]

    def test_write_fail_reports_missing_read(self):
        cluster, _, proto = make_protocol()
        proto.initialize(rand_data(seed=12))
        # Kill enough nodes that even the version check fails.
        cluster.fail_many([0, 6, 7, 8])
        result = proto.write_block(0, rand_block(seed=13))
        assert not result.success
        assert "read-before-write" in result.reason

    def test_index_validation(self):
        _, _, proto = make_protocol()
        with pytest.raises(ConfigurationError):
            proto.write_block(6, rand_block())

    def test_shape_validation(self):
        _, _, proto = make_protocol()
        proto.initialize(rand_data(seed=14))
        with pytest.raises(ConfigurationError):
            proto.write_block(0, np.zeros(L + 1, dtype=np.uint8))

    def test_message_accounting(self):
        _, _, proto = make_protocol()
        proto.initialize(rand_data(seed=15))
        result = proto.write_block(0, rand_block(seed=16))
        # Algorithm 1: an embedded read plus one RPC per group node, and
        # the group has n - k + 1 = 4 nodes (update_io_cost's writes).
        assert result.success
        assert result.messages >= 2 * update_io_cost(9, 6)["writes"]


class TestReadDirect:
    def test_direct_read_prefers_ni(self):
        _, _, proto = make_protocol()
        data = rand_data(seed=17)
        proto.initialize(data)
        r = proto.read_block(3)
        assert r.case == ReadCase.DIRECT
        assert r.check_level == 0

    def test_read_value_is_read_only_and_outlives_later_writes(self):
        # Direct reads hand out N_i's stored buffer (no copy); the decode
        # case seals its result so callers see one contract.
        cluster, _, proto = make_protocol()
        data = rand_data(seed=50)
        proto.initialize(data)
        direct = proto.read_block(1)
        assert direct.case == ReadCase.DIRECT and not direct.value.flags.writeable
        new = rand_block(seed=51)
        assert proto.write_block(1, new).success
        assert np.array_equal(direct.value, data[1])  # the earlier reply kept its bytes
        cluster.fail(1)
        decoded = proto.read_block(1)
        assert decoded.case == ReadCase.DECODE and not decoded.value.flags.writeable
        assert np.array_equal(decoded.value, new)
        with pytest.raises(ValueError):
            decoded.value[0] ^= 1

    def test_read_fails_without_check_quorum(self):
        cluster, _, proto = make_protocol()
        proto.initialize(rand_data(seed=18))
        # Block 0 trapezoid: level 0 = {0}, level 1 = {6, 7, 8}.
        # r = (1, 1) for w=(1,3)... default w: s_1=3 -> w=(1,2), r=(1,2).
        cluster.fail_many([0, 6, 7, 8])
        r = proto.read_block(0)
        assert not r.success
        assert "version-check" in r.reason

    def test_read_index_validation(self):
        _, _, proto = make_protocol()
        with pytest.raises(ConfigurationError):
            proto.read_block(-1)


class TestCaseOneIsOneRound:
    """Case 1 takes N_i's bytes and version from one ``read_data`` reply:
    its level-0 poll, or one more round when the poll completed first."""

    def test_healthy_read_is_the_level_zero_poll(self):
        _, _, proto = make_protocol()
        data = rand_data(seed=59)
        proto.initialize(data)
        result, rounds = step(proto, proto.read_plan(2))
        assert rounds == [proto._polls[2][0]]
        assert result.case == ReadCase.DIRECT and result.check_level == 0
        assert np.array_equal(result.value, data[2])

    def test_down_ni_goes_from_the_poll_to_the_decode_gathers(self):
        cluster, _, proto = make_protocol()
        data = rand_data(seed=60)
        proto.initialize(data)
        cluster.fail(2)
        result, rounds = step(proto, proto.read_plan(2))
        # level 0 = {N_2} fails its check; level 1 completes it; N_2's
        # failed poll reply stands for Case 1, so no direct round runs
        assert rounds == [*proto._polls[2], *proto._gathers[2]]
        assert result.case == ReadCase.DECODE and result.check_level == 1
        assert np.array_equal(result.value, data[2])

    def test_write_between_check_and_case_one_cannot_mislabel_bytes(self):
        # levels (3, 3), r_0 = 2: level 0's check can complete on two
        # parity replies while N_i's is still in flight
        n, k = 11, 6
        cluster = Cluster(n)
        proto = TrapErcProtocol(
            cluster, MDSCode(n, k), TrapezoidQuorum.uniform(TrapezoidShape(0, 3, 1))
        )
        data = rand_data(seed=52)
        proto.initialize(data)
        new = rand_block(seed=53)
        ni, upper = proto.placement.levels[1][0][0], proto.placement.levels[1][1]

        def hook(round_, last):
            if round_ is proto._polls[1][0]:
                # the level-0 poll completes before N_i answers, as it
                # may on the event path
                return Round(
                    [r for r in round_.requests if r.node_id != ni],
                    need=round_.need, accept=round_.accept, kind=round_.kind,
                )
            if round_ is proto._direct[1]:
                # the check saw version 0; block 1 moves to version 1 now,
                # with one upper parity down so it keeps a version-0 row
                cluster.fail(upper[0])
                assert proto.write_block(1, new).success
                cluster.recover(upper[0])
            return round_

        result, rounds = step(proto, proto.read_plan(1), hook)
        assert proto._direct[1] in rounds
        # the bytes are the ones stored at the version the read reports
        assert result.success and result.version == 0
        assert np.array_equal(result.value, data[1])
        assert result.case == ReadCase.DECODE

    def test_verified_read_of_an_honest_stale_ni_decodes_uncounted(self):
        n, k = 11, 6
        meta = tuple(range(n, n + 4))
        cluster = Cluster(n + len(meta))
        verifier = BlockVerifier(cluster, MetadataQuorum(meta, 3, 3, f=1), signed=True)
        # levels (3, 3): N_i shares level 0 with two parities, so a write
        # can be acknowledged without it
        proto = TrapErcProtocol(
            cluster, MDSCode(n, k), TrapezoidQuorum.uniform(TrapezoidShape(0, 3, 1)),
            verifier=verifier,
        )
        proto.initialize(rand_data(seed=54))
        new = rand_block(seed=55)
        cluster.fail(2)
        assert proto.write_block(2, new).success
        cluster.recover(2)
        result = proto.read_block(2)
        assert result.success and result.version == 1
        assert result.case == ReadCase.DECODE
        assert np.array_equal(result.value, new)
        assert verifier.counters()["version_mismatches"] == 0
        assert verifier.counters()["digest_mismatches"] == 0


class TestVersionReuse:
    """One version must name one write's bytes (the fail-stop write
    does not guarantee it yet)."""

    @pytest.mark.xfail(
        strict=True, reason="item 1(b): versions are not yet tied to one writer"
    )
    def test_a_failed_write_and_a_later_one_never_share_a_version(self):
        # levels (3, 3), w = (2, 2), r = (2, 2)
        n, k = 11, 6
        cluster = Cluster(n)
        proto = TrapErcProtocol(
            cluster, MDSCode(n, k), TrapezoidQuorum.uniform(TrapezoidShape(0, 3, 1))
        )
        proto.initialize(rand_data(seed=56))
        (ni, pa, pb), upper = proto.placement.levels[0]
        x1, x2 = rand_block(seed=57), rand_block(seed=58)

        # W1: its check sees everyone; then pb and level 1 go down, so
        # level 0 applies x1 on N_i and pa, and level 1 misses it.
        def hook(round_, last):
            if round_.kind == WRITE_ROUND and last.round.kind != WRITE_ROUND:
                cluster.fail_many([pb, *upper])
            return round_

        w1, _ = step(proto, proto.write_plan(0, x1), hook)
        assert not w1.success and w1.failed_level == 1 and w1.version == 1

        # W2: N_i and pa are down, so its check resolves at level 1,
        # which missed W1. It issues x2 at W1's version; pb, which missed
        # W1 too, takes its delta before the write fails at level 0.
        cluster.recover_all()
        cluster.fail_many([ni, pa])
        w2 = proto.write_block(0, x2)
        assert w2.failed_level == 0 and w2.acks_per_level == [1] and w2.version == 1

        # pa holds x1's delta and pb x2's, under one version vector; with
        # N_i down a read decodes from both.
        cluster.recover(pa)
        result = proto.read_block(0)
        assert result.success and result.case == ReadCase.DECODE
        assert any(np.array_equal(result.value, x) for x in (x1, x2))


class TestReadDecode:
    def test_decode_when_ni_down(self):
        cluster, _, proto = make_protocol()
        data = rand_data(seed=19)
        proto.initialize(data)
        new = rand_block(seed=20)
        assert proto.write_block(2, new).success
        cluster.fail(2)
        r = proto.read_block(2)
        assert r.success
        assert r.case == ReadCase.DECODE
        assert r.version == 1
        assert np.array_equal(r.value, new)

    def test_decode_when_ni_stale(self):
        cluster, _, proto = make_protocol()
        data = rand_data(seed=21)
        proto.initialize(data)
        # N_2 misses the write: fail it, write with w=1 quorum on parities.
        _, _, proto_w1 = make_protocol(w=1)
        # Re-do with w=1 protocol for the same cluster? Simpler: new setup.
        cluster2, _, proto2 = make_protocol(w=1)
        proto2.initialize(data)
        cluster2.fail(2)
        new = rand_block(seed=22)
        # level 0 of block 2 = {node 2} -> write must fail at level 0.
        res = proto2.write_block(2, new)
        assert not res.success

    def test_decode_after_missed_update_on_parity(self):
        # One parity misses a write but recovers; decode must still work
        # from the remaining consistent rows.
        cluster, _, proto = make_protocol(w=1)
        data = rand_data(seed=23)
        proto.initialize(data)
        cluster.fail(8)  # parity misses the next write
        new = rand_block(seed=24)
        assert proto.write_block(1, new).success
        cluster.recover(8)  # back, but stale for block 1
        cluster.fail(1)  # now force decode for block 1
        r = proto.read_block(1)
        assert r.success
        assert r.case == ReadCase.DECODE
        assert np.array_equal(r.value, new)

    def test_stale_parity_not_used_in_decode(self):
        cluster, _, proto = make_protocol(w=1)
        data = rand_data(seed=25)
        proto.initialize(data)
        cluster.fail(8)
        new = rand_block(seed=26)
        assert proto.write_block(1, new).success
        cluster.recover(8)
        cluster.fail(1)
        r = proto.read_block(1)
        # node 8's parity must have been excluded: its vv[1] == 0 != 1.
        vv8 = cluster.node(8).parity_versions(proto.parity_key())
        assert vv8[1] == 0
        assert r.success and np.array_equal(r.value, new)

    def test_decode_fails_with_too_few_fresh_fragments(self):
        cluster, _, proto = make_protocol(w=1)
        data = rand_data(seed=27)
        proto.initialize(data)
        new = rand_block(seed=28)
        assert proto.write_block(0, new).success
        # Kill N_0 plus two data nodes: pool = 3 data + 3 parity = 6 rows
        # minus... keep exactly k-1 = 5 usable rows.
        cluster.fail_many([0, 1, 2, 3])  # 2 data nodes + parities remain
        r = proto.read_block(0)
        assert not r.success
        assert "decode" in r.reason or "version-check" in r.reason

    def test_mixed_version_snapshot_grouping(self):
        """Parities with different version vectors must not be mixed."""
        cluster, code, proto = make_protocol(w=1)
        data = rand_data(seed=29)
        proto.initialize(data)
        # Write block 1 while parity 8 is down (vv diverges on column 1).
        cluster.fail(8)
        new1 = rand_block(seed=30)
        assert proto.write_block(1, new1).success
        cluster.recover(8)
        # Write block 2 while parity 6 is down (vv diverges on column 2)...
        cluster.fail(6)
        new2 = rand_block(seed=31)
        assert proto.write_block(2, new2).success
        cluster.recover(6)
        # Now: parity 7 fresh for all; parity 6 stale for 2; parity 8 stale
        # for 1 BUT fresh for 2 (guard allows independent columns).
        cluster.fail(1)
        r = proto.read_block(1)
        assert r.success
        assert np.array_equal(r.value, new1)


class TestLatestVersion:
    def test_reports_committed_version(self):
        _, _, proto = make_protocol()
        proto.initialize(rand_data(seed=32))
        assert proto.latest_version(0) == 0
        proto.write_block(0, rand_block(seed=33))
        assert proto.latest_version(0) == 1

    def test_none_without_quorum(self):
        cluster, _, proto = make_protocol()
        proto.initialize(rand_data(seed=34))
        cluster.fail_many([0, 6, 7, 8])
        assert proto.latest_version(0) is None


class TestStrictConsistency:
    """The invariant the protocol exists for: acked writes are never lost."""

    def test_random_failures_never_lose_acked_writes(self):
        rng = np.random.default_rng(42)
        cluster, _, proto = make_protocol(w=2)
        data = rand_data(seed=35)
        proto.initialize(data)
        committed = {i: (0, data[i].copy()) for i in range(6)}
        for step in range(120):
            # Random failure churn (never more than 2 nodes down).
            cluster.recover_all()
            down = rng.choice(9, size=rng.integers(0, 3), replace=False)
            cluster.fail_many(down.tolist())
            i = int(rng.integers(0, 6))
            if rng.random() < 0.5:
                value = rng.integers(0, 256, L, dtype=np.int64).astype(np.uint8)
                res = proto.write_block(i, value)
                if res.success:
                    committed[i] = (res.version, value.copy())
            else:
                res = proto.read_block(i)
                if res.success:
                    version, value = committed[i]
                    # Strict consistency: never older than the last ack.
                    assert res.version >= version, f"step {step}: stale read"
                    if res.version == version:
                        assert np.array_equal(res.value, value), f"step {step}"

    def test_read_your_write_under_partition(self):
        cluster, _, proto = make_protocol(w=2)
        data = rand_data(seed=36)
        proto.initialize(data)
        new = rand_block(seed=37)
        assert proto.write_block(3, new).success
        # Partition N_3 away; the value must still be readable via decode.
        cluster.network.partition([3])
        r = proto.read_block(3)
        assert r.success
        assert r.case == ReadCase.DECODE
        assert np.array_equal(r.value, new)
        cluster.network.heal()


class TestMultipleStripes:
    def test_stripes_are_isolated(self):
        cluster = Cluster(9)
        code = MDSCode(9, 6)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1))
        p1 = TrapErcProtocol(cluster, code, quorum, stripe_id="a")
        p2 = TrapErcProtocol(cluster, code, quorum, stripe_id="b")
        d1, d2 = rand_data(seed=38), rand_data(seed=39)
        p1.initialize(d1)
        p2.initialize(d2)
        p1.write_block(0, rand_block(seed=40))
        r2 = p2.read_block(0)
        assert r2.version == 0
        assert np.array_equal(r2.value, d2[0])


class TestUnitCoefficientWork:
    """Exact GF work on a (12, 8) stripe: one ``GF2m._row_table`` lookup
    per translate, and a unit coefficient needs none."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []
        real = GF2m._row_table
        monkeypatch.setattr(GF2m, "_row_table", lambda f, c: calls.append(c) or real(f, c))
        return calls

    @staticmethod
    def stripe(seed: int):
        rng = np.random.default_rng(seed)
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(3, 1, 1))  # 5 nodes
        cluster = Cluster(12)
        proto = TrapErcProtocol(cluster, MDSCode(12, 8), quorum)
        return cluster, proto, rng.integers(0, 256, (8, 4096), dtype=np.uint8), rng

    def test_encode_costs_one_translate_per_non_unit_coefficient(self, lookups):
        _, proto, data, _ = self.stripe(0)
        del lookups[:]
        proto.initialize(data)
        assert len(lookups) == 8 * 4 - 11  # n - 1 of k(n - k) coefficients are 1

    @pytest.mark.parametrize("block, translates", [(0, 0), (3, 3), (7, 3)])
    def test_write_ships_unit_deltas_unscaled(self, lookups, block, translates):
        cluster, proto, data, rng = self.stripe(block)
        proto.initialize(data)
        del lookups[:]
        new = rng.integers(0, 256, 4096, dtype=np.uint8)
        assert proto.write_block(block, new).success
        assert len(lookups) == translates
        data[block] = new
        stripe = proto.code.encode(data)
        for j in range(8, 12):
            payload, _ = cluster.node(j).read_parity(proto.parity_key())
            assert np.array_equal(payload, stripe[j])
