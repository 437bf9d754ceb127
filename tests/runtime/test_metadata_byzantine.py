"""The Byzantine metadata tier: self-verifying records, 3f+1 quorums,
verified anti-entropy.

Covers the tentpole layers of the hardened metadata tier end to end:

* record primitives — :func:`writer_key` / :func:`record_tag`
  determinism and coordinate binding;
* :class:`MetadataQuorum` Byzantine sizing validation (3f+1 tiers,
  2f+1 thresholds, intersection);
* :class:`MetadataByzantineBehavior` — the metadata-node lie model
  (forge / stale_record / equivocate, prime-time snapshots,
  first-sight adoption);
* the resolution rule — f+1-matching with the freshness refusal: the
  hardened tier returns correct bytes through f rollback liars and
  fails *cleanly* at f+1, where the fail-stop tier is silently fooled;
* :meth:`BlockVerifier.read_plan` / :meth:`BlockVerifier.commit_plan` —
  one metadata round each, failures counted once;
* verified anti-entropy — a :class:`RepairService` over an engine
  without a verifier launders corruption onto healthy disks, the
  stripe's own (verified) repair service refuses and counts;
* runner integration — liars armed from the spec, determinism of the
  armed run, zero consistency violations through f on live workloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetadataSpec, SystemSpec, build_system, run_spec
from repro.cluster import make_rng
from repro.cluster.node import (
    ByzantineBehavior,
    MetadataByzantineBehavior,
    StorageNode,
)
from repro.core import RepairService, TrapErcProtocol
from repro.errors import ConfigurationError
from repro.runtime import (
    DIGEST_SIZE,
    METADATA_ROUND,
    TAG_SIZE,
    InstantCoordinator,
    MetadataQuorum,
    block_digest,
    record_tag,
    writer_key,
)

N, K = 9, 6
BLOCK = 32  # the WorkloadSpec default; built.initialize() seeds this size

FAILSTOP = MetadataSpec(nodes=3)
HARDENED = MetadataSpec(nodes=4, f=1)


def hardened_spec(meta=HARDENED, seed=7, **extra):
    return SystemSpec.trapezoid(N, K, 2, 1, 1, 2, metadata=meta, seed=seed, **extra)


# --------------------------------------------------------------------- #
# record primitives
# --------------------------------------------------------------------- #


class TestRecordPrimitives:
    def test_writer_key_is_deterministic_per_namespace(self):
        assert writer_key("stripe-0") == writer_key("stripe-0")
        assert writer_key("stripe-0") != writer_key("stripe-1")
        assert len(writer_key("stripe-0")) == 32

    def test_record_tag_shape_and_determinism(self):
        key = writer_key("s")
        digest = block_digest(np.arange(BLOCK, dtype=np.uint8))
        tag = record_tag(key, "s", 1, 2, digest)
        assert len(tag) == TAG_SIZE
        assert tag == record_tag(key, "s", 1, 2, digest)

    def test_record_tag_binds_every_coordinate(self):
        key = writer_key("s")
        digest = block_digest(np.arange(BLOCK, dtype=np.uint8))
        base = record_tag(key, "s", 1, 2, digest)
        other_digest = block_digest(np.zeros(BLOCK, dtype=np.uint8))
        assert base != record_tag(writer_key("t"), "s", 1, 2, digest)
        assert base != record_tag(key, "t", 1, 2, digest)
        assert base != record_tag(key, "s", 2, 2, digest)
        assert base != record_tag(key, "s", 1, 3, digest)
        assert base != record_tag(key, "s", 1, 2, other_digest)
        # block/version are length-delimited: (1, 2) must not collide
        # with (12, ...) style tuple confusion.
        assert record_tag(key, "s", 1, 2, digest) != record_tag(
            key, "s", 12, 2, digest
        )


# --------------------------------------------------------------------- #
# MetadataQuorum Byzantine sizing
# --------------------------------------------------------------------- #


class TestMetadataQuorumSizing:
    def test_f_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            MetadataQuorum(range(4), 3, 3, f=-1)

    def test_f_requires_3f_plus_1_nodes(self):
        with pytest.raises(ConfigurationError):
            MetadataQuorum(range(3), 2, 2, f=1)
        MetadataQuorum(range(4), 3, 3, f=1)  # 3f+1 exactly: fine

    def test_thresholds_must_reach_2f_plus_1(self):
        with pytest.raises(ConfigurationError):
            MetadataQuorum(range(4), 3, 2, f=1)
        with pytest.raises(ConfigurationError):
            MetadataQuorum(range(4), 2, 3, f=1)

    def test_quorums_must_intersect(self):
        with pytest.raises(ConfigurationError):
            MetadataQuorum(range(4), 2, 2, f=0)

    @pytest.mark.parametrize(
        "nodes, f, need",
        [(1, 0, 1), (3, 0, 2), (4, 0, 3), (7, 0, 4), (4, 1, 3), (7, 2, 5), (9, 2, 5)],
    )
    def test_built_tier_needs_a_majority_or_2f_plus_1(self, nodes, f, need):
        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2, metadata=MetadataSpec(nodes=nodes, f=f)
        )
        quorum = build_system(spec).verifier.quorum
        assert quorum.node_ids == tuple(range(9, 9 + nodes))
        assert (quorum.write_need, quorum.read_need, quorum.f) == (need, need, f)

    def test_spec_level_validation(self):
        with pytest.raises(ConfigurationError):
            MetadataSpec(nodes=3, f=1)  # < 3f+1
        with pytest.raises(ConfigurationError):
            MetadataSpec(nodes=4, f=1, signed=False)  # f needs signatures
        assert MetadataSpec(nodes=4, f=1).effective_signed is True
        assert MetadataSpec(nodes=3).effective_signed is False
        assert MetadataSpec(nodes=3, signed=True).effective_signed is True


# --------------------------------------------------------------------- #
# the metadata lie model
# --------------------------------------------------------------------- #


def meta_node(built, offset=0):
    return built.cluster.node(built.spec.cluster.num_nodes + offset)


class TestMetadataByzantineBehavior:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MetadataByzantineBehavior("gaslight", 1.0, make_rng(0))
        with pytest.raises(ConfigurationError):
            MetadataByzantineBehavior("forge", 1.5, make_rng(0))

    def test_rate_zero_is_inert(self):
        behavior = MetadataByzantineBehavior("forge", 0.0, make_rng(1))
        value = (np.arange(4, dtype=np.uint8), 3)
        assert behavior.apply(StorageNode(0), "read_data", value, ("k",)) is value

    def test_forge_bumps_version_and_garbles_record(self):
        node = StorageNode(0)
        behavior = MetadataByzantineBehavior("forge", 1.0, make_rng(2))
        record = np.arange(DIGEST_SIZE, dtype=np.uint8)
        payload, version = behavior.apply(node, "read_data", (record, 3), ("k",))
        assert version == 4
        assert not np.array_equal(payload, record)
        assert behavior.apply(node, "data_version", 3, ("k",)) == 4
        assert node.stats.corrupted_replies == 2

    def test_stale_record_replays_the_primed_snapshot(self):
        built = build_system(hardened_spec(meta=FAILSTOP))
        built.initialize()
        node = meta_node(built)
        key = next(iter(dict(node._data)))
        truth_v0 = node.read_data(key)
        behavior = MetadataByzantineBehavior("stale_record", 1.0, make_rng(3))
        behavior.prime(node)
        node.put_data(key, np.zeros(DIGEST_SIZE, dtype=np.uint8), 9)
        payload, version = behavior.apply(
            node, "read_data", node.read_data(key), (key,)
        )
        assert version == truth_v0[1]
        assert np.array_equal(payload, truth_v0[0])
        assert behavior.injected == 1
        # replaying the truth itself is not counted as an injection
        node.put_data(key, truth_v0[0], truth_v0[1])
        behavior.apply(node, "read_data", node.read_data(key), (key,))
        assert behavior.injected == 1

    def test_stale_record_adopts_unknown_keys_on_first_sight(self):
        node = StorageNode(0)
        behavior = MetadataByzantineBehavior("stale_record", 1.0, make_rng(4))
        first = (np.full(DIGEST_SIZE, 7, dtype=np.uint8), 2)
        # first sight: passed through truthfully, snapshotted
        out = behavior.apply(node, "read_data", first, ("new",))
        assert out is first and behavior.injected == 0
        later = (np.full(DIGEST_SIZE, 9, dtype=np.uint8), 3)
        payload, version = behavior.apply(node, "read_data", later, ("new",))
        assert version == 2 and np.array_equal(payload, first[0])
        assert behavior.injected == 1


# --------------------------------------------------------------------- #
# the resolution rule: rollback through f, clean failure at f+1
# --------------------------------------------------------------------- #


def rollback_attack(meta: MetadataSpec, liars: int, seed: int = 11):
    """Authentic-rollback replay plus one backup-restored data node.

    Returns (result, new_value, built): liars replay the version-0
    records they held before the write committed, and the home node's
    disk is rolled back to the version-0 payload — the only honest
    configuration in which a rollback can serve *matching* stale bytes.
    """
    built = build_system(hardened_spec(meta=meta, seed=seed))
    data = built.initialize()
    first = built.spec.cluster.num_nodes
    behaviors = []
    for idx in range(liars):
        behavior = MetadataByzantineBehavior(
            "stale_record", 1.0, make_rng(1000 + idx)
        )
        behavior.prime(built.cluster.node(first + idx))
        behaviors.append((first + idx, behavior))
    new_value = (
        make_rng(seed + 1).integers(0, 256, BLOCK, dtype=np.int64).astype(np.uint8)
    )
    assert built.engine.write_block(0, new_value).success
    ni = built.layout.node_of_block(0)
    built.cluster.rpc(ni, "put_data", built.engine.data_key(0), data[0], 0)
    for node_id, behavior in behaviors:
        built.cluster.node(node_id).set_byzantine(behavior)
    return built.engine.read_block(0), new_value, built


class TestRollbackResolution:
    def test_failstop_tier_is_silently_fooled_at_quorum_coverage(self):
        # The control: once liars cover the majority read quorum (2 of
        # 3), the fail-stop tier serves version-0 bytes with no error.
        result, new_value, _ = rollback_attack(FAILSTOP, liars=2)
        assert result.success
        assert result.version == 0
        assert not np.array_equal(result.value, new_value)

    def test_hardened_tier_correct_through_f(self):
        for liars in (0, 1):
            result, new_value, built = rollback_attack(HARDENED, liars=liars)
            assert result.success, liars
            assert np.array_equal(result.value, new_value), liars
            assert built.engine.verifier.metadata_failures == 0

    def test_hardened_tier_fails_cleanly_at_f_plus_1(self):
        # f+1 colluding replays assemble a qualifying stale group; the
        # freshness refusal rejects it because an authenticated record
        # is newer — a clean failure, never wrong bytes.
        result, _, built = rollback_attack(HARDENED, liars=2)
        assert not result.success
        assert built.engine.verifier.metadata_failures >= 1

    def test_forged_records_die_at_the_tag_check(self):
        built = build_system(hardened_spec())
        built.initialize()
        liar = meta_node(built)
        liar.set_byzantine(MetadataByzantineBehavior("forge", 1.0, make_rng(5)))
        result = built.engine.read_block(0)
        assert result.success and result.version == 0
        assert built.engine.verifier.tag_rejections >= 1
        assert built.engine.verifier.metadata_failures == 0

    def test_version_tie_conflicts_surface_in_failstop_mode(self):
        # Satellite: equal-version records with differing digests are
        # counted even when the fail-stop max-version fold would have
        # silently kept the first-seen digest.
        built = build_system(hardened_spec(meta=FAILSTOP))
        built.initialize()
        verifier = built.engine.verifier
        key = ("meta", verifier.namespace, 0)
        first = built.spec.cluster.num_nodes
        digest_a = block_digest(np.zeros(BLOCK, dtype=np.uint8))
        digest_b = block_digest(np.ones(BLOCK, dtype=np.uint8))
        for node_id, digest in ((first, digest_a), (first + 1, digest_b)):
            built.cluster.rpc(
                node_id,
                "put_data",
                key,
                np.frombuffer(digest, dtype=np.uint8).copy(),
                5,
            )
        record, _ = InstantCoordinator(built.cluster).execute(verifier.read_plan(0))
        assert record is not None and record[0] == 5
        assert verifier.record_conflicts >= 1


# --------------------------------------------------------------------- #
# the verifier's sub-plans: the one metadata read and the one commit
# --------------------------------------------------------------------- #


def recorded(plan, rounds):
    """Forward ``plan`` unchanged, appending every round it yields."""
    try:
        step = plan.send(None)
        while True:
            rounds.append(step)
            step = plan.send((yield step))
    except StopIteration as stop:
        return stop.value


class TestVerifierPlans:
    @pytest.mark.parametrize("meta", [FAILSTOP, HARDENED], ids=["failstop", "hardened"])
    def test_read_plan_is_one_metadata_round(self, meta):
        built = build_system(hardened_spec(meta=meta))
        data = built.initialize()
        verifier = built.engine.verifier
        rounds = []
        record, messages = InstantCoordinator(built.cluster).execute(
            recorded(verifier.read_plan(0), rounds)
        )
        assert [step.kind for step in rounds] == [METADATA_ROUND]
        assert record == (0, block_digest(data[0]))
        assert messages > 0
        assert verifier.metadata_failures == 0

    def test_commit_plan_stores_the_value_digest(self):
        built = build_system(hardened_spec())
        built.initialize()
        verifier = built.engine.verifier
        value = np.full(BLOCK, 7, dtype=np.uint8)
        coordinator = InstantCoordinator(built.cluster)
        rounds = []
        satisfied, messages = coordinator.execute(
            recorded(verifier.commit_plan(0, 3, value), rounds)
        )
        assert satisfied and messages > 0
        assert [step.kind for step in rounds] == [METADATA_ROUND]
        record, _ = coordinator.execute(verifier.read_plan(0))
        assert record == (3, block_digest(value))
        assert verifier.metadata_failures == 0

    def test_failed_commit_is_counted_once(self):
        built = build_system(hardened_spec())
        built.initialize()
        verifier = built.engine.verifier
        first = built.spec.cluster.num_nodes
        built.cluster.fail_many(range(first, first + HARDENED.nodes))
        satisfied, _ = InstantCoordinator(built.cluster).execute(
            verifier.commit_plan(0, 1, np.zeros(BLOCK, dtype=np.uint8))
        )
        assert not satisfied
        assert verifier.metadata_failures == 1

    @pytest.mark.parametrize("meta", [FAILSTOP, HARDENED], ids=["failstop", "hardened"])
    def test_read_round_is_built_once_per_block(self, meta):
        built = build_system(hardened_spec(meta=meta))
        built.initialize()
        verifier = built.engine.verifier
        coordinator = InstantCoordinator(built.cluster)
        first, second, other = [], [], []
        for block, rounds in ((0, first), (0, second), (1, other)):
            coordinator.execute(recorded(verifier.read_plan(block), rounds))
        assert first[0] is second[0] is verifier.read_round(0)
        assert other[0] is not first[0]
        assert other[0].requests[0].args == (verifier.meta_key(1),)

    def test_shared_read_round_still_counts_tag_rejections(self):
        built = build_system(hardened_spec())
        built.initialize()
        meta_node(built).set_byzantine(
            MetadataByzantineBehavior("forge", 1.0, make_rng(5))
        )
        verifier = built.engine.verifier
        coordinator = InstantCoordinator(built.cluster)
        seen = []
        for _ in range(3):
            record, _ = coordinator.execute(verifier.read_plan(0))
            assert record is not None and record[0] == 0
            seen.append(verifier.tag_rejections)
        assert seen[0] >= 1
        assert seen == [seen[0], 2 * seen[0], 3 * seen[0]]

    def test_unassembled_read_resolves_to_none(self):
        built = build_system(hardened_spec())
        built.initialize()
        verifier = built.engine.verifier
        first = built.spec.cluster.num_nodes
        built.cluster.fail_many(range(first, first + HARDENED.nodes))
        record, _ = InstantCoordinator(built.cluster).execute(verifier.read_plan(0))
        assert record is None
        assert verifier.metadata_failures == 1


# --------------------------------------------------------------------- #
# verified anti-entropy: repair refuses to launder corruption
# --------------------------------------------------------------------- #


def unverified_twin(built) -> TrapErcProtocol:
    """A fail-stop engine over the *same* cluster, keys and layout."""
    return TrapErcProtocol(
        built.cluster,
        built.code,
        built.quorum,
        layout=built.layout,
        stripe_id="api-stripe",
    )


class TestVerifiedAntiEntropy:
    def arm_home(self, built, block=0):
        ni = built.layout.node_of_block(block)
        built.cluster.node(ni).set_byzantine(
            ByzantineBehavior("payload", 1.0, make_rng(6))
        )
        return ni

    def test_unverified_repair_launders_corruption_onto_disk(self):
        # The fooled control: the corrupt home reply round-trips through
        # an unverified repair and lands *on disk* — after the liar is
        # disarmed, reads still return wrong bytes.
        built = build_system(hardened_spec(meta=FAILSTOP))
        data = built.initialize()
        ni = self.arm_home(built)
        svc = RepairService(unverified_twin(built))
        assert svc.repair_data_node(0)
        assert svc.repairs_performed == 1
        built.cluster.node(ni).set_byzantine(None)
        payload, version = built.cluster.node(ni).read_data(
            built.engine.data_key(0)
        )
        assert version == 0
        assert not np.array_equal(payload, data[0])

    def test_verified_repair_blocks_and_counts(self):
        built = build_system(hardened_spec(meta=FAILSTOP))
        data = built.initialize()
        ni = self.arm_home(built)
        svc = built.repair
        assert not svc.repair_data_node(0)
        assert svc.repairs_blocked == 1
        assert svc.records_rejected == 1
        assert svc.repairs_performed == 0
        built.cluster.node(ni).set_byzantine(None)
        payload, _ = built.cluster.node(ni).read_data(built.engine.data_key(0))
        assert np.array_equal(payload, data[0])  # disk untouched

    def test_unverified_parity_repair_poisons_a_healthy_node(self):
        built = build_system(hardened_spec(meta=FAILSTOP))
        data = built.initialize()
        self.arm_home(built)
        parity_node = built.layout.parity_nodes[0]
        built.cluster.fail(parity_node)
        built.cluster.recover(parity_node, wipe=True)
        svc = RepairService(unverified_twin(built))
        assert svc.repair_parity_node(parity_node)
        j = built.layout.block_of_node(parity_node)
        correct = built.code.encode_block(j, data)
        rebuilt, _ = built.cluster.node(parity_node).read_parity(
            built.engine.parity_key()
        )
        assert not np.array_equal(rebuilt, correct)  # laundered

    def test_verified_parity_repair_leaves_the_node_wiped(self):
        built = build_system(hardened_spec(meta=FAILSTOP))
        built.initialize()
        self.arm_home(built)
        parity_node = built.layout.parity_nodes[0]
        built.cluster.fail(parity_node)
        built.cluster.recover(parity_node, wipe=True)
        svc = built.repair
        assert not svc.repair_parity_node(parity_node)
        assert svc.repairs_blocked == 1
        assert svc.records_rejected >= 1
        assert (
            built.cluster.rpc(parity_node, "parity_versions", built.engine.parity_key())
            is None
        )

    def test_counters_surface(self):
        svc = RepairService(
            unverified_twin(build_system(hardened_spec(meta=FAILSTOP)))
        )
        assert svc.counters() == {
            "repairs_performed": 0,
            "repairs_blocked": 0,
            "records_rejected": 0,
        }


# --------------------------------------------------------------------- #
# runner integration: liars from the spec, determinism, live safety
# --------------------------------------------------------------------- #


def liar_spec(seed, liars, mode="forge", meta=None, **extra):
    meta = {"nodes": 4, "f": 1} if meta is None else meta
    payload = {
        "protocol": "trap-erc",
        "seed": seed,
        "metadata": meta,
        "workload": {"num_ops": 40},
        "scenario": {
            "kind": "latency",
            "clients": 1,
            "horizon": 10_000.0,
            "faultload": {
                "kind": "byzantine",
                "byzantine_fraction": 0.0,
                "metadata_liars": liars,
                "metadata_mode": mode,
            },
        },
    }
    payload.update(extra)
    return SystemSpec.from_dict(payload)


class TestRunnerIntegration:
    def test_liars_need_a_metadata_section(self):
        with pytest.raises(ConfigurationError):
            run_spec(liar_spec(0, liars=1, meta=None, metadata=None))

    def test_liars_cannot_exceed_the_tier(self):
        with pytest.raises(ConfigurationError):
            run_spec(liar_spec(0, liars=5))

    def test_armed_run_is_deterministic(self):
        first = run_spec(liar_spec(3, liars=1)).to_json()
        second = run_spec(liar_spec(3, liars=1)).to_json()
        assert first == second

    def test_arming_zero_liars_matches_unarmed_run(self):
        # The appended stream 13 is consumed only when liars are armed:
        # a liars=0 byzantine faultload replays the unarmed run exactly.
        base = run_spec(liar_spec(4, liars=0)).data
        armed = run_spec(liar_spec(4, liars=0)).data
        assert armed["summary"] == base["summary"]
        assert armed["trace_hash"] == base["trace_hash"]
        assert armed["byzantine"]["metadata_nodes"] == []
        assert armed["byzantine"]["metadata_injected"] == 0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        mode=st.sampled_from(["forge", "stale_record", "equivocate"]),
    )
    def test_zero_wrong_bytes_through_f_on_live_workloads(self, seed, mode):
        # The acceptance pin: f armed liars of a 3f+1 signed tier never
        # produce a consistency violation — reads are correct or fail.
        data = run_spec(liar_spec(seed, liars=1, mode=mode)).data
        assert data["summary"]["consistency_violations"] == 0
        assert data["byzantine"]["metadata_nodes"]

    def test_forgers_are_detected_and_survived_at_f(self):
        data = run_spec(liar_spec(9, liars=1, mode="forge")).data
        assert data["summary"]["read_availability"] == 1.0
        assert data["summary"]["write_availability"] == 1.0
        assert data["summary"]["consistency_violations"] == 0
        assert data["byzantine"]["metadata_injected"] > 0
        assert data["byzantine"]["detected"]["tag_rejections"] > 0

    def test_repair_counters_surface_in_the_report(self):
        data = run_spec(
            liar_spec(
                5,
                liars=1,
                scenario={
                    "kind": "latency",
                    "clients": 1,
                    "horizon": 10_000.0,
                    "repair_interval": 50.0,
                    "faultload": {
                        "kind": "byzantine",
                        "byzantine_fraction": 0.0,
                        "metadata_liars": 1,
                        "metadata_mode": "forge",
                    },
                },
            )
        ).data
        repair = data["byzantine"]["repair"]
        assert set(repair) == {
            "repairs_performed",
            "repairs_blocked",
            "records_rejected",
        }
