"""Byzantine corruption injection and the verified read path.

Covers the three tentpole layers end to end:

* :class:`ByzantineBehavior` — the node-side corruption model (payload /
  stale / mixed modes, rate coin, read-methods-only scope);
* injection points — one ``serve`` behind every execution path; their
  parity is pinned in ``test_dispatch_parity.py``;
* the verified read path — rate-0 equivalence with the fail-stop path
  (digest bookkeeping only), and the headline safety property: with f
  corrupt nodes under the tolerance bound, every successful read returns
  the correct bytes, on both execution paths, across seeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    MetadataSpec,
    SystemSpec,
    build_system,
    protocol_names,
    run_spec,
)
from repro.cluster import Cluster, Simulator, make_rng, spawn_rngs
from repro.cluster.network import FixedLatency
from repro.cluster.node import ByzantineBehavior
from repro.core import ReadCase, TrapErcProtocol
from repro.errors import ConfigurationError
from repro.runtime import EventCoordinator, RetryPolicy

N, K = 9, 6
BLOCK = 8
SPEC = SystemSpec.trapezoid(N, K, 2, 1, 1, 2, seed=5)


# --------------------------------------------------------------------- #
# ByzantineBehavior unit semantics
# --------------------------------------------------------------------- #


class TestByzantineBehavior:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ByzantineBehavior("gaslight", 1.0, make_rng(0))
        with pytest.raises(ConfigurationError):
            ByzantineBehavior("payload", 1.5, make_rng(0))
        with pytest.raises(ConfigurationError):
            ByzantineBehavior("payload", -0.1, make_rng(0))

    def _node(self, cluster=None):
        cluster = cluster if cluster is not None else Cluster(1)
        node = cluster.node(0)
        node.put_data("k", np.arange(BLOCK, dtype=np.uint8), 3)
        return node

    def test_rate_zero_is_inert(self):
        node = self._node()
        behavior = ByzantineBehavior("payload", 0.0, make_rng(1))
        value = node.read_data("k")
        assert behavior.apply(node, "read_data", value) is value
        assert behavior.injected == 0
        assert node.stats.corrupted_replies == 0

    def test_payload_mode_garbles_every_byte(self):
        node = self._node()
        behavior = ByzantineBehavior("payload", 1.0, make_rng(2))
        payload, version = behavior.apply(node, "read_data", node.read_data("k"))
        # XOR with a mask in [1, 255]: every byte differs, version truthful.
        assert not np.any(payload == np.arange(BLOCK, dtype=np.uint8))
        assert version == 3
        assert behavior.injected == 1
        assert node.stats.corrupted_replies == 1

    def test_stale_mode_decrements_version_keeps_bytes(self):
        node = self._node()
        behavior = ByzantineBehavior("stale", 1.0, make_rng(3))
        payload, version = behavior.apply(node, "read_data", node.read_data("k"))
        assert np.array_equal(payload, np.arange(BLOCK, dtype=np.uint8))
        assert version == 2
        assert behavior.apply(node, "data_version", 0) == -1  # floor at -1

    def test_mixed_mode_draws_both(self):
        node = self._node()
        behavior = ByzantineBehavior("mixed", 1.0, make_rng(4))
        saw_payload = saw_stale = False
        clean = node.read_data("k")
        for _ in range(64):
            payload, version = behavior.apply(node, "read_data", clean)
            if version != 3:
                saw_stale = True
            elif not np.array_equal(payload, clean[0]):
                saw_payload = True
        assert saw_payload and saw_stale

    def test_write_methods_untouched(self):
        node = self._node()
        behavior = ByzantineBehavior("payload", 1.0, make_rng(5))
        assert behavior.apply(node, "write_data", True) is True
        assert behavior.apply(node, "put_data", None) is None
        assert behavior.injected == 0

    def test_rate_coin_matches_rate(self):
        node = self._node()
        behavior = ByzantineBehavior("payload", 0.25, make_rng(6))
        clean = node.read_data("k")
        trials = 2000
        corrupted = 0
        for _ in range(trials):
            payload, _ = behavior.apply(node, "read_data", clean)
            corrupted += not np.array_equal(payload, clean[0])
        assert abs(corrupted / trials - 0.25) < 0.05


# --------------------------------------------------------------------- #
# rate-0 equivalence properties
# --------------------------------------------------------------------- #


def latency_spec(seed, **extra):
    payload = {
        "protocol": "trap-erc",
        "seed": seed,
        "workload": {"num_ops": 40},
        "scenario": {"kind": "latency", "clients": 1, "horizon": 10_000.0},
    }
    payload.update(extra)
    return SystemSpec.from_dict(payload)


class TestRateZeroEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_byzantine_rate_zero_bit_identical_to_none(self, seed):
        # Arming with corruption_rate 0 draws no coins and flips no
        # replies: the whole run (summary + event trace) must match a
        # kind-"none" faultload bit for bit.
        base = run_spec(latency_spec(seed)).data
        armed = run_spec(
            latency_spec(
                seed,
                scenario={
                    "kind": "latency",
                    "clients": 1,
                    "horizon": 10_000.0,
                    "faultload": {
                        "kind": "byzantine",
                        "byzantine_fraction": 0.5,
                        "corruption_rate": 0.0,
                    },
                },
            )
        ).data
        assert armed["summary"] == base["summary"]
        assert armed["trace_hash"] == base["trace_hash"]
        assert armed["byzantine"]["injected"] == 0
        assert armed["byzantine"]["nodes"]  # armed, just silent

    @example(seed=587)
    @example(seed=893576)
    @example(seed=394347)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_verified_path_adds_only_metadata_rounds(self, seed):
        # The rate-0 acceptance pin: with a healthy cluster the verified
        # read path must not change availability or any non-metadata
        # round's message count — digests ride along, nothing else moves.
        # The metadata round shifts the latency draws, and the draws move
        # two kinds of payload round, counted on each run and exempted:
        # a fallback (N_i's level-0 poll reply missed its round's
        # completion, so the read asks N_i once more) and an overtaken
        # write (N_i answered behind the version the read returns: the
        # block's last write completed at its quorum while N_i's copy was
        # still in flight, so the read decodes).
        base, base_exempt = _run_exempting_draw_effects(latency_spec(seed))
        verified, verified_exempt = _run_exempting_draw_effects(
            latency_spec(seed, metadata={"nodes": 3})
        )
        for key in ("read_availability", "write_availability"):
            assert verified["summary"][key] == base["summary"][key]
        assert verified["summary"]["consistency_violations"] == 0
        base_rounds = dict(base["summary"]["round_messages"])
        verified_rounds = dict(verified["summary"]["round_messages"])
        assert verified_rounds.pop("metadata", 0) > 0
        payload = verified_rounds.pop("payload", 0) - verified_exempt
        assert payload == base_rounds.pop("payload", 0) - base_exempt
        assert verified_rounds == base_rounds
        assert verified["byzantine"]["detected"]["digest_mismatches"] == 0


def _run_exempting_draw_effects(spec):
    """``(result data, messages of the payload rounds the latency draws
    decide)``: Case 1's extra ``read_data`` round on N_i, and Case 2's
    gathers of a read whose N_i answered behind the version it returns.
    A decode for any other reason fails the run."""
    exempt = 0
    walk = TrapErcProtocol.level_walk_plan

    def counting(self, i, meta=None):
        nonlocal exempt
        plan, outcome = walk(self, i, meta), None
        home = decoded = None  # N_i's reply; whether Case 2 ran
        while True:
            try:
                round_ = plan.send(outcome)
            except StopIteration as stop:
                result = stop.value
                if decoded:
                    assert result.case is ReadCase.DECODE
                    assert home.ok and home.value[1] < result.version
                return result
            outcome = yield round_
            if round_ is self._polls[i][0] or round_ is self._direct[i]:
                # N_i's request is the round's one ``read_data``.
                home = next(
                    (r for r in outcome.responses if r.request.method == "read_data"),
                    home,
                )
            if round_ is self._direct[i] or round_ in self._gathers[i]:
                exempt += outcome.messages
            decoded = decoded or round_ in self._gathers[i]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrapErcProtocol, "level_walk_plan", counting)
        data = run_spec(spec).data
    return data, exempt


# --------------------------------------------------------------------- #
# the headline safety property: no silent corruption below the bound
# --------------------------------------------------------------------- #


def build_verified(protocol, seed, event=False, metadata_nodes=3):
    spec = SPEC.replace(
        protocol=protocol, seed=seed, metadata=MetadataSpec(nodes=metadata_nodes)
    )
    sim = None
    if event:
        sim = Simulator()

        def factory(cluster):
            cluster.network.latency = FixedLatency(0.001)
            return EventCoordinator(
                cluster, sim, rng=seed, policy=RetryPolicy(timeout=0.05)
            )

        built = build_system(spec, coordinator_factory=factory)
    else:
        built = build_system(spec)
    data = (
        make_rng(seed + 1)
        .integers(0, 256, size=(K, BLOCK), dtype=np.int64)
        .astype(np.uint8)
    )
    built.initialize(data)
    return built, data


VERIFIED_PROTOCOLS = tuple(sorted(protocol_names()))


class TestNoSilentCorruption:
    @pytest.mark.parametrize("protocol", VERIFIED_PROTOCOLS)
    @pytest.mark.parametrize("event", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reads_survive_f_corrupt_nodes(self, protocol, event, seed):
        # f = n - k = 3 payload-corrupting nodes (claiming true versions,
        # serving garbage) sit inside the erasure tolerance; every read
        # must still return the exact committed bytes.
        built, data = build_verified(protocol, seed, event=event)
        rng = make_rng(seed + 10)
        corrupt = rng.choice(N, size=N - K, replace=False)
        for stream, node_id in zip(spawn_rngs(rng, len(corrupt)), corrupt):
            built.cluster.node(int(node_id)).set_byzantine(
                ByzantineBehavior("payload", 1.0, stream)
            )
        for block in range(built.num_blocks):
            result = built.engine.read_block(block)
            assert result.success, result.reason
            assert np.array_equal(result.value, data[block])
        # Writes then re-reads: fresh digests keep protecting new data.
        value = make_rng(seed + 20).integers(
            0, 256, BLOCK, dtype=np.int64
        ).astype(np.uint8)
        assert built.engine.write_block(0, value).success
        result = built.engine.read_block(0)
        assert result.success and np.array_equal(result.value, value)

    @pytest.mark.parametrize("protocol", VERIFIED_PROTOCOLS)
    def test_corrupt_leg_is_detected_and_survived(self, protocol):
        # Corrupt the one node every protocol's block-0 read path starts
        # from (node 0 holds data block 0 in all four layouts): the read
        # must detect the garbled leg, count it, and still succeed.
        built, data = build_verified(protocol, seed=13)
        built.cluster.node(0).set_byzantine(
            ByzantineBehavior("payload", 1.0, make_rng(0))
        )
        result = built.engine.read_block(0)
        assert result.success, result.reason
        assert np.array_equal(result.value, data[0])
        assert built.verifier.digest_mismatches > 0

    @pytest.mark.parametrize("protocol", VERIFIED_PROTOCOLS)
    def test_stale_mode_cannot_roll_back(self, protocol):
        # Stale-claiming nodes understate versions; the metadata record
        # is the version authority, so reads never accept rolled-back
        # payloads and writes never reuse version numbers.
        built, data = build_verified(protocol, seed=7)
        for node_id in (0, 1):
            built.cluster.node(node_id).set_byzantine(
                ByzantineBehavior("stale", 1.0, make_rng(node_id))
            )
        value = np.full(BLOCK, 9, dtype=np.uint8)
        write = built.engine.write_block(0, value)
        assert write.success
        result = built.engine.read_block(0)
        assert result.success
        assert result.version == write.version
        assert np.array_equal(result.value, value)

    def test_failstop_engine_is_fooled_without_verifier(self):
        # The control: the same corruption against the fail-stop engine
        # silently serves garbage — which is exactly why the verified
        # path exists (the read "succeeds" with wrong bytes).
        spec = SPEC.replace(protocol="trap-fr", seed=3)
        built = build_system(spec)
        data = (
            make_rng(4)
            .integers(0, 256, size=(K, BLOCK), dtype=np.int64)
            .astype(np.uint8)
        )
        built.initialize(data)
        fooled = 0
        for node_id in range(N):
            built.cluster.node(node_id).set_byzantine(
                ByzantineBehavior("payload", 1.0, make_rng(node_id))
            )
        for block in range(K):
            result = built.engine.read_block(block)
            if result.success and not np.array_equal(result.value, data[block]):
                fooled += 1
        assert fooled > 0

    def test_exhausted_quorum_fails_cleanly(self):
        # Corrupt *every* payload node: the verified read must fail with
        # a reason, not return garbage or loop forever.
        built, data = build_verified("trap-erc", seed=11)
        for node_id in range(N):
            built.cluster.node(node_id).set_byzantine(
                ByzantineBehavior("payload", 1.0, make_rng(node_id))
            )
        result = built.engine.read_block(0)
        assert not result.success
        assert result.reason
        assert built.verifier.digest_mismatches > 0


# --------------------------------------------------------------------- #
# runner integration
# --------------------------------------------------------------------- #


class TestRunnerIntegration:
    def test_latency_run_detects_and_survives(self):
        spec = SystemSpec.from_dict({
            "protocol": "trap-erc",
            "seed": 9,
            "metadata": {"nodes": 3},
            "workload": {"num_ops": 60},
            "scenario": {
                "kind": "latency",
                "clients": 2,
                "horizon": 10_000.0,
                "faultload": {
                    "kind": "byzantine",
                    "byzantine_fraction": 0.25,
                    "corruption_mode": "payload",
                    "corruption_rate": 0.5,
                },
            },
        })
        result = run_spec(spec).data
        byz = result["byzantine"]
        assert len(byz["nodes"]) == 2  # round(0.25 * 9)
        assert all(n < N for n in byz["nodes"])  # metadata tier untouched
        assert byz["injected"] > 0
        assert byz["detected"]["digest_mismatches"] > 0
        assert result["summary"]["consistency_violations"] == 0
        # Determinism: the same spec reproduces the identical run.
        again = run_spec(spec).data
        assert again == result

    def test_saturation_reports_per_point(self):
        spec = SystemSpec.from_dict({
            "protocol": "trap-erc",
            "seed": 5,
            "metadata": {"nodes": 3},
            "workload": {"num_ops": 30},
            "sharding": {"shards": 2},
            "scenario": {
                "kind": "saturation",
                "client_counts": [1, 2],
                "horizon": 5_000.0,
                "faultload": {
                    "kind": "byzantine",
                    "byzantine_fraction": 0.25,
                    "corruption_rate": 0.5,
                },
            },
        })
        result = run_spec(spec).data
        points = result["byzantine"]["points"]
        assert len(points) == 2
        assert all(p["detected"] is not None for p in points)


# --------------------------------------------------------------------- #
# docs / star-import surface sync
# --------------------------------------------------------------------- #


class TestExportSurface:
    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.runtime import *", namespace)  # noqa: S102
        imported = {name for name in namespace if not name.startswith("_")}
        import repro.runtime

        assert imported == set(repro.runtime.__all__)

    def test_docs_listing_matches_all(self):
        """The "Exported API" code block in docs/RUNTIME.md is the
        public surface — it must name exactly ``repro.runtime.__all__``."""
        import re
        from pathlib import Path

        import repro.runtime

        docs = Path(__file__).resolve().parents[2] / "docs" / "RUNTIME.md"
        text = docs.read_text(encoding="utf-8")
        section = text.split("## Exported API", 1)[1]
        block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
        documented = set(block.split())
        assert documented == set(repro.runtime.__all__)
