"""Protocol-level Monte Carlo vs analysis: the strongest agreement check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import exact_read_erc, read_availability_fr, write_availability
from repro.api import MetadataSpec, PlacementSpec, SystemSpec, WorkloadSpec
from repro.errors import ConfigurationError
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.sim import ProtocolMonteCarlo

# Small configuration so several hundred full protocol executions are fast:
# (7, 4): Nbnode = 4, shape (2, 1, 1) -> levels (1, 3).
SHAPE = TrapezoidShape(2, 1, 1)
QUORUM = TrapezoidQuorum.uniform(SHAPE, 2)




def harness(protocol: str, rng: int = 11, stripes: int = 1) -> ProtocolMonteCarlo:
    """The harness ``ProtocolMonteCarlo(7, 4, QUORUM, ...)`` of ``protocol``."""
    spec = SystemSpec.trapezoid(
        7, 4, SHAPE.a, SHAPE.b, SHAPE.h, QUORUM.w,
        protocol=protocol,
        placement=PlacementSpec(kind="rotating", stripes=stripes),
        workload=WorkloadSpec(block_length=8),
    )
    return ProtocolMonteCarlo.from_spec(spec, rng=rng)


@pytest.fixture(scope="module")
def mc() -> ProtocolMonteCarlo:
    return ProtocolMonteCarlo(7, 4, QUORUM, rng=11)


@pytest.fixture(scope="module")
def fr() -> ProtocolMonteCarlo:
    return harness("trap-fr")


def test_constructor_states_the_trap_erc_spec():
    assert ProtocolMonteCarlo(7, 4, QUORUM, stripes=3).spec == harness(
        "trap-erc", stripes=3
    ).spec


class TestProtocolReadAvailability:
    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_erc_read_matches_exact(self, mc, p):
        est = mc.read_availability(p, trials=600)
        assert est.contains(float(exact_read_erc(QUORUM, 7, 4, p)), z=4), str(est)

    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_fr_read_matches_eq10(self, fr, p):
        est = fr.read_availability(p, trials=600)
        assert est.contains(float(read_availability_fr(QUORUM, p)), z=4), str(est)

    def test_read_block_parameter(self, mc):
        est = mc.read_availability(0.9, trials=200, block=3)
        assert est.mean > 0.8


class TestProtocolWriteAvailability:
    @pytest.mark.parametrize("p", [0.6, 0.9])
    def test_erc_write_matches_eq9(self, mc, p):
        est = mc.write_availability(p, trials=250)
        assert est.contains(float(write_availability(QUORUM, p)), z=4), str(est)

    def test_fr_write_matches_eq8(self, fr):
        est = fr.write_availability(0.7, trials=250)
        assert est.contains(float(write_availability(QUORUM, 0.7)), z=4), str(est)

    def test_write_erc_equals_fr_statistically(self, mc, fr):
        # Eq. 8 == eq. 9: same write availability for both protocols.
        lo_e, hi_e = mc.write_availability(0.7, trials=250).ci95()
        lo_f, hi_f = fr.write_availability(0.7, trials=250).ci95()
        assert max(lo_e, lo_f) <= min(hi_e, hi_f), "CIs must overlap"


def node_records(mc: ProtocolMonteCarlo) -> list:
    """Every node's records, payload bytes and versions (liveness aside)."""
    return [
        (
            {k: (r.payload.tobytes(), r.version) for k, r in node._data.items()},
            {k: (r.payload.tobytes(), r.versions.tolist()) for k, r in node._parity.items()},
        )
        for node in mc.cluster.nodes
    ]


#: every registered protocol on the small harness, and TRAP-ERC with a
#: metadata tier (whose records a write also changes)
RESET_SPECS = [
    *(harness(p, rng=3, stripes=3).spec for p in ("majority", "rowa", "trap-erc", "trap-fr")),
    harness("trap-erc", rng=3, stripes=3).spec.replace(metadata=MetadataSpec(nodes=3)),
]


class TestSnapshotReset:
    """A write trial is undone by restoring the store snapshotted at load;
    the result must equal a fresh load, whatever the trial wrote."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(RESET_SPECS),
        trials=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=10, max_size=10),  # alive
                st.sets(st.integers(0, 9), max_size=3),  # partitioned
                st.lists(st.integers(0, 3), min_size=1, max_size=3),  # blocks
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_restore_equals_a_fresh_load(self, spec, trials):
        mc = ProtocolMonteCarlo.from_spec(spec, rng=3)
        engines = mc.engines()
        fresh = ProtocolMonteCarlo.from_spec(spec, rng=3)
        fresh.engines()
        loaded = node_records(fresh)
        width = len(mc.cluster)
        rng = np.random.default_rng(5)
        for alive, cut, blocks in trials:
            # one trial: writes of any blocks under one failure pattern,
            # partitions included (full, partial and refused writes occur)
            mc.cluster.apply_alive_vector(np.array(alive[:width]))
            mc.cluster.network.partition(i for i in cut if i < width)
            for block in blocks:
                for engine in engines:
                    engine.write_block(block, rng.integers(0, 256, 8).astype(np.uint8))
            mc.cluster.restore(mc._loaded)
            assert mc.cluster.failed_ids == []
            assert not any(mc.cluster.network.is_partitioned(i) for i in range(width))
            assert node_records(mc) == loaded
        mc._load()
        assert node_records(mc) == loaded

    def test_write_trials_send_no_reload_puts(self):
        # The availability_study engine spec: after the first load a
        # write trial costs only the writes' own RPCs, no put_*, 6.2016
        # per stripe at this seed.
        spec = SystemSpec.trapezoid(
            9, 6, 2, 1, 1, 2,
            placement=PlacementSpec(kind="rotating", stripes=8),
            workload=WorkloadSpec(block_length=1024),
        )
        mc = ProtocolMonteCarlo.from_spec(spec, rng=7)
        mc.engines()
        stats = mc.cluster.network.stats
        stats.reset()
        est = mc.write_availability(0.8, trials=80, rng=8)
        assert (est.successes, est.trials) == (484, 640)
        assert stats.by_kind["put_data"] == stats.by_kind["put_parity"] == 0
        assert stats.messages == 2 * 3969

    @pytest.mark.parametrize(
        "protocol, loaded",
        [("trap-fr", {"fr-replica"}), ("trap-erc", {"erc-data", "erc-parity"})],
    )
    def test_only_the_spec_protocol_is_built_and_loaded(self, protocol, loaded):
        mc = harness(protocol, rng=3, stripes=2)
        assert mc.cluster.network.stats.messages == 0
        mc.write_availability(0.9, trials=5)
        mc.read_availability(0.9, trials=5)
        assert {key[0] for node in mc.cluster.nodes for key in node.keys()} == loaded

    def test_first_use_of_a_handle_keeps_failures_and_partitions(self):
        mc = ProtocolMonteCarlo(7, 4, QUORUM, rng=3)
        mc.cluster.fail(1)
        mc.cluster.network.partition([2, 5])
        mc.engines()  # builds and loads, which needs every node reachable
        assert mc.cluster.failed_ids == [1]
        assert [i for i in range(7) if mc.cluster.network.is_partitioned(i)] == [2, 5]
        # ... and every node, the unreachable ones included, was loaded
        reference = ProtocolMonteCarlo(7, 4, QUORUM, rng=3)
        reference.engines()
        assert node_records(mc) == node_records(reference)

    def test_calls_on_a_kept_harness_equal_calls_on_fresh_ones(self):
        kept = {p: harness(p, stripes=2) for p in ("trap-erc", "trap-fr")}
        calls = [
            ("write", "trap-erc", 1, 21), ("read", "trap-erc", 1, 22),
            ("write", "trap-fr", 2, 23), ("write", "trap-erc", 1, 24),
            ("read", "trap-fr", 2, 25), ("write", "trap-erc", 3, 26),
        ]
        for op, protocol, block, seed in calls:
            results = [
                getattr(h, f"{op}_availability")(
                    0.7, trials=30, block=block, rng=seed
                )
                for h in (kept[protocol], harness(protocol, stripes=2))
            ]
            assert results[0] == results[1], (op, protocol, block)


class TestValidation:
    def test_bad_protocol_name(self, mc):
        with pytest.raises(ConfigurationError, match="unknown protocol 'raid'"):
            ProtocolMonteCarlo.from_spec(mc.spec.replace(protocol="raid"))

    def test_bad_p(self, mc):
        with pytest.raises(ConfigurationError):
            mc.read_availability(1.5, trials=10)
        with pytest.raises(ConfigurationError):
            mc.write_availability(-0.1, trials=10)

    @pytest.mark.parametrize("op", ["read_availability", "write_availability"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 1.5},
            {"trials": -1},  # used to leak numpy's "negative dimensions"
            {"trials": 0},
            {"block": 4},  # used to surface after apply_alive_vector
            {"block": -1},
        ],
    )
    def test_bad_call_rejected_before_touching_the_cluster(self, op, kwargs):
        mc = ProtocolMonteCarlo(7, 4, QUORUM, rng=11)
        mc.engines()  # build and load, so that a later message would show
        messages = mc.cluster.network.stats.messages
        with pytest.raises(ConfigurationError):
            getattr(mc, op)(**{"p": 0.5, "trials": 10, **kwargs})
        assert mc.cluster.network.stats.messages == messages
        assert mc.cluster.failed_ids == []

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_exception_mid_trial_leaves_the_harness_synced(self, op, monkeypatch):
        mc = ProtocolMonteCarlo(7, 4, QUORUM, rng=11, stripes=2)
        victim = mc.engines()[1]
        loaded = node_records(mc)
        real = getattr(victim, f"{op}_block")
        calls = []

        def boom(*args):
            calls.append(args)
            if len(calls) == 3:
                real(*args)  # a write lands, then the trial blows up
                raise RuntimeError("mid-trial")
            return real(*args)

        monkeypatch.setattr(victim, f"{op}_block", boom)
        with pytest.raises(RuntimeError, match="mid-trial"):
            getattr(mc, f"{op}_availability")(0.6, trials=10, block=2)
        assert mc.cluster.failed_ids == []
        assert node_records(mc) == loaded
        # ... and the harness still gives the numbers of a fresh one
        monkeypatch.undo()
        fresh = ProtocolMonteCarlo(7, 4, QUORUM, rng=11, stripes=2)
        assert mc.write_availability(0.6, trials=20, rng=9) == fresh.write_availability(
            0.6, trials=20, rng=9
        )
