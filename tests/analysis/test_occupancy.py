"""Property tests pinning the occupancy engine to the enumeration reference.

The level-occupancy engine (:mod:`repro.analysis.occupancy`) must produce
*integer-identical* subset counts to the 2^m enumeration across random
shapes, w vectors and predicates — including the TRAP-ERC split on N_i
aliveness — and the rewired ``exact_read_erc`` / ``optimize_config`` must
therefore be bit-identical to the seed paths wherever both can run.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    erc_level_counts,
    erc_level_counts_family,
    exact_read_erc,
    occupancy_cache_clear,
    occupancy_cache_info,
    optimize_config,
    optimize_config_sweep,
    predicate_counts,
    write_availability,
)
from repro.analysis.optimizer import ConfigPoint, _collect_result, _w_vectors
from repro.errors import ConfigurationError
from repro.quorum import (
    GridSystem,
    MajoritySystem,
    RowaSystem,
    TrapezoidQuorum,
    TrapezoidShape,
    TrapezoidSystem,
    TreeSystem,
    default_shape_for_nbnode,
    shapes_for_nbnode,
)
from repro.quorum.base import CountPredicate
from tests.analysis.exact_reference import (
    erc_subset_counts,
    exact_availability,
    exact_read_erc_enumerated,
    subset_counts,
)

P = np.linspace(0.0, 1.0, 21)


# --------------------------------------------------------------------- #
# strategies: small random trapezoid geometries with valid w vectors
# --------------------------------------------------------------------- #

shapes = st.tuples(
    st.integers(0, 2), st.integers(1, 3), st.integers(0, 2)
).map(lambda abh: TrapezoidShape(*abh))


@st.composite
def quorums(draw) -> TrapezoidQuorum:
    shape = draw(shapes)
    w0 = shape.b // 2 + 1
    upper = tuple(
        draw(st.integers(1, shape.level_size(l))) for l in range(1, shape.h + 1)
    )
    return TrapezoidQuorum(shape, (w0,) + upper)


# --------------------------------------------------------------------- #
# CountPredicate
# --------------------------------------------------------------------- #


class TestCountPredicate:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CountPredicate((), (), "all")
        with pytest.raises(ConfigurationError):
            CountPredicate((3, 0), (1, 1), "all")
        with pytest.raises(ConfigurationError):
            CountPredicate((3,), (1, 2), "all")
        with pytest.raises(ConfigurationError):
            CountPredicate((3,), (1,), "some")

    def test_evaluate_matches_modes(self):
        pred_all = CountPredicate((2, 3), (1, 2), "all")
        pred_any = CountPredicate((2, 3), (1, 2), "any")
        assert pred_all.evaluate((1, 2))
        assert not pred_all.evaluate((0, 3))
        assert pred_any.evaluate((0, 3))
        assert not pred_any.evaluate((0, 1))
        assert pred_all.total == 5

    def test_as_level_thresholds_validates_kind(self):
        with pytest.raises(ConfigurationError):
            MajoritySystem(3).as_level_thresholds("both")

    def test_membership_structured_systems_opt_out(self):
        assert GridSystem(2, 2).as_level_thresholds("read") is None
        assert TreeSystem(2).as_level_thresholds("write") is None


# --------------------------------------------------------------------- #
# engine vs enumeration: integer-identical subset counts
# --------------------------------------------------------------------- #


class TestPredicateCounts:
    @settings(max_examples=60, deadline=None)
    @given(quorum=quorums())
    def test_trapezoid_counts_match_enumeration(self, quorum):
        system = TrapezoidSystem(quorum)
        for kind, predicate in (
            ("write", system.is_write_quorum),
            ("read", system.is_read_quorum),
        ):
            engine = predicate_counts(system.as_level_thresholds(kind))
            reference = subset_counts(system.size, predicate)
            assert np.array_equal(engine, reference)

    @pytest.mark.parametrize(
        "system",
        [MajoritySystem(5), RowaSystem(4)],
        ids=lambda s: repr(s),
    )
    def test_flat_systems_match_enumeration(self, system):
        for kind, predicate in (
            ("write", system.is_write_quorum),
            ("read", system.is_read_quorum),
        ):
            engine = predicate_counts(system.as_level_thresholds(kind))
            assert np.array_equal(engine, subset_counts(system.size, predicate))

    def test_exact_availability_identical_on_both_paths(self):
        # Count-structured systems ride the engine; the values must equal
        # what the enumeration fallback produced for the same predicates.
        for system in (MajoritySystem(5), RowaSystem(4), TrapezoidSystem(
            TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)
        )):
            for kind in ("read", "write"):
                engine = exact_availability(system, P, kind=kind)
                predicate = (
                    system.is_write_quorum
                    if kind == "write"
                    else system.is_read_quorum
                )
                counts = subset_counts(system.size, predicate)
                from repro.analysis import counts_to_probability

                reference = counts_to_probability(counts, system.size, P)
                assert np.array_equal(engine, reference)

    def test_exact_availability_enumeration_fallback_still_works(self):
        grid = GridSystem(2, 2)
        vals = exact_availability(grid, P, kind="write")
        assert vals[0] == pytest.approx(0.0)
        assert vals[-1] == pytest.approx(1.0)

    def test_lifts_enumeration_limit_for_count_structured_systems(self):
        # 101 nodes: 2^101 subsets is unreachable, one 102-cell grid is not.
        big = MajoritySystem(101)
        val = float(exact_availability(big, 0.9, kind="write"))
        assert 0.999 < val <= 1.0
        with pytest.raises(ConfigurationError):
            subset_counts(101, lambda s: True)

    def test_float64_path_beyond_int64_exactness(self):
        # 70 nodes: multiplicities exceed int64, float64 path still sane.
        val = float(exact_availability(MajoritySystem(70), 0.6, kind="write"))
        assert 0.94 < val < 0.96  # P(Bin(70, .6) >= 36) ~ 0.9446

    def test_overflow_beyond_float64_is_a_clear_error(self):
        # C(1100, 550) leaves float64 range: ConfigurationError, not a
        # raw OverflowError from numpy.
        with pytest.raises(ConfigurationError, match="float64"):
            exact_availability(MajoritySystem(1100), 0.9, kind="write")

    def test_write_family_validates_vector_bounds(self):
        from repro.analysis import write_availability_family

        shape = TrapezoidShape(1, 3, 1)
        with pytest.raises(ConfigurationError):
            write_availability_family(shape, [(-1, 2)], 0.9)
        with pytest.raises(ConfigurationError):
            write_availability_family(shape, [(2, 5)], 0.9)
        with pytest.raises(ConfigurationError):
            write_availability_family(shape, [(2,)], 0.9)

    def test_large_trapezoid_exact_read(self):
        # Nbnode = 40 >> the old 24-node enumeration ceiling.
        shape = TrapezoidShape(2, 10, 2)  # levels (10, 12, 14, ...) -> 36+
        quorum = TrapezoidQuorum.uniform(shape)
        nb = shape.total_nodes
        assert nb > 24
        vals = exact_read_erc(quorum, nb + 7, 8, P)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-9)
        assert np.all(np.diff(vals) >= -1e-9)


class TestErcSplitCounts:
    @settings(max_examples=60, deadline=None)
    @given(quorum=quorums())
    def test_split_counts_match_enumeration(self, quorum):
        shape = quorum.shape
        direct, decode = erc_level_counts(
            shape.level_sizes, quorum.read_thresholds
        )
        ref_direct, ref_decode = erc_subset_counts(quorum)
        assert np.array_equal(direct, ref_direct)
        assert np.array_equal(decode, ref_decode)

    @settings(max_examples=40, deadline=None)
    @given(quorum=quorums(), p=st.floats(0.0, 1.0))
    def test_exact_read_erc_bit_identical(self, quorum, p):
        n = quorum.shape.total_nodes + 7
        occupancy = exact_read_erc(quorum, n, 8, p)
        enumeration = exact_read_erc_enumerated(quorum, n, 8, p)
        assert np.array_equal(occupancy, enumeration)

    def test_family_rows_match_single_calls(self):
        shape = TrapezoidShape(2, 3, 2)
        thresholds = [
            TrapezoidQuorum.uniform(shape, w).read_thresholds
            for w in range(1, shape.level_size(1) + 1)
        ]
        direct, decode = erc_level_counts_family(shape.level_sizes, thresholds)
        for i, t in enumerate(thresholds):
            d, e = erc_level_counts(shape.level_sizes, tuple(t))
            assert np.array_equal(direct[i], d)
            assert np.array_equal(decode[i], e)

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.05, 0.95))
    def test_outside_data_node_binomial_fold(self, p):
        """Whole-universe brute force over all n nodes (trapezoid AND the
        k-1 outside data nodes) for a small (n, k): validates the analytic
        binomial top-up of the decode branch, not just the trapezoid part."""
        shape = TrapezoidShape(1, 2, 1)  # levels (2, 3): Nbnode = 5
        quorum = TrapezoidQuorum.uniform(shape, 2)
        n, k = 8, 4
        r = [quorum.r(l) for l in shape.levels]
        total = 0.0
        for bits in product([0, 1], repeat=n):
            trap = bits[:5]  # 0 = N_i, 1..4 = parity nodes
            level_counts = [trap[0] + trap[1], trap[2] + trap[3] + trap[4]]
            if not any(c >= r[l] for l, c in enumerate(level_counts)):
                continue
            if trap[0] or sum(bits) - trap[0] >= k:
                alive = sum(bits)
                total += p**alive * (1 - p) ** (n - alive)
        assert float(exact_read_erc(quorum, n, k, p)) == pytest.approx(
            total, abs=1e-12
        )

    @pytest.mark.parametrize("n, k", [(12, 4), (20, 8), (22, 8)])
    def test_default_shapes_bit_identical_over_p(self, n, k):
        # The default trapezoid per Nbnode up to the paper's Fig-1 size
        # (Nbnode = 15, 2^15 subsets on the enumeration path), cold tables.
        occupancy_cache_clear()
        quorum = TrapezoidQuorum.uniform(default_shape_for_nbnode(n - k + 1))
        occupancy = exact_read_erc(quorum, n, k, P)
        enumeration = exact_read_erc_enumerated(quorum, n, k, P)
        assert np.array_equal(occupancy, enumeration)

    def test_tables_cached_across_p(self):
        occupancy_cache_clear()
        quorum = TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 2), 3)
        for p in (0.3, 0.5, 0.7, 0.9):
            exact_read_erc(quorum, 22, 8, p)
        info = occupancy_cache_info()
        assert info["erc_level_counts"]["misses"] == 1
        assert info["erc_level_counts"]["hits"] == 3


# --------------------------------------------------------------------- #
# optimizer equivalence: identical winners and Pareto fronts
# --------------------------------------------------------------------- #


def _reference_optimize(n, k, p, max_h=3, max_vectors=512):
    """The seed optimizer loop: one subset enumeration per (shape, w)."""
    points = []
    for shape in shapes_for_nbnode(n - k + 1, max_h=max_h):
        for w in _w_vectors(shape, max_vectors):
            quorum = TrapezoidQuorum(shape, w)
            points.append(
                ConfigPoint(
                    shape=shape,
                    w=w,
                    write=float(write_availability(quorum, p)),
                    read=float(exact_read_erc_enumerated(quorum, n, k, p)),
                )
            )
    return _collect_result(points)


class TestOptimizerEquivalence:
    @pytest.mark.parametrize(
        "n, k, p",
        [(9, 6, 0.7), (9, 6, 0.35), (15, 8, 0.5), (12, 8, 0.9)],
    )
    def test_identical_winners_and_pareto(self, n, k, p):
        fast = optimize_config(n, k, p)
        reference = _reference_optimize(n, k, p)
        assert fast.best_for_writes == reference.best_for_writes
        assert fast.best_for_reads == reference.best_for_reads
        assert fast.best_balanced == reference.best_balanced
        assert fast.pareto == reference.pareto
        assert fast.evaluated == reference.evaluated

    @pytest.mark.parametrize("n, k, p", [(10, 6, 0.8), (20, 8, 0.9)])
    def test_two_level_cap_identical_to_reference(self, n, k, p):
        # max_h = 2 prunes the shape space; the cold engine must still
        # evaluate exactly the reference's points and agree on the result.
        occupancy_cache_clear()
        fast = optimize_config(n, k, p, max_h=2)
        reference = _reference_optimize(n, k, p, max_h=2)
        assert fast == reference
        assert fast.evaluated == reference.evaluated >= 1

    def test_sweep_matches_single_p_calls(self):
        ps = (0.4, 0.6, 0.8)
        swept = optimize_config_sweep(9, 6, ps)
        assert swept == tuple(optimize_config(9, 6, p) for p in ps)

    def test_sweep_jobs2_identical_to_serial(self):
        # The shape-family fan-out is pure enumeration: any worker count
        # must reassemble the exact serial result tuple.
        ps = (0.5, 0.9)
        assert optimize_config_sweep(9, 6, ps, jobs=2) == optimize_config_sweep(
            9, 6, ps
        )

    def test_sweep_validates_each_p(self):
        with pytest.raises(ConfigurationError):
            optimize_config_sweep(9, 6, (0.5, 1.0))
