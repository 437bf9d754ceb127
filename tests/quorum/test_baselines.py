"""Tests for the baseline quorum systems: ROWA, Majority, Grid, Tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.quorum import (
    GridSystem,
    MajoritySystem,
    RowaSystem,
    TrapezoidQuorum,
    TrapezoidShape,
    TrapezoidSystem,
    TreeSystem,
    verify_intersection,
)

P_GRID = np.linspace(0.05, 0.95, 10)


class TestMajority:
    def test_threshold(self):
        assert MajoritySystem(5).threshold == 3
        assert MajoritySystem(6).threshold == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MajoritySystem(0)

    def test_predicates(self):
        m = MajoritySystem(5)
        assert m.is_write_quorum({0, 1, 2})
        assert not m.is_write_quorum({0, 1})
        assert m.is_read_quorum({2, 3, 4})

    def test_find_quorum(self):
        m = MajoritySystem(5)
        assert m.find_write_quorum({0, 1, 2, 3}) is not None
        assert m.find_write_quorum({0, 1}) is None

    def test_availability_closed_form_matches_enumeration(self):
        m = MajoritySystem(5)
        closed = m.write_availability(P_GRID)
        exact = m._enumerate_availability(P_GRID, m.is_write_quorum)
        np.testing.assert_allclose(closed, exact, atol=1e-12)

    def test_intersections(self):
        assert verify_intersection(MajoritySystem(5))
        assert verify_intersection(MajoritySystem(6))

    def test_availability_at_half(self):
        # With odd n and p=0.5, majority availability is exactly 0.5.
        m = MajoritySystem(7)
        assert m.write_availability(0.5) == pytest.approx(0.5)


class TestRowa:
    def test_predicates(self):
        r = RowaSystem(4)
        assert r.is_write_quorum({0, 1, 2, 3})
        assert not r.is_write_quorum({0, 1, 2})
        assert r.is_read_quorum({2})
        assert not r.is_read_quorum(set())

    def test_find_quorum(self):
        r = RowaSystem(3)
        assert r.find_write_quorum({0, 1, 2}) == frozenset({0, 1, 2})
        assert r.find_write_quorum({0, 1}) is None
        assert r.find_read_quorum({2, 1}) == frozenset({1})
        assert r.find_read_quorum(set()) is None

    def test_availability_closed_forms(self):
        r = RowaSystem(4)
        np.testing.assert_allclose(r.write_availability(P_GRID), P_GRID**4)
        np.testing.assert_allclose(
            r.read_availability(P_GRID), 1 - (1 - P_GRID) ** 4
        )

    def test_closed_form_matches_enumeration(self):
        r = RowaSystem(4)
        np.testing.assert_allclose(
            r.write_availability(P_GRID),
            r._enumerate_availability(P_GRID, r.is_write_quorum),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            r.read_availability(P_GRID),
            r._enumerate_availability(P_GRID, r.is_read_quorum),
            atol=1e-12,
        )

    def test_intersections(self):
        assert verify_intersection(RowaSystem(4))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RowaSystem(0)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridSystem(0, 3)

    def test_read_quorum_column_cover(self):
        g = GridSystem(3, 3)
        assert g.is_read_quorum({0, 1, 2})  # row 0 covers all columns
        assert not g.is_read_quorum({0, 3, 6})  # one column only

    def test_write_quorum_needs_full_column(self):
        g = GridSystem(3, 3)
        # column 0 = {0, 3, 6}; plus one node in columns 1 and 2
        assert g.is_write_quorum({0, 3, 6, 1, 2})
        assert not g.is_write_quorum({0, 3, 1, 2})  # column 0 incomplete

    def test_find_read_quorum(self):
        g = GridSystem(2, 3)
        rq = g.find_read_quorum(set(range(6)))
        assert rq is not None and g.is_read_quorum(rq)
        assert len(rq) == 3

    def test_find_write_quorum(self):
        g = GridSystem(2, 3)
        wq = g.find_write_quorum(set(range(6)))
        assert wq is not None and g.is_write_quorum(wq)
        assert len(wq) == 2 + 2  # full column + one per other column

    def test_find_write_quorum_no_full_column(self):
        g = GridSystem(2, 2)
        # kill one node per column
        assert g.find_write_quorum({0, 3}) is None

    def test_availability_closed_form_matches_enumeration(self):
        g = GridSystem(2, 3)
        np.testing.assert_allclose(
            g.write_availability(P_GRID),
            g._enumerate_availability(P_GRID, g.is_write_quorum),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            g.read_availability(P_GRID),
            g._enumerate_availability(P_GRID, g.is_read_quorum),
            atol=1e-12,
        )

    def test_intersections(self):
        assert verify_intersection(GridSystem(2, 2))
        assert verify_intersection(GridSystem(3, 2))
        assert verify_intersection(GridSystem(2, 3))


class TestTree:
    def test_size(self):
        assert TreeSystem(0).size == 1
        assert TreeSystem(2).size == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TreeSystem(-1)

    def test_root_path_quorum(self):
        t = TreeSystem(2)
        # root + left child + left-left leaf
        assert t.is_write_quorum({0, 1, 3})

    def test_bypass_failed_root(self):
        t = TreeSystem(2)
        # both children's quorums: {1,3} and {2,5}
        assert t.is_write_quorum({1, 3, 2, 5})
        assert not t.is_write_quorum({1, 3})

    def test_leaves_only_quorum(self):
        t = TreeSystem(2)
        # All leaves form a quorum (bypass everything).
        assert t.is_write_quorum({3, 4, 5, 6})

    def test_find_quorum_prefers_paths(self):
        t = TreeSystem(2)
        q = t.find_write_quorum(set(range(7)))
        assert q == frozenset({0, 1, 3})

    def test_no_quorum_when_leaves_dead(self):
        t = TreeSystem(1)
        # single node alive at root: root needs a child quorum
        assert t.find_write_quorum({0}) is None

    def test_availability_matches_enumeration(self):
        for height in (1, 2):
            t = TreeSystem(height)
            np.testing.assert_allclose(
                t.write_availability(P_GRID),
                t._enumerate_availability(P_GRID, t.is_write_quorum),
                atol=1e-12,
            )

    def test_intersections(self):
        assert verify_intersection(TreeSystem(1))
        assert verify_intersection(TreeSystem(2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), height=st.integers(1, 3))
    def test_any_two_quorums_intersect(self, data, height):
        t = TreeSystem(height)
        alive1 = {i for i in range(t.size) if data.draw(st.booleans())}
        alive2 = {i for i in range(t.size) if data.draw(st.booleans())}
        q1 = t.find_write_quorum(alive1)
        q2 = t.find_write_quorum(alive2)
        if q1 is not None and q2 is not None:
            assert q1 & q2


class TestCrossSystemMonotonicity:
    @pytest.mark.parametrize(
        "system",
        [
            MajoritySystem(5),
            RowaSystem(4),
            GridSystem(2, 3),
            TreeSystem(2),
            MajoritySystem(8),
            RowaSystem(8),
            GridSystem(2, 4),
            TrapezoidSystem(TrapezoidQuorum.uniform(TrapezoidShape(2, 3, 1), 3)),
        ],
        ids=["majority", "rowa", "grid", "tree", "majority8", "rowa8", "grid2x4", "trapezoid8"],
    )
    def test_availability_monotone_in_p(self, system):
        p = np.linspace(0.01, 0.99, 50)
        for fn in (system.write_availability, system.read_availability):
            vals = fn(p)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= -1e-12) & (vals <= 1 + 1e-12))
