"""The paper's claims about Figures 2-4 and the (w, shape) ablations,
checked on the regenerated series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    exact_read_erc,
    read_availability_erc,
    read_availability_fr,
    write_availability,
)
from repro.bench import (
    FIG_K,
    FIG_N,
    FIG_SHAPE,
    fig2_series,
    fig3_series,
    fig4_series,
    fig_quorum,
)
from repro.quorum import TrapezoidQuorum, shapes_for_nbnode
from repro.sim import mc_read_availability_erc, mc_write_availability


def at(series, x: float) -> int:
    return int(np.argmin(np.abs(series.x - x)))


class TestFig2WriteAvailability:
    def test_monotone_in_p_and_anti_monotone_in_w(self):
        series = fig2_series()
        for label, col in series.columns.items():
            assert np.all(np.diff(col) >= -1e-12), label
        values = [series.columns[f"w={w}"][at(series, 0.7)] for w in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_high_at_usual_availability_for_moderate_w(self):
        series = fig2_series()
        for w in (1, 2, 3):
            assert series.columns[f"w={w}"][at(series, 0.9)] > 0.95

    def test_closed_form_vs_mc(self):
        quorum = fig_quorum(3)
        est = mc_write_availability(quorum, 0.7, trials=40_000, rng=0)
        assert est.contains(float(write_availability(quorum, 0.7)), z=4)


class TestFig3ReadAvailability:
    def test_eq13_vs_eq10_vs_exact(self):
        series = fig3_series()
        fr = series.columns["TRAP-FR (eq.10)"]
        erc = series.columns["TRAP-ERC (eq.13)"]
        exact = series.columns["TRAP-ERC (exact)"]
        # Below the convergence region eq. 13 sits under eq. 10; above it
        # the published approximation overshoots FR by < 0.2 % (its P2
        # term ignores the version check). The exact Algorithm-2 value is
        # under both: reads are FR reads plus a decode condition.
        low = series.x <= 0.7
        assert np.all(erc[low] <= fr[low] + 1e-9)
        assert np.max(erc - fr) < 0.002
        assert np.all(exact <= erc + 1e-9)
        # At p = 1/2 each column is a multiple of 2^-15: pin them exactly.
        half = at(series, 0.5)
        assert erc[half] == pytest.approx(0.6351318359375, abs=1e-12)
        assert exact[half] == pytest.approx(0.612335205078125, abs=1e-12)

    def test_exact_vs_mc(self):
        quorum = fig_quorum()
        est = mc_read_availability_erc(quorum, FIG_N, FIG_K, 0.5, trials=40_000, rng=1)
        assert est.contains(float(exact_read_erc(quorum, FIG_N, FIG_K, 0.5)), z=4)


class TestFig4ReadVsRedundancy:
    def test_more_redundancy_reads_better(self):
        series = fig4_series()
        labels = list(series.columns)
        assert labels == ["n-k=3", "n-k=5", "n-k=7", "n-k=9", "n-k=11"]
        for label in labels:
            assert np.all(np.diff(series.columns[label]) >= -1e-9), label
        # Strict ordering for p >= 0.3; sub-0.5 % inversions below it.
        mid = series.x >= 0.3
        for prev, cur in zip(labels, labels[1:]):
            lo, hi = series.columns[prev], series.columns[cur]
            assert np.all(hi[mid] >= lo[mid] - 1e-9), cur
            assert np.all(hi >= lo - 0.005), cur
        half = at(series, 0.5)
        assert series.columns["n-k=11"][half] - series.columns["n-k=3"][half] > 0.3


class TestWAblation:
    """Larger w: writes harder (eq. 9), reads easier (r_l = s_l - w_l + 1)."""

    @staticmethod
    def sweep(p: float) -> list[tuple[float, float]]:
        return [
            (
                float(write_availability(fig_quorum(w), p)),
                float(read_availability_erc(fig_quorum(w), FIG_N, FIG_K, p)),
            )
            for w in range(1, FIG_SHAPE.level_size(1) + 1)
        ]

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_monotone_trade_off(self, p):
        writes, reads = zip(*self.sweep(p))
        assert all(a >= b - 1e-12 for a, b in zip(writes, writes[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(reads, reads[1:]))

    def test_balanced_point_moves_up_with_p(self):
        # argmax over w of min(read, write): writes are the bottleneck at
        # p = 0.5 (w = 1 best); at p = 0.9 mid-range w costs little.
        def balanced(p: float) -> int:
            mins = [min(pair) for pair in self.sweep(p)]
            return 1 + int(np.argmax(mins))

        assert balanced(0.5) == 1
        assert balanced(0.9) >= balanced(0.5)


class TestShapeAblation:
    def test_flat_wins_writes_multilevel_wins_reads(self):
        # Every Nbnode = 8 shape (n = 15, k = 8), per-level majority, p = 0.7.
        rows = []
        for shape in shapes_for_nbnode(FIG_N - FIG_K + 1, max_h=4):
            w = tuple(shape.level_size(l) // 2 + 1 for l in shape.levels)
            quorum = TrapezoidQuorum(shape, w)
            rows.append(
                {
                    "h": shape.h,
                    "write": float(write_availability(quorum, 0.7)),
                    "read_fr": float(read_availability_fr(quorum, 0.7)),
                    "read_erc": float(read_availability_erc(quorum, FIG_N, FIG_K, 0.7)),
                }
            )
        assert len(rows) >= 4
        for r in rows:
            assert all(0.0 <= r[key] <= 1.0 for key in ("write", "read_fr", "read_erc"))
        flat = next(r for r in rows if r["h"] == 0)
        assert all(flat["write"] >= r["write"] - 1e-9 for r in rows)
        assert any(r["read_fr"] > flat["read_fr"] + 1e-6 for r in rows if r["h"] >= 1)
