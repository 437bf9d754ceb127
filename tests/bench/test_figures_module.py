"""Tests for the figure-series generators and runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    FIG_K,
    FIG_N,
    FIG_SHAPE,
    FigureSeries,
    all_series,
    baselines_series,
    default_p_grid,
    fig1_layout,
    fig2_series,
    fig3_series,
    fig4_quorum,
    fig4_series,
    fig5_series,
    fig_quorum,
    run_all,
    scan_fig3_configs,
)
from repro.errors import ConfigurationError


class TestCanonicalConfig:
    def test_constants(self):
        assert (FIG_N, FIG_K) == (15, 8)
        assert FIG_SHAPE.level_sizes == (3, 5)
        assert FIG_SHAPE.total_nodes == FIG_N - FIG_K + 1

    def test_fig_quorum_default(self):
        q = fig_quorum()
        assert q.w == (2, 3)
        assert q.read_thresholds == (2, 3)

    def test_fig4_quorum_majority_per_level(self):
        q = fig4_quorum(8)
        assert q.w == (2, 3)  # coincides with the anchor configuration
        q12 = fig4_quorum(12)
        assert q12.shape.total_nodes == 4

    def test_p_grid(self):
        grid = default_p_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(1.0)
        assert np.all(np.diff(grid) > 0)


class TestFigureSeries:
    def test_column_shape_validated(self):
        with pytest.raises(ConfigurationError):
            FigureSeries("x", "p", np.arange(3.0), {"bad": np.arange(4.0)})

    def test_render_text_contains_data(self):
        series = fig5_series()
        text = series.render_text()
        assert "Figure 5" in text
        assert "TRAP-ERC (n/k)" in text
        assert "1.8750" in text  # k = 8 anchor

    def test_csv_roundtrip(self, tmp_path):
        series = fig2_series(np.array([0.5, 0.9]))
        path = tmp_path / "fig2.csv"
        series.to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0].startswith("p,")
        assert len(rows) == 3


class TestSeriesContents:
    def test_fig1_mentions_shape(self):
        art = fig1_layout()
        assert "s_l = 2l + 3" in art
        assert "l=0" in art and "l=1" in art and "l=2" in art

    def test_fig2_five_curves(self):
        series = fig2_series()
        assert list(series.columns) == [f"w={w}" for w in range(1, 6)]

    def test_fig3_columns(self):
        series = fig3_series()
        assert set(series.columns) == {
            "TRAP-FR (eq.10)",
            "TRAP-ERC (eq.13)",
            "TRAP-ERC (exact)",
        }

    def test_fig4_custom_ks(self):
        series = fig4_series(ks=(8, 4))
        assert list(series.columns) == ["n-k=7", "n-k=11"]

    def test_fig5_custom_ks(self):
        series = fig5_series(ks=[3, 5])
        assert series.x.tolist() == [3.0, 5.0]

    def test_all_series_keyed_by_file_stem(self):
        assert list(all_series()) == ["fig2", "fig3", "fig4", "fig5", "baselines"]


ARTIFACTS = [
    "baselines.csv",
    "fig1_layout.txt",
    "fig2.csv",
    "fig3.csv",
    "fig4.csv",
    "fig5.csv",
]


class TestRunner:
    def test_run_all_writes_artifacts(self, tmp_path):
        paths = run_all(tmp_path, quiet=True)
        assert sorted(p.name for p in paths) == ARTIFACTS
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_module_entry_is_figures_verb(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["--quiet", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ARTIFACTS
        assert "Wrote:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "x"],
            ["--tiny"],
            ["--profile"],
            ["--sections", "mc"],
            ["--jobs", "2"],
        ],
        ids=lambda argv: argv[0].lstrip("-"),
    )
    def test_module_entry_rejects_retired_perf_flags(self, argv, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--quiet", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not any(tmp_path.iterdir())  # usage error before any figure

    def test_csvs_carry_the_paper_anchors(self, tmp_path):
        import csv

        from repro.bench.__main__ import main

        def row(name, col, x):
            with open(tmp_path / name, newline="") as fh:
                for r in csv.DictReader(fh):
                    if abs(float(r[col]) - x) < 1e-9:
                        return r
            raise AssertionError(f"{name}: no row with {col} = {x}")

        assert main(["--quiet", "--out", str(tmp_path)]) == 0
        fig3 = row("fig3.csv", "p", 0.5)
        assert float(fig3["TRAP-FR (eq.10)"]) == pytest.approx(0.75, abs=1e-4)
        assert float(fig3["TRAP-ERC (eq.13)"]) == pytest.approx(0.635, abs=1e-3)
        fig5 = row("fig5.csv", "k", 8)
        assert float(fig5["TRAP-ERC (n/k)"]) == 1.875
        assert float(fig5["TRAP-FR (n-k+1)"]) == 8
        # Baselines at p = 0.7: ROWA has the best reads and the worst
        # writes; the trapezoid's version check beats majority on reads.
        base = {k: float(v) for k, v in row("baselines.csv", "p", 0.7).items()}
        reads = [v for k, v in base.items() if k.endswith("_read")]
        writes = [v for k, v in base.items() if k.endswith("_write")]
        assert base["rowa-8_read"] == max(reads)
        assert base["rowa-8_write"] == min(writes)
        assert base["trapezoid_read"] > base["majority-8_read"]

    @pytest.mark.parametrize(
        "make",
        [fig2_series, fig3_series, fig4_series, fig5_series, baselines_series],
        ids=["fig2", "fig3", "fig4", "fig5", "baselines"],
    )
    def test_rendered_tables_cite_no_document(self, make):
        assert ".md" not in make().render_text()

    def test_layout_cites_no_document(self):
        assert ".md" not in fig1_layout()

    def test_run_all_defaults_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_all(quiet=True)
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ARTIFACTS


class TestCalibration:
    def test_scan_returns_sorted(self):
        results = scan_fig3_configs(top=5)
        scores = [r.score for r in results]
        assert scores == sorted(scores)

    def test_winner_hits_anchors(self):
        best = scan_fig3_configs(n=FIG_N, top=1)[0]
        assert (best.k, best.a, best.b, best.h, best.w) == (FIG_K, 2, 3, 1, 3)
        assert best.score < 0.01
        assert best.fr_at_anchor == pytest.approx(0.75, abs=1e-6)
        assert best.erc_at_anchor == pytest.approx(0.635, abs=1e-3)

    def test_restricted_k_scan(self):
        results = scan_fig3_configs(ks=[4], top=3)
        assert all(r.k == 4 for r in results)
