"""Rendering and persistence for the figure harness.

``repro figures`` (alias ``python -m repro.bench``) regenerates every
figure's series, prints the tables, and writes CSVs under ``results/``
(or ``--out``). The pytest benchmarks call the same entry points, so the
printed rows and the CSV artifacts always agree.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench.figures import (
    FigureSeries,
    fig1_layout,
    fig2_series,
    fig3_series,
    fig4_series,
    fig5_series,
)

__all__ = ["all_series", "run_all", "results_dir"]


def results_dir(base: str | os.PathLike | None = None) -> Path:
    """The output directory, created on demand.

    ``base`` if given, else ``$REPRO_RESULTS_DIR``, else ``results/`` in
    the current working directory.
    """
    if base is None:
        base = os.environ.get("REPRO_RESULTS_DIR", Path.cwd() / "results")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def all_series() -> list[FigureSeries]:
    """Every figure's regenerated data series (Figures 2-5)."""
    return [fig2_series(), fig3_series(), fig4_series(), fig5_series()]


def run_all(base: str | os.PathLike | None = None, quiet: bool = False) -> list[Path]:
    """Regenerate all figures; print tables; write CSVs. Returns paths."""
    out_dir = results_dir(base)
    written: list[Path] = []

    layout = fig1_layout()
    if not quiet:
        print(layout)
        print()
    fig1_path = out_dir / "fig1_layout.txt"
    fig1_path.write_text(layout + "\n")
    written.append(fig1_path)

    for idx, series in enumerate(all_series(), start=2):
        if not quiet:
            print(series.render_text())
            print()
        path = out_dir / f"fig{idx}.csv"
        series.to_csv(path)
        written.append(path)
    return written
