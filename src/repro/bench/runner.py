"""Rendering and persistence for the figure harness.

``repro figures`` (alias ``python -m repro.bench``) regenerates every
figure's series, prints the tables, and writes one file per series under
``--out`` (default ``results/`` in the working directory).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench.figures import (
    FigureSeries,
    baselines_series,
    fig1_layout,
    fig2_series,
    fig3_series,
    fig4_series,
    fig5_series,
)

__all__ = ["all_series", "run_all"]


def all_series() -> dict[str, FigureSeries]:
    """Every regenerated data series (Figures 2-5, baselines), by file stem."""
    return {
        "fig2": fig2_series(),
        "fig3": fig3_series(),
        "fig4": fig4_series(),
        "fig5": fig5_series(),
        "baselines": baselines_series(),
    }


def run_all(base: str | os.PathLike | None = None, quiet: bool = False) -> list[Path]:
    """Regenerate all figures; print tables; write CSVs. Returns paths."""
    out_dir = Path("results" if base is None else base)
    out_dir.mkdir(parents=True, exist_ok=True)

    layout = fig1_layout()
    if not quiet:
        print(layout)
        print()
    fig1_path = out_dir / "fig1_layout.txt"
    fig1_path.write_text(layout + "\n")
    written = [fig1_path]

    for stem, series in all_series().items():
        if not quiet:
            print(series.render_text())
            print()
        path = out_dir / f"{stem}.csv"
        series.to_csv(path)
        written.append(path)
    return written
