"""Figure-regeneration harness: the data behind the paper's Figures 1-5.

``repro.bench.figures`` holds one series generator per paper figure plus
the classical-quorum baselines; ``repro.bench.calibrate`` documents how
the canonical configuration was matched to the paper's quoted anchor
numbers; ``repro.bench.runner`` renders and persists everything (also
exposed as ``python -m repro.bench``, an alias of ``repro figures``).
"""

from repro.bench.calibrate import CalibrationResult, scan_fig3_configs
from repro.bench.figures import (
    FIG_K,
    FIG_N,
    FIG_SHAPE,
    FIG_W_ANCHOR,
    FigureSeries,
    baselines_series,
    default_p_grid,
    fig1_layout,
    fig2_series,
    fig3_series,
    fig4_quorum,
    fig4_series,
    fig5_series,
    fig_quorum,
)
from repro.bench.runner import all_series, run_all

__all__ = [
    "FIG_N",
    "FIG_K",
    "FIG_SHAPE",
    "FIG_W_ANCHOR",
    "fig_quorum",
    "FigureSeries",
    "default_p_grid",
    "fig1_layout",
    "fig2_series",
    "fig3_series",
    "fig4_quorum",
    "fig4_series",
    "fig5_series",
    "baselines_series",
    "CalibrationResult",
    "scan_fig3_configs",
    "all_series",
    "run_all",
]
