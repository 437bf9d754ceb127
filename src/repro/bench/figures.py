"""Data-series generators for every figure of the paper.

Each ``figN_series`` function regenerates the data behind the paper's
Figure N, returning a :class:`FigureSeries` (x grid + named columns) that
``repro figures`` renders as text and CSV; ``baselines_series`` sets the
trapezoid beside the classical quorum systems. The canonical configuration
was calibrated against the figure anchors quoted in the paper's prose (see
``repro.bench.calibrate``):

* n = 15, k = 8  =>  Nbnode = n - k + 1 = 8,
* trapezoid shape (a=2, b=3, h=1): levels (3, 5),
* eq. 16 write-quorum vector with w in 1..s_1 = 5, anchor w = 3.

With these, eq. 10 gives FR read availability 0.7500 at p = 0.5 and
eq. 13 gives 0.6351 — the paper's "about 75%" vs "just 63%".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.availability import (
    read_availability_erc,
    read_availability_fr,
    write_availability,
)
from repro.analysis.exact import exact_read_erc
from repro.analysis.storage import storage_series
from repro.errors import ConfigurationError
from repro.quorum import (
    GridSystem,
    MajoritySystem,
    RowaSystem,
    TrapezoidQuorum,
    TrapezoidShape,
    TrapezoidSystem,
    TreeSystem,
)

__all__ = [
    "FIG_N",
    "FIG_K",
    "FIG_SHAPE",
    "FIG_W_ANCHOR",
    "fig_quorum",
    "FigureSeries",
    "fig1_layout",
    "fig2_series",
    "fig3_series",
    "fig4_quorum",
    "fig4_series",
    "fig5_series",
    "baselines_series",
    "default_p_grid",
]

#: Calibrated canonical configuration (see module docstring).
FIG_N = 15
FIG_K = 8
FIG_SHAPE = TrapezoidShape(2, 3, 1)
FIG_W_ANCHOR = 3


def fig_quorum(w: int = FIG_W_ANCHOR) -> TrapezoidQuorum:
    """The canonical trapezoid quorum with eq.-16 parameter ``w``."""
    return TrapezoidQuorum.uniform(FIG_SHAPE, w)


def default_p_grid() -> np.ndarray:
    """Node-availability grid used by the figures: 0.05 .. 1.00."""
    return np.round(np.arange(0.05, 1.0001, 0.05), 10)


@dataclass
class FigureSeries:
    """One figure's regenerated data: an x grid plus named y columns."""

    name: str
    xlabel: str
    x: np.ndarray
    columns: dict[str, np.ndarray]
    notes: str = ""

    def __post_init__(self) -> None:
        for label, col in self.columns.items():
            if np.asarray(col).shape != np.asarray(self.x).shape:
                raise ConfigurationError(
                    f"column {label!r} has shape {np.asarray(col).shape}, "
                    f"expected {np.asarray(self.x).shape}"
                )

    def render_text(self, precision: int = 4) -> str:
        """Fixed-width table (the harness prints this per figure)."""
        labels = list(self.columns)
        width = max(10, max(len(l) for l in labels) + 2)
        header = f"{self.xlabel:>8} " + " ".join(f"{l:>{width}}" for l in labels)
        lines = [self.name, "=" * len(self.name)]
        if self.notes:
            lines.append(self.notes)
        lines.append(header)
        lines.append("-" * len(header))
        for idx, xv in enumerate(self.x):
            row = f"{xv:8.2f} " + " ".join(
                f"{self.columns[l][idx]:>{width}.{precision}f}" for l in labels
            )
            lines.append(row)
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """Dump as CSV with the x column first."""
        labels = list(self.columns)
        data = np.column_stack([self.x] + [self.columns[l] for l in labels])
        header = ",".join([self.xlabel] + labels)
        np.savetxt(path, data, delimiter=",", header=header, comments="")


# --------------------------------------------------------------------- #
# Figure 1 — the trapezoid layout illustration
# --------------------------------------------------------------------- #

def fig1_layout() -> str:
    """Figure 1: the Nbnode = 15 trapezoid with s_l = 2l + 3.

    Returns the ASCII rendering of the three levels, sizes (3, 5, 7).
    """
    shape = TrapezoidShape(2, 3, 2)
    art = shape.ascii_art()
    return (
        "Figure 1: trapezoid layout, Nbnode = 15, s_l = 2l + 3 "
        "(a=2, b=3, h=2)\n" + art
    )


# --------------------------------------------------------------------- #
# Figure 2 — write availability of TRAP-ERC vs p, curves over w
# --------------------------------------------------------------------- #

def fig2_series(p: np.ndarray | None = None) -> FigureSeries:
    """Write availability (eqs. 8-9) for w = 1..s_1.

    Identical for TRAP-FR and TRAP-ERC (the paper's "first noticeable
    point"); the curves show the cost of larger write quorums.
    """
    p = default_p_grid() if p is None else np.asarray(p, dtype=np.float64)
    s1 = FIG_SHAPE.level_size(1)
    columns = {
        f"w={w}": write_availability(fig_quorum(w), p) for w in range(1, s1 + 1)
    }
    return FigureSeries(
        name=f"Figure 2: TRAP-ERC write availability, n={FIG_N}, k={FIG_K}, "
        f"shape (a=2,b=3,h=1)",
        xlabel="p",
        x=p,
        columns=columns,
        notes="P_write = prod_l Phi_{s_l}(w_l, s_l); identical for FR and ERC.",
    )


# --------------------------------------------------------------------- #
# Figure 3 — read availability, TRAP-ERC vs TRAP-FR
# --------------------------------------------------------------------- #

def fig3_series(p: np.ndarray | None = None, w: int = FIG_W_ANCHOR) -> FigureSeries:
    """Read availability of TRAP-FR (eq. 10) vs TRAP-ERC (eq. 13).

    Also includes the exact Algorithm-2 availability (our enumeration) to
    quantify the paper's P2 approximation.
    """
    p = default_p_grid() if p is None else np.asarray(p, dtype=np.float64)
    quorum = fig_quorum(w)
    columns = {
        "TRAP-FR (eq.10)": read_availability_fr(quorum, p),
        "TRAP-ERC (eq.13)": read_availability_erc(quorum, FIG_N, FIG_K, p),
        "TRAP-ERC (exact)": exact_read_erc(quorum, FIG_N, FIG_K, p),
    }
    return FigureSeries(
        name=f"Figure 3: read availability, n={FIG_N}, k={FIG_K}, w={w}",
        xlabel="p",
        x=p,
        columns=columns,
        notes="Paper anchors at p=0.5: FR ~ 0.75, ERC ~ 0.63; curves merge for p >= 0.8.",
    )


# --------------------------------------------------------------------- #
# Figure 4 — read availability of TRAP-ERC vs p for growing n - k
# --------------------------------------------------------------------- #

def _fig4_shape(nbnode: int) -> TrapezoidShape:
    """Two-level shapes of the canonical family for the fig-4 sweep.

    Keeps b = 3, h = 1 and grows the base: (a = nbnode - 6, 3, 1) for
    nbnode >= 6; the smallest budget uses (2, 1, 1).
    """
    if nbnode >= 6:
        return TrapezoidShape(nbnode - 6, 3, 1)
    if nbnode == 4:
        return TrapezoidShape(2, 1, 1)
    raise ConfigurationError(f"unsupported fig-4 node budget {nbnode}")


def fig4_quorum(k: int) -> TrapezoidQuorum:
    """Per-level-majority quorum of the fig-4 family for a given k.

    Using ``w_l = floor(s_l / 2) + 1`` on every level keeps the quorum
    policy constant while the trapezoid grows with n - k; at the anchor
    configuration (k = 8) this coincides with the calibrated w = 3.
    """
    shape = _fig4_shape(FIG_N - k + 1)
    w = tuple(shape.level_size(l) // 2 + 1 for l in shape.levels)
    return TrapezoidQuorum(shape, w)


def fig4_series(
    p: np.ndarray | None = None, ks: tuple[int, ...] = (12, 10, 8, 6, 4)
) -> FigureSeries:
    """TRAP-ERC read availability (eq. 13) as redundancy n - k grows.

    n is fixed at 15 (as in all the paper's figures) and k swept downward,
    so each curve has Nbnode = 16 - k trapezoid nodes and a per-level
    majority write quorum. The paper's claim: "the greater this difference
    is ... the better is the read availability"; it holds everywhere for
    p >= 0.3. At p <= 0.2 the discrete shape changes cause sub-0.5 %
    inversions: n-k = 7 falls below n-k = 5 by at most 0.004, and at
    p = 0.05 n-k = 9 falls below n-k = 7 by 1.2e-5.
    """
    p = default_p_grid() if p is None else np.asarray(p, dtype=np.float64)
    columns: dict[str, np.ndarray] = {}
    for k in ks:
        quorum = fig4_quorum(k)
        columns[f"n-k={FIG_N - k}"] = read_availability_erc(quorum, FIG_N, k, p)
    return FigureSeries(
        name=f"Figure 4: TRAP-ERC read availability vs redundancy, n={FIG_N}",
        xlabel="p",
        x=p,
        columns=columns,
        notes="Larger n - k (bigger trapezoid, more parities) => higher availability.",
    )


# --------------------------------------------------------------------- #
# Figure 5 — storage used / blocksize vs k
# --------------------------------------------------------------------- #

def fig5_series(n: int = FIG_N, ks=None) -> FigureSeries:
    """Storage per data block (eqs. 14-15) as a function of k."""
    ks = list(range(1, n)) if ks is None else [int(k) for k in ks]
    karr, erc, fr = storage_series(n, ks)
    return FigureSeries(
        name=f"Figure 5: storage used / blocksize, n={n}",
        xlabel="k",
        x=karr.astype(np.float64),
        columns={"TRAP-ERC (n/k)": erc, "TRAP-FR (n-k+1)": fr},
        notes=(
            "Eq. 14 vs eq. 15. At k=8: FR = 8, ERC = 1.875, so ERC saves "
            "1 - 1.875/8 = 77% (the prose's '4 blocks / 50%' example is "
            "inconsistent with eq. 15)."
        ),
    )


# --------------------------------------------------------------------- #
# Baselines — the trapezoid vs the classical quorum systems
# --------------------------------------------------------------------- #

def baselines_series(p: np.ndarray | None = None) -> FigureSeries:
    """Write/read availability of the trapezoid vs ROWA, Majority, Grid, Tree.

    The paper's related-work quorum systems on the canonical trapezoid's
    8-node budget. ROWA dominates reads and collapses on writes, Majority
    is symmetric, and the trapezoid buys reads at a moderate write cost.
    """
    p = default_p_grid() if p is None else np.asarray(p, dtype=np.float64)
    systems = {
        "trapezoid": TrapezoidSystem(fig_quorum()),
        "majority-8": MajoritySystem(8),
        "rowa-8": RowaSystem(8),
        "grid-2x4": GridSystem(2, 4),
        "tree-h2": TreeSystem(2),
    }
    columns = {}
    for label, system in systems.items():
        columns[f"{label}_write"] = system.write_availability(p)
        columns[f"{label}_read"] = system.read_availability(p)
    return FigureSeries(
        name="Baselines: trapezoid vs classical quorum systems, 8-node budget",
        xlabel="p",
        x=p,
        columns=columns,
        notes="tree-h2 has 7 nodes; every other system has 8.",
    )
