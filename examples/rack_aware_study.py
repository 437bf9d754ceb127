#!/usr/bin/env python3
"""Rack-aware deployment study: correlated failures vs the paper's model.

The paper assumes independent node failures. Real clusters fail in
correlated groups (racks). This example quantifies, for the calibrated
(15, 8) configuration at a fixed marginal node availability:

1. how much rack correlation erodes the availability the closed forms
   promise, and
2. how much *rack-aware placement* — spreading a stripe's blocks across
   racks — recovers, compared with naive rack-oblivious placement that
   can colocate many blocks in one failure domain.

Run:  python examples/rack_aware_study.py
"""

import numpy as np

from repro.analysis import write_availability
from repro.bench import FIG_K, FIG_N, fig_quorum
from repro.cluster import RackTopology, make_rng, rack_aware_assignment
from repro.sim import level_membership_matrix

P_MARGINAL = 0.85
TRIALS = 120_000
QUORUM = fig_quorum(3)


def availability_for_assignment(
    topo: RackTopology, assignment: list[int], rack_q: float, rng
) -> tuple[float, float]:
    """(write, read) availability of block 0 under a node assignment.

    ``assignment`` lists the cluster nodes hosting stripe blocks 0..n-1;
    block 0's trapezoid group is block 0 plus the parity blocks. The
    alive matrix is drawn over the stripe's view of the racks (blocks
    grouped by the rack of their node), one column per block, so two
    assignments given the same seed share every rack and node coin
    (common random numbers): they differ only in which blocks a rack
    failure takes down, and at rack_q = 0 they give the same estimate.
    """
    node_q = topo.node_failure_for_marginal(rack_q, P_MARGINAL)
    blocks_by_rack = [
        [block for block, node in enumerate(assignment) if node in rack]
        for rack in topo.racks
    ]
    alive = RackTopology(blocks_by_rack).sample_alive(TRIALS, rack_q, node_q, rng=rng)
    group = [0] + list(range(FIG_K, FIG_N))
    counts = alive[:, group] @ level_membership_matrix(QUORUM).T
    write_ok = np.all(counts >= np.asarray(QUORUM.w), axis=1)
    check_ok = np.any(counts >= np.asarray(QUORUM.read_thresholds), axis=1)
    pool = alive[:, 1:FIG_N].sum(axis=1)
    read_ok = check_ok & (alive[:, 0] | (pool >= FIG_K))
    return float(write_ok.mean()), float(read_ok.mean())


def main() -> None:
    topo = RackTopology.uniform(FIG_N, 5)  # 5 racks x 3 nodes
    print(f"Cluster: {FIG_N} nodes in 5 racks of 3; marginal p = {P_MARGINAL}")
    print(f"Configuration: (n={FIG_N}, k={FIG_K}), trapezoid "
          f"{QUORUM.shape.level_sizes}, w={QUORUM.w}")
    print()
    predicted_write = float(write_availability(QUORUM, P_MARGINAL))
    print(f"Independence-model prediction (eq. 9): write = {predicted_write:.4f}")
    print()

    naive = list(range(FIG_N))  # blocks 0..14 on nodes 0..14: consecutive
    # Naive is accidentally rack-aware with round-robin racks, so build a
    # deliberately bad assignment: fill rack by rack.
    rack_by_rack = [node for rack in topo.racks for node in rack]
    aware = rack_aware_assignment(topo, FIG_N)

    print(f"{'scenario':>28} {'write':>8} {'read':>8}")
    print("-" * 48)
    for point, rack_q in enumerate((0.0, 0.05, 0.10)):
        for label, assignment in [
            ("rack-by-rack (worst)", rack_by_rack),
            ("rack-aware (spread)", aware),
        ]:
            w, r = availability_for_assignment(
                topo, assignment, rack_q, make_rng(point)
            )
            print(f"rack_q={rack_q:4.2f} {label:>20} {w:8.4f} {r:8.4f}")
        print()

    print("At rack_q = 0 both placements match the paper's model. As rack")
    print("correlation grows, packing a stripe into few racks collapses its")
    print("availability, while spreading blocks across racks preserves most")
    print("of it — placement is a first-order design choice the paper's")
    print("independence assumption hides.")


if __name__ == "__main__":
    main()
