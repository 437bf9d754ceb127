#!/usr/bin/env python3
"""Quickstart: strongly consistent reads/writes over an erasure-coded stripe.

Declares the whole system — a 9-node cluster storing a (9, 6) MDS stripe
with each block's consistency group on a trapezoid — as one
:class:`repro.api.SystemSpec`, builds it through the facade's registry,
and demonstrates the TRAP-ERC protocol: quorum writes with in-place
parity deltas (Algorithm 1), quorum reads with direct and decode paths
(Algorithm 2), and recovery via the anti-entropy service. The spec
serializes to JSON, so the same configuration can be re-run with
``python -m repro.cli run --config <file>``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import SystemSpec, build_system
from repro.core import ReadCase


def main() -> None:
    # --- declare: (9, 6) code, trapezoid with levels (1, 3), w = (1, 2) --
    spec = SystemSpec.trapezoid(n=9, k=6, a=2, b=1, h=1, w=2, seed=0)
    print("Declarative spec (JSON-serializable):")
    print(" ", spec.to_json(indent=None)[:72], "...")
    print()

    # --- build: one factory call replaces the old hand-wiring ------------
    system = build_system(spec)
    protocol, cluster, code = system.engine, system.cluster, system.code
    repair = system.repair

    print("Cluster   :", len(cluster), "nodes")
    print("Code      : (n=9, k=6) MDS over GF(2^8) — tolerates 3 erasures")
    print("Trapezoid : levels", system.quorum.shape.level_sizes, "w =", system.quorum.w)
    print("Group size: n - k + 1 =", system.layout.group_size, "nodes per block")
    print()

    # --- load the initial stripe (seeded from spec.seed) ------------------
    data = system.initialize()
    print(f"Initialized {code.k} data blocks of {data.shape[1]} bytes "
          "(version 0 everywhere).")

    # --- a quorum write (Algorithm 1) ------------------------------------
    new_value = np.frombuffer(b"trapezoid quorum protocol hello!", dtype=np.uint8).copy()
    result = protocol.write_block(2, new_value)
    print(
        f"Write block 2 -> success={result.success} version={result.version} "
        f"acks/level={result.acks_per_level} messages={result.messages}"
    )

    # --- a direct read (Algorithm 2, Case 1) -----------------------------
    read = protocol.read_block(2)
    print(
        f"Read  block 2 -> case={read.case.value} version={read.version} "
        f"payload={bytes(read.value[:9])!r}..."
    )

    # --- kill the data node: the read must decode (Case 2) ---------------
    cluster.fail(2)
    read = protocol.read_block(2)
    assert read.case == ReadCase.DECODE
    print(
        f"Read  block 2 with N_2 down -> case={read.case.value} "
        f"(reconstructed from {code.k} fragments), payload intact: "
        f"{bytes(read.value[:9])!r}..."
    )

    # --- writes survive parity failures up to the quorum bound -----------
    cluster.recover(2)
    cluster.fail(8)  # one parity down: w_1 = 2 of 3 still reachable
    value = system.rng.integers(0, 256, data.shape[1], dtype=np.int64).astype(np.uint8)
    result = protocol.write_block(0, value)
    print(f"Write with parity 8 down -> success={result.success} (quorum met)")

    # --- the recovered node is stale until anti-entropy runs -------------
    cluster.recover(8)
    print("Parity 8 stale after recovery:", repair.is_parity_stale(8))
    repaired = repair.sync_all()
    print(f"Anti-entropy repaired {repaired} record(s); stale now:",
          repair.is_parity_stale(8))

    # --- storage accounting (the paper's Figure 5) -----------------------
    from repro.analysis import storage_erc, storage_fr, write_availability

    print()
    print(
        "Storage per block: ERC n/k = %.3f blocks vs FR n-k+1 = %.0f blocks"
        % (storage_erc(9, 6), storage_fr(9, 6))
    )
    print("Availability hooks: write avail at p=0.9 ->",
          f"{float(write_availability(system.quorum, 0.9)):.4f}")
    print("Done.")


if __name__ == "__main__":
    main()
