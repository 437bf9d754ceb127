#!/usr/bin/env python3
"""Virtual-machine disk on TRAP-ERC: the paper's motivating application.

Creates a 48-block virtual disk striped as (9, 6) erasure-coded stripes
over a 9-node cluster, then drives it with a VM-style workload (write
bursts + hot-set random IO) while nodes fail and recover mid-run. A
failed operation is reported, not retried; anti-entropy runs whenever
nodes come back. Every read returns the last acknowledged write or a
later failed one.

Run:  python examples/virtual_disk.py
"""

import numpy as np

from repro.cluster import Cluster
from repro.sim import OpKind, vm_disk_workload
from repro.storage import VirtualDisk


def main() -> None:
    rng = np.random.default_rng(7)
    cluster = Cluster(9)
    disk = VirtualDisk(cluster, num_blocks=48, block_size=512, n=9, k=6)
    disk.format()

    print(f"Virtual disk: {disk.num_blocks} blocks x {disk.block_size} B "
          f"({disk.capacity_bytes()} B logical)")
    print(f"Physical footprint: {disk.raw_storage_bytes():.0f} B "
          f"(efficiency {disk.storage_efficiency():.2f} = k/n)")
    print(f"Full replication at equal fault tolerance would use "
          f"{disk.num_blocks * (9 - 6 + 1) * 512} B")
    print()

    # Ground truth of what the guest believes it wrote. A write whose
    # quorum failed is *indeterminate* (it may or may not become visible,
    # like any failed quorum write), so the consistency oracle accepts
    # either the last acknowledged value or any later indeterminate one.
    guest_view: dict[int, bytes] = {}
    indeterminate: dict[int, set[bytes]] = {}

    workload = vm_disk_workload(400, disk.num_blocks, rng=rng)
    failures = {80: [0], 160: [6, 7], 240: [3], 320: []}  # step -> nodes to fail
    verified = repaired = 0
    failed = {OpKind.READ: 0, OpKind.WRITE: 0}

    for step, op in enumerate(workload):
        if step in failures:
            cluster.recover_all()
            repaired += disk.repair_all()
            for nid in failures[step]:
                cluster.fail(nid)
            state = f"down={failures[step]}" if failures[step] else "all up"
            print(f"  step {step:3d}: failure injection -> {state}")

        if op.kind is OpKind.WRITE:
            payload = np.random.default_rng(op.payload_seed).integers(
                0, 256, disk.block_size, dtype=np.int64
            ).astype(np.uint8).tobytes()
            if disk.write(op.block, payload):
                guest_view[op.block] = payload
                indeterminate[op.block] = set()
            else:
                failed[op.kind] += 1
                indeterminate.setdefault(op.block, set()).add(payload)
        else:
            data = disk.read(op.block)
            failed[op.kind] += data is None
            if data is not None and op.block in guest_view:
                allowed = data == guest_view[op.block] or data in indeterminate.get(
                    op.block, set()
                )
                assert allowed, (
                    f"CONSISTENCY VIOLATION at step {step}, block {op.block}: "
                    "read returned a value that was never written there"
                )
                verified += 1

    cluster.recover_all()
    repaired += disk.repair_all()

    writes = sum(op.kind is OpKind.WRITE for op in workload)
    print()
    print(f"Workload complete: {writes} writes, {len(workload) - writes} reads")
    print(f"  failed writes: {failed[OpKind.WRITE]}, "
          f"failed reads: {failed[OpKind.READ]}")
    print(f"  stale records repaired: {repaired}")
    print(f"  reads verified against guest view: {verified} — all consistent")
    print()
    print("Network traffic:", cluster.network.stats.messages, "messages,",
          cluster.network.stats.bytes_sent, "payload bytes")


if __name__ == "__main__":
    main()
