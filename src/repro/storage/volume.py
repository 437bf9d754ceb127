"""Virtual disk: the paper's motivating application, built on TRAP-ERC.

"when users' data stored on virtual disks is accessed by several virtual
machines, a strict consistency protocol is required in any case to avoid
incoherent data" — this module is that use case: a logical block device
whose blocks are erasure-coded across the cluster and kept strongly
consistent by the trapezoid protocol.

A :class:`VirtualDisk` of ``num_blocks`` logical blocks of ``block_size``
bytes maps each group of k logical blocks onto one TRAP-ERC stripe.
Logical block b lives in stripe ``b // k`` as data block ``b % k``; reads
and writes go through Algorithms 2 and 1 respectively, so every logical
block keeps linearizable semantics under node failures.
"""

from __future__ import annotations

import numpy as np

from repro.api.build import _stripe
from repro.api.registry import protocol_entry
from repro.api.spec import ClusterSpec, PlacementSpec, SystemSpec, WorkloadSpec
from repro.cluster.cluster import Cluster
from repro.core.placement import IdentityPlacement, PlacementPolicy
from repro.core.trap_erc import TrapErcProtocol
from repro.erasure.code import MDSCode
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum, default_shape_for_nbnode

__all__ = ["VirtualDisk"]


class VirtualDisk:
    """A strongly consistent logical block device over an (n, k) code.

    Parameters
    ----------
    cluster:
        Storage cluster with at least n nodes.
    num_blocks:
        Logical capacity in blocks (rounded up to whole stripes internally).
    block_size:
        Bytes per logical block.
    n, k:
        Erasure-code parameters per stripe.
    quorum:
        Trapezoid specification; defaults to the canonical shape for
        n - k + 1 nodes with the paper's eq. 16 write-quorum vector.
    placement:
        Optional :class:`~repro.core.placement.PlacementPolicy` that
        assigns each stripe's blocks to nodes (e.g. RAID-5-style
        rotation); defaults to the identity layout on nodes 0..n-1.

    The arguments state a TRAP-ERC spec (``self.spec``, one stripe per k
    blocks); each stripe is built by the stripe constructor of
    :mod:`repro.api.build`, like every built system's.

    Examples
    --------
    >>> from repro.cluster import Cluster
    >>> disk = VirtualDisk(Cluster(9), num_blocks=12, block_size=64, n=9, k=6)
    >>> disk.format()
    >>> disk.write(5, b"hello world")
    True
    >>> disk.read(5)[:11]
    b'hello world'
    """

    def __init__(
        self,
        cluster: Cluster,
        num_blocks: int,
        block_size: int,
        n: int,
        k: int,
        quorum: TrapezoidQuorum | None = None,
        placement: PlacementPolicy | None = None,
    ) -> None:
        if num_blocks < 1:
            raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        if quorum is None:
            quorum = TrapezoidQuorum.uniform(default_shape_for_nbnode(n - k + 1))
        placement = placement or IdentityPlacement(n, k, n)
        if (placement.n, placement.k) != (n, k):
            raise ConfigurationError(f"placement is not for (n={n}, k={k})")
        self.num_stripes = -(-num_blocks // k)
        shape = quorum.shape
        self.spec = SystemSpec.trapezoid(
            n, k, shape.a, shape.b, shape.h, quorum.w,
            cluster=ClusterSpec(num_nodes=placement.num_nodes),
            placement=PlacementSpec(kind=placement.kind, stripes=self.num_stripes),
            workload=WorkloadSpec(block_length=block_size),
        )
        self.cluster = cluster
        self.num_blocks = int(num_blocks)
        self.block_size = int(block_size)
        self.code = MDSCode(n, k)
        self.quorum = quorum
        entry = protocol_entry(self.spec.protocol)
        built = [
            _stripe(self.spec, entry, cluster, self.code, s)
            for s in range(self.num_stripes)
        ]
        self.stripes: list[TrapErcProtocol] = [engine for _, engine, _, _ in built]
        self.repairs = [repair for _, _, _, repair in built]
        self._formatted = False

    # ------------------------------------------------------------------ #

    def _locate(self, block: int) -> tuple[TrapErcProtocol, int]:
        if not 0 <= block < self.num_blocks:
            raise ConfigurationError(
                f"block must be in [0, {self.num_blocks}), got {block}"
            )
        return self.stripes[block // self.code.k], block % self.code.k

    def format(self) -> None:
        """Zero-fill every stripe (requires the full cluster up)."""
        zeros = np.zeros((self.code.k, self.block_size), dtype=np.uint8)
        for stripe in self.stripes:
            stripe.initialize(zeros)
        self._formatted = True

    def _check_formatted(self) -> None:
        if not self._formatted:
            raise ConfigurationError("disk not formatted: call format() first")

    # ------------------------------------------------------------------ #

    def write(self, block: int, data: bytes) -> bool:
        """Write one logical block; pads/truncates to ``block_size``.

        Returns True iff the quorum write was acknowledged. A False return
        reports a failed write: it may or may not become visible, like any
        failed quorum write, until the block is written again.
        """
        self._check_formatted()
        stripe, i = self._locate(block)
        if len(data) > self.block_size:
            raise ConfigurationError(
                f"payload of {len(data)} bytes exceeds block size {self.block_size}"
            )
        buf = np.zeros(self.block_size, dtype=np.uint8)
        buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return bool(stripe.write_block(i, buf).success)

    def read(self, block: int) -> bytes | None:
        """Read one logical block (None when no quorum is reachable)."""
        self._check_formatted()
        stripe, i = self._locate(block)
        result = stripe.read_block(i)
        return result.value.tobytes() if result.success else None

    def write_span(self, start_block: int, data: bytes) -> bool:
        """Write a multi-block span; True iff every block write acked."""
        ok = True
        for offset in range(0, max(1, len(data)), self.block_size):
            chunk = data[offset : offset + self.block_size]
            ok &= self.write(start_block + offset // self.block_size, chunk)
        return ok

    def read_span(self, start_block: int, num_blocks: int) -> bytes | None:
        """Read ``num_blocks`` consecutive blocks (None if any read fails)."""
        parts = []
        for b in range(start_block, start_block + num_blocks):
            data = self.read(b)
            if data is None:
                return None
            parts.append(data)
        return b"".join(parts)

    # ------------------------------------------------------------------ #

    def repair_all(self) -> int:
        """Run anti-entropy across every stripe; returns repairs done."""
        return sum(repair.sync_all() for repair in self.repairs)

    def capacity_bytes(self) -> int:
        """Logical capacity in bytes."""
        return self.num_blocks * self.block_size

    def raw_storage_bytes(self) -> float:
        """Physical bytes consumed across the cluster (eq. 15 per stripe)."""
        return self.num_stripes * self.code.n * self.block_size

    def storage_efficiency(self) -> float:
        """Logical / physical bytes = k/n for full stripes."""
        return self.capacity_bytes() / self.raw_storage_bytes()
