"""Front-end router: one logical volume over many per-shard coordinators.

A production deployment does not run one trapezoid quorum instance — it
multiplexes many volumes / stripe families over one shared cluster. The
:class:`ShardRouter` is that front end: each *shard* pairs a plan-capable
protocol engine (one stripe family, ``k`` data blocks) with its own
:class:`~repro.runtime.event.EventCoordinator`, while every shard shares
one :class:`~repro.cluster.events.Simulator`, one
:class:`~repro.cluster.cluster.Cluster` and (optionally) one set of
per-node service queues — so concurrent shards genuinely contend for the
same nodes.

The router owns the address map. The logical volume has
``num_shards * k`` blocks; ``locate`` maps a logical block to its
``(shard, local block)`` home:

* ``interleave`` (default) — ``shard = block % num_shards``: round-robin
  striping, and with one shard the identity map (a 1-shard router's
  run is its lone coordinator's, event for event);
* ``hash`` — a fixed pseudorandom permutation (seeded by ``route_seed``,
  part of the configuration, not of the experiment seed) is applied
  before interleaving, modelling hash-placement of keys onto stripe
  families.

Arbitrary hashable keys enter through :meth:`route_key`, which folds a
stable FNV-1a digest into a logical block — the "hash keys to stripe
families" front door for key-value workloads.

Determinism: routing is pure arithmetic (no RNG draws at dispatch time),
each shard coordinator samples from its own stream, and the shared event
queue breaks ties by insertion order — one seed reproduces the exact
interleaving. ``trace_hash`` digests every shard's message trace (a
single-shard router reports that shard's hash unchanged).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.coordinator import OpHandle
from repro.runtime.event import EventCoordinator

__all__ = ["Shard", "ShardRouter"]

_ROUTINGS = ("interleave", "hash")


@dataclass
class Shard:
    """One stripe family: a plan-capable engine plus its coordinator."""

    index: int
    engine: Any
    coordinator: EventCoordinator
    num_blocks: int

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigurationError(
                f"shard must hold >= 1 blocks, got {self.num_blocks}"
            )


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class ShardRouter:
    """Dispatch logical block operations to per-shard coordinators."""

    def __init__(
        self,
        shards: Sequence[Shard],
        routing: str = "interleave",
        route_seed: int = 0,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ConfigurationError("router needs at least one shard")
        sizes = {s.num_blocks for s in shards}
        if len(sizes) != 1:
            raise ConfigurationError(
                f"shards must hold equally many blocks, got sizes {sorted(sizes)}"
            )
        if routing not in _ROUTINGS:
            raise ConfigurationError(
                f"unknown routing {routing!r} (expected one of {_ROUTINGS})"
            )
        self.shards = shards
        self.routing = routing
        self.route_seed = int(route_seed)
        self.num_shards = len(shards)
        self.blocks_per_shard = shards[0].num_blocks
        self.num_blocks = self.num_shards * self.blocks_per_shard
        if routing == "hash":
            self._perm = np.random.default_rng(self.route_seed).permutation(
                self.num_blocks
            )
            keys = self._perm
        else:
            self._perm = None
            keys = np.arange(self.num_blocks)
        # Precomputed address map: logical block -> (shard index, local
        # block), so the hot dispatch path is two array lookups instead
        # of a divmod (plus a permutation gather under hash routing).
        self._shard_of = (keys % self.num_shards).astype(np.intp)
        self._local_of = (keys // self.num_shards).astype(np.intp)

    # ------------------------------------------------------------------ #
    # address map
    # ------------------------------------------------------------------ #

    def locate(self, block: int) -> tuple[Shard, int]:
        """The (shard, local block) home of a logical block."""
        block = int(block)
        if not 0 <= block < self.num_blocks:
            raise ConfigurationError(
                f"logical block must be in [0, {self.num_blocks}), got {block}"
            )
        return self.shards[self._shard_of[block]], int(self._local_of[block])

    def route_key(self, key: object) -> int:
        """Fold an arbitrary hashable key onto a logical block (FNV-1a)."""
        return _fnv1a64(repr(key).encode("utf-8")) % self.num_blocks

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def submit_read(
        self, block: int, on_done: Callable[[Any], None] | None = None
    ) -> OpHandle:
        """Start a read on the owning shard; completes as the sim advances."""
        shard, local = self.locate(block)
        return shard.coordinator.submit(shard.engine.read_plan(local), on_done)

    def submit_write(
        self,
        block: int,
        value: np.ndarray,
        on_done: Callable[[Any], None] | None = None,
    ) -> OpHandle:
        """Start a write on the owning shard."""
        shard, local = self.locate(block)
        return shard.coordinator.submit(shard.engine.write_plan(local, value), on_done)

    def execute_read(self, block: int) -> Any:
        """Single-operation convenience: read and pump the sim to completion."""
        shard, local = self.locate(block)
        return shard.coordinator.execute(shard.engine.read_plan(local))

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #

    @property
    def ops_completed(self) -> int:
        return sum(s.coordinator.ops_completed for s in self.shards)

    @property
    def in_flight(self) -> int:
        return sum(s.coordinator.in_flight for s in self.shards)

    @property
    def rounds_run(self) -> int:
        return sum(s.coordinator.rounds_run for s in self.shards)

    def round_messages(self) -> Counter:
        """Message counts by round kind, summed over every shard."""
        total: Counter = Counter()
        for shard in self.shards:
            total.update(shard.coordinator.round_messages)
        return total

    def trace_hash(self) -> str:
        """Digest of every shard's message trace.

        A single-shard router reports the shard's own hash so the 1-shard
        configuration replays byte-identically to an unsharded
        :class:`EventCoordinator`; with several shards the per-shard
        digests are folded (in shard order) into one SHA-256.
        """
        if self.num_shards == 1:
            return self.shards[0].coordinator.trace_hash()
        digest = hashlib.sha256()
        for shard in self.shards:
            digest.update(shard.coordinator.trace_hash().encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()
