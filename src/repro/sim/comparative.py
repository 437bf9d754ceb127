"""Comparative protocol evaluation on identical failure schedules.

Fair cross-protocol comparison requires every engine to see the *same*
failures and the same operation sequence. This module generates a shared
schedule (per-step down-sets plus an op tape) and replays it against any
set of protocol engines, tallying availability and message costs — the
machinery behind the ``comparison`` scenario of the ``repro.api``
facade, ``examples/protocol_comparison.py`` and the baseline benchmarks,
exposed as a reusable library.

Reproducibility: :func:`make_schedule` derives everything (down-sets, op
kinds, per-write payload seeds) from its ``rng`` argument — an int seed
or Generator, coerced via :func:`repro.cluster.rng.make_rng` — and
:func:`run_comparison` derives each write payload from the schedule's
embedded ``payload_seed``, so one seed pins the entire experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError

__all__ = ["ScheduleStep", "ComparisonResult", "make_schedule", "run_comparison"]


@dataclass(frozen=True)
class ScheduleStep:
    """One step: which nodes are down, what operation runs."""

    down: tuple[int, ...]
    is_read: bool
    block: int
    payload_seed: int


@dataclass
class ComparisonResult:
    """Per-protocol tallies over one shared schedule."""

    name: str
    reads: int = 0
    reads_ok: int = 0
    writes: int = 0
    writes_ok: int = 0
    read_messages: int = 0
    write_messages: int = 0

    @property
    def read_availability(self) -> float:
        return self.reads_ok / self.reads if self.reads else 1.0

    @property
    def write_availability(self) -> float:
        return self.writes_ok / self.writes if self.writes else 1.0

    @property
    def messages_per_read(self) -> float:
        return self.read_messages / self.reads if self.reads else 0.0

    @property
    def messages_per_write(self) -> float:
        return self.write_messages / self.writes if self.writes else 0.0


def make_schedule(
    steps: int,
    num_nodes: int,
    num_blocks: int,
    *,
    max_down: int = 2,
    read_fraction: float = 0.5,
    rng=None,
) -> list[ScheduleStep]:
    """A shared random schedule of failures and operations."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if not 0 <= max_down <= num_nodes:
        raise ConfigurationError(
            f"max_down must be in [0, {num_nodes}], got {max_down}"
        )
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigurationError("read_fraction must be in [0, 1]")
    rng = make_rng(rng)
    schedule = []
    for _ in range(steps):
        count = int(rng.integers(0, max_down + 1))
        down = tuple(sorted(rng.choice(num_nodes, size=count, replace=False).tolist()))
        schedule.append(
            ScheduleStep(
                down=down,
                is_read=bool(rng.random() < read_fraction),
                block=int(rng.integers(0, num_blocks)),
                payload_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return schedule


def run_comparison(
    engines: dict[str, tuple[Cluster, object]],
    schedule: list[ScheduleStep],
    block_length: int,
    repair_fns: dict[str, object] | None = None,
) -> dict[str, ComparisonResult]:
    """Replay ``schedule`` against every (cluster, engine) pair.

    Engines must expose ``read_block(i)`` and ``write_block(i, value)``
    returning result objects with ``success`` and ``messages`` fields
    (all the protocol engines in :mod:`repro.core` qualify); schedules
    should be built with a ``num_blocks`` valid for every engine.

    ``repair_fns`` optionally maps engine names to zero-argument
    anti-entropy callables, invoked between failure epochs while the
    whole cluster is healthy. Without one, TRAP-ERC's write availability
    collapses under repeated failures (stale parities reject deltas —
    see :mod:`repro.core.repair`), so comparative studies should either provide it
    or interpret the collapse as part of the result.
    """
    if block_length < 1:
        raise ConfigurationError("block_length must be >= 1")
    repair_fns = repair_fns or {}
    results: dict[str, ComparisonResult] = {}
    for name, (cluster, engine) in engines.items():
        tally = ComparisonResult(name=name)
        repair = repair_fns.get(name)
        for step in schedule:
            cluster.recover_all()
            if repair is not None:
                repair()
            cluster.fail_many(step.down)
            if step.is_read:
                r = engine.read_block(step.block)
                tally.reads += 1
                tally.reads_ok += bool(r.success)
                tally.read_messages += r.messages
            else:
                payload_rng = make_rng(step.payload_seed)
                value = payload_rng.integers(
                    0, 256, block_length, dtype=np.int64
                ).astype(np.uint8)
                r = engine.write_block(step.block, value)
                tally.writes += 1
                tally.writes_ok += bool(r.success)
                tally.write_messages += r.messages
        cluster.recover_all()
        results[name] = tally
    return results
