"""The columnar message trace: small at rest, folded, same hashes.

``EventCoordinator`` keeps its trace as a time and an integer code per
entry and folds full buffers into a running SHA-256. These tests hold
what that buys and what it must not change: the bytes kept per entry,
the hash across folds (against the per-message reference coordinator,
whose trace is a list of formatted lines), and ``trace_hash()`` taken
in the middle of a run.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from functools import partial

import pytest

from repro.cluster.network import LognormalLatency
from repro.runtime import EventCoordinator
from repro.runtime.event import _TraceBuffer
from tests.runtime.closed_loop import build_closed_loop
from tests.runtime.reference_coordinator import ReferenceEventCoordinator
from tests.runtime.test_event_lockstep import HORIZON, _apply_faultload, _make_engine
from tests.runtime.test_trace_parity import _untraced

#: a virtual time inside the partition windows of the faultload
MID_RUN = 0.15


def _partition_run(coordinator_cls, probe=None):
    """A traced single-shard run under partitions, retries and timeouts.

    With lognormal legs this faultload produces all six trace kinds.
    ``probe(coordinator)`` runs from a simulator event at ``MID_RUN``.
    """
    driver, router = build_closed_loop(
        3, 60, 4, 0.0, 0.5, horizon=HORIZON, retries=1,
        latency=LognormalLatency(), coordinator_cls=coordinator_cls,
        make_engine=partial(_make_engine, "trap-erc"),
    )
    _apply_faultload("partition", driver.sim, driver.cluster)
    coordinator = router.shards[0].coordinator
    if probe is not None:
        driver.sim.schedule_call(MID_RUN, probe, coordinator)
    driver.run()
    return coordinator


def _prefix_hash(lines: list[str], count: int) -> str:
    digest = hashlib.sha256()
    for line in lines[:count]:
        digest.update(f"{line}\n".encode("ascii"))
    return digest.hexdigest()


def _held_over_run(coordinator_cls):
    """Bytes an 800-op run leaves allocated, and its trace length."""
    driver, router = build_closed_loop(
        5, 800, 4, 0.0, 0.5, horizon=HORIZON, retries=1,
        latency=LognormalLatency(), coordinator_cls=coordinator_cls,
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        driver.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, router.shards[0].coordinator.trace_length


def test_an_entry_holds_at_most_24_bytes():
    # The traced and untraced runs are the same run (test_trace_parity),
    # so what the traced one holds beyond the untraced one is the trace.
    # The first run fills the workload's payload cache for both.
    _held_over_run(_untraced)
    untraced, _ = _held_over_run(_untraced)
    traced, entries = _held_over_run(EventCoordinator)
    assert entries > 5000
    per_entry = (traced - untraced) / entries
    assert per_entry <= 24, per_entry


def test_folded_trace_hashes_as_the_unfolded_and_the_reference(monkeypatch):
    unfolded = _partition_run(EventCoordinator)
    assert unfolded.trace_length == len(unfolded._trace.times)

    # fold every 64 entries, formatting 16 lines per digest update
    monkeypatch.setattr(_TraceBuffer, "fold", 64)
    monkeypatch.setattr(_TraceBuffer, "batch", 16)
    folded = _partition_run(EventCoordinator)
    reference = _partition_run(ReferenceEventCoordinator)
    kinds = {line.split()[1] for line in reference._trace}
    assert kinds == {"send", "drop", "deliver", "reply", "drop-reply", "timeout"}
    assert folded.trace_length == reference.trace_length > 10 * 64
    assert len(folded._trace.times) < 2 * 64
    assert folded.trace_hash() == unfolded.trace_hash() == reference.trace_hash()


@pytest.mark.parametrize("folds", [False, True])
def test_trace_hash_mid_run_is_the_prefix_hash(folds, monkeypatch):
    if folds:
        monkeypatch.setattr(_TraceBuffer, "fold", 64)
    seen = []

    def probe(coordinator):
        seen.append((coordinator.trace_length, coordinator.trace_hash()))

    # the reference gets the same (idle) probe event, so both runs schedule alike
    reference = _partition_run(ReferenceEventCoordinator, probe=lambda c: None)
    coordinator = _partition_run(EventCoordinator, probe=probe)
    [(count, mid_hash)] = seen
    assert 0 < count < coordinator.trace_length
    assert mid_hash == _prefix_hash(reference._trace, count)
    assert coordinator.trace_hash() == reference.trace_hash()
