"""Failure models: snapshot sampling and failure/repair traces.

Two regimes, matching the two evaluation modes:

* :class:`BernoulliSnapshot` — the paper's section-IV model: each node is
  independently available with probability p at the instant an operation
  runs. Used by the Monte-Carlo availability estimators.
* :class:`FailureTrace` / :func:`exponential_trace` — a timeline of
  fail/repair events (exponential MTBF/MTTR), driven through the
  discrete-event engine for the history-model experiments where nodes miss
  writes while down and come back stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError

__all__ = [
    "BernoulliSnapshot",
    "EventKind",
    "FailureEvent",
    "FailureTrace",
    "exponential_trace",
]


class BernoulliSnapshot:
    """I.i.d. per-node availability snapshots (the paper's model)."""

    def __init__(self, p: float, num_nodes: int) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.p = float(p)
        self.num_nodes = int(num_nodes)

    def sample(self, rng) -> np.ndarray:
        """One boolean alive-vector of length num_nodes."""
        return make_rng(rng).random(self.num_nodes) < self.p

    def sample_many(self, trials: int, rng) -> np.ndarray:
        """(trials, num_nodes) boolean matrix — the vectorized MC hot path."""
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        return make_rng(rng).random((trials, self.num_nodes)) < self.p


class EventKind(str, Enum):
    FAIL = "fail"
    REPAIR = "repair"


@dataclass(frozen=True, order=True)
class FailureEvent:
    """One node state transition at an absolute virtual time."""

    time: float
    node_id: int
    kind: EventKind


class FailureTrace:
    """A sorted timeline of fail/repair events with queries.

    The trace is the ground truth for history-model simulations: the
    driver applies each event to the cluster as virtual time advances.
    """

    def __init__(self, num_nodes: int, events) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.events: list[FailureEvent] = sorted(events)
        for ev in self.events:
            if not 0 <= ev.node_id < self.num_nodes:
                raise ConfigurationError(
                    f"event references node {ev.node_id} outside [0, {num_nodes})"
                )
            if ev.time < 0:
                raise ConfigurationError("event times must be >= 0")

    def __len__(self) -> int:
        return len(self.events)

    def alive_at(self, node_id: int, t: float) -> bool:
        """Node state at time t (nodes start alive)."""
        alive = True
        for ev in self.events:
            if ev.time > t:
                break
            if ev.node_id == node_id:
                alive = ev.kind == EventKind.REPAIR
        return alive

    def alive_vector(self, t: float) -> np.ndarray:
        """Boolean alive-vector at time t."""
        alive = np.ones(self.num_nodes, dtype=bool)
        for ev in self.events:
            if ev.time > t:
                break
            alive[ev.node_id] = ev.kind == EventKind.REPAIR
        return alive

    def availability_of(self, node_id: int, horizon: float) -> float:
        """Fraction of [0, horizon] the node spends up (for calibration)."""
        up_since = 0.0
        up_total = 0.0
        alive = True
        for ev in self.events:
            if ev.node_id != node_id or ev.time > horizon:
                continue
            if alive and ev.kind == EventKind.FAIL:
                up_total += ev.time - up_since
                alive = False
            elif not alive and ev.kind == EventKind.REPAIR:
                up_since = ev.time
                alive = True
        if alive:
            up_total += horizon - up_since
        return up_total / horizon if horizon > 0 else 1.0


def exponential_trace(
    num_nodes: int,
    mtbf: float,
    mttr: float,
    horizon: float,
    rng=None,
) -> FailureTrace:
    """Alternating-renewal failure trace: Exp(mtbf) up, Exp(mttr) down.

    The long-run per-node availability is mtbf / (mtbf + mttr), which lets
    experiments pick (mtbf, mttr) to hit a target p and compare trace-driven
    results against the snapshot model.
    """
    if mtbf <= 0 or mttr <= 0:
        raise ConfigurationError("mtbf and mttr must be positive")
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    rng = make_rng(rng)
    events: list[FailureEvent] = []
    for node in range(num_nodes):
        t = float(rng.exponential(mtbf))
        up = True
        while t < horizon:
            events.append(
                FailureEvent(t, node, EventKind.FAIL if up else EventKind.REPAIR)
            )
            t += float(rng.exponential(mttr if up else mtbf))
            up = not up
    return FailureTrace(num_nodes, events)
