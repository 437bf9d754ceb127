"""Estimation metrics: Monte-Carlo estimates, tallies, latency percentiles.

All Monte-Carlo entry points return :class:`MCEstimate` so that tests and
benchmarks can assert agreement with closed forms *statistically* (via the
confidence interval) instead of with brittle fixed tolerances.
:class:`LatencyTally` counts every history-model run — operation
outcomes, the p50/p95/p99 operation-latency percentiles and per-round
message counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "MCEstimate",
    "LatencyTally",
    "percentile_summary",
]

_Z95 = 1.959963984540054  # standard normal 97.5% quantile


@dataclass(frozen=True)
class MCEstimate:
    """A Bernoulli-proportion estimate from ``trials`` samples."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise ConfigurationError(
                f"successes {self.successes} out of range [0, {self.trials}]"
            )

    @property
    def mean(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        m = self.mean
        return float(np.sqrt(m * (1.0 - m) / self.trials))

    def ci(self, z: float = _Z95) -> tuple[float, float]:
        """Wilson score interval (robust near 0 and 1) at ``z`` sigmas."""
        n = self.trials
        m = self.mean
        z2 = z**2
        denom = 1.0 + z2 / n
        center = (m + z2 / (2 * n)) / denom
        half = (z * np.sqrt(m * (1.0 - m) / n + z2 / (4 * n * n))) / denom
        return (max(0.0, center - half), min(1.0, center + half))

    def ci95(self) -> tuple[float, float]:
        """The conventional 95% Wilson interval."""
        return self.ci(_Z95)

    def contains(self, value: float, z: float = _Z95) -> bool:
        """True iff ``value`` lies in the z-sigma confidence interval.

        Statistical test suites should pass a generous ``z`` (e.g. 4):
        with dozens of 95% intervals checked per run, spurious 2-sigma
        misses are expected by construction.
        """
        lo, hi = self.ci(z)
        return lo <= value <= hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.ci95()
        return f"{self.mean:.4f} [{lo:.4f}, {hi:.4f}] (n={self.trials})"


def percentile_summary(samples) -> dict[str, float]:
    """p50/p95/p99 (plus mean and count) of a latency sample list.

    Deterministic given the samples (linear interpolation); all-NaN-free.
    Empty samples produce zeros so JSON consumers need no special case.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
    }


@dataclass
class LatencyTally:
    """Counters + latency samples for history-model runs.

    ``read_latencies``/``write_latencies`` hold per-operation virtual
    seconds for *successful* operations; failed operations are tallied
    separately (their latency is dominated by the timeout policy).
    ``reads_decoded`` counts the successful reads that reconstructed
    the block from k fragments (Algorithm 2, Case 2).
    ``round_messages`` counts messages by protocol round kind
    (version-query / payload / write / write-back) — the per-round cost
    structure of Algorithms 1-2 under a real fan-out.
    ``versions_reused`` counts the writes that reached a write round at
    a (block, version) an earlier write had already issued with other
    bytes.
    """

    reads_attempted: int = 0
    reads_succeeded: int = 0
    reads_decoded: int = 0
    writes_attempted: int = 0
    writes_succeeded: int = 0
    consistency_violations: int = 0
    versions_reused: int = 0
    repairs: int = 0
    messages: int = 0
    messages_dropped: int = 0
    timeouts: int = 0
    retries: int = 0
    max_in_flight: int = 0
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    failed_read_latencies: list[float] = field(default_factory=list)
    failed_write_latencies: list[float] = field(default_factory=list)
    round_messages: Counter = field(default_factory=Counter)

    def read_availability(self) -> MCEstimate:
        return MCEstimate(self.reads_succeeded, max(1, self.reads_attempted))

    def write_availability(self) -> MCEstimate:
        return MCEstimate(self.writes_succeeded, max(1, self.writes_attempted))

    def read_percentiles(self) -> dict[str, float]:
        return percentile_summary(self.read_latencies)

    def write_percentiles(self) -> dict[str, float]:
        return percentile_summary(self.write_latencies)

    def operation_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 over all successful operations (reads + writes)."""
        return percentile_summary(self.read_latencies + self.write_latencies)

    def merge(self, other: "LatencyTally") -> None:
        """Fold another tally (e.g. one shard's) into this aggregate."""
        self.reads_attempted += other.reads_attempted
        self.reads_succeeded += other.reads_succeeded
        self.reads_decoded += other.reads_decoded
        self.writes_attempted += other.writes_attempted
        self.writes_succeeded += other.writes_succeeded
        self.consistency_violations += other.consistency_violations
        self.versions_reused += other.versions_reused
        self.repairs += other.repairs
        self.read_latencies.extend(other.read_latencies)
        self.write_latencies.extend(other.write_latencies)
        self.failed_read_latencies.extend(other.failed_read_latencies)
        self.failed_write_latencies.extend(other.failed_write_latencies)
        self.round_messages.update(other.round_messages)

    def summary(self) -> dict:
        return {
            "read_availability": self.read_availability().mean,
            "write_availability": self.write_availability().mean,
            "read_latency": self.read_percentiles(),
            "write_latency": self.write_percentiles(),
            "failed_read_latency": percentile_summary(self.failed_read_latencies),
            "failed_write_latency": percentile_summary(self.failed_write_latencies),
            "consistency_violations": float(self.consistency_violations),
            "versions_reused": float(self.versions_reused),
            "repairs": float(self.repairs),
            "messages": float(self.messages),
            "messages_dropped": float(self.messages_dropped),
            "timeouts": float(self.timeouts),
            "retries": float(self.retries),
            "max_in_flight": float(self.max_in_flight),
            "round_messages": {k: int(v) for k, v in sorted(self.round_messages.items())},
        }
