"""Majority quorum system (Thomas 1979, the paper's ref. [13]).

Both read and write quorums are any strict majority of the n nodes; two
majorities always intersect, which yields both safety conditions at the
price of requiring ceil((n+1)/2) nodes for every operation.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.phi import at_least
from repro.errors import ConfigurationError
from repro.quorum.base import CountPredicate, QuorumSystem

__all__ = ["MajoritySystem"]


class MajoritySystem(QuorumSystem):
    """Read = write = any ``floor(n/2) + 1`` of the n nodes."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        self.size = size
        self.threshold = size // 2 + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MajoritySystem(size={self.size})"

    def is_write_quorum(self, subset) -> bool:
        return len(self._check_positions(subset)) >= self.threshold

    def is_read_quorum(self, subset) -> bool:
        return self.is_write_quorum(subset)

    def as_level_thresholds(self, kind: str) -> CountPredicate:
        """Both quorums are pure cardinality thresholds: one group."""
        super().as_level_thresholds(kind)  # validates kind
        return CountPredicate((self.size,), (self.threshold,), "all")

    def find_write_quorum(self, alive: set[int]) -> frozenset[int] | None:
        alive = self._check_positions(alive)
        if len(alive) < self.threshold:
            return None
        return frozenset(sorted(alive)[: self.threshold])

    def find_read_quorum(self, alive: set[int]) -> frozenset[int] | None:
        return self.find_write_quorum(alive)

    def write_availability(self, p) -> np.ndarray:
        # P(Binomial(n, p) >= threshold)
        return at_least(self.size, self.threshold, p)

    def read_availability(self, p) -> np.ndarray:
        return self.write_availability(p)
