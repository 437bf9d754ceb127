"""Operation result types returned by the protocol engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["ReadCase", "WriteResult", "ReadResult"]


class ReadCase(str, Enum):
    """How a successful read obtained the block (Algorithm 2)."""

    DIRECT = "direct"  # Case 1: read from N_i
    DECODE = "decode"  # Case 2: reconstructed from k fragments


@dataclass
class WriteResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    success:
        True iff every level acknowledged at least w_l writes.
    version:
        The version number assigned to the write (meaningful on success).
    acks_per_level:
        Successful per-level acknowledgement counts (up to the failing
        level, where the protocol stops).
    failed_level:
        The level that missed its quorum, or None.
    messages:
        RPC messages consumed by the operation (request+response pairs
        counted as 2), including the read-before-write of line 15.
    latency:
        Virtual seconds the operation took: the sum over its fan-out
        rounds of the max-of-parallel round delay (instant path), or the
        actual virtual time between submit and completion (event path).
    reason:
        Human-readable failure cause.
    """

    success: bool
    version: int = -1
    acks_per_level: list[int] = field(default_factory=list)
    failed_level: int | None = None
    messages: int = 0
    latency: float = 0.0
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.success


@dataclass
class ReadResult:
    """Outcome of Algorithm 2.

    Attributes
    ----------
    success:
        True iff a version-check quorum was found and the block was
        retrieved (directly or by decoding).
    value:
        The block payload (None on failure). Read-only: in the
        simulator a direct read hands out the serving node's stored
        buffer (a write raises ``ValueError``), so copy before modifying.
    version:
        The latest version determined by the check (-1 on failure).
    case:
        DIRECT or DECODE (None on failure).
    check_level:
        The level where the version check completed, or None.
    messages:
        RPC messages consumed.
    latency:
        Virtual seconds the operation took (see :class:`WriteResult`).
    reason:
        Human-readable failure cause.
    """

    success: bool
    value: np.ndarray | None = None
    version: int = -1
    case: ReadCase | None = None
    check_level: int | None = None
    messages: int = 0
    latency: float = 0.0
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.success
