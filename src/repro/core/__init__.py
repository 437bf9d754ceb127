"""Protocol engines: the paper's primary contribution.

* :class:`TrapErcProtocol` — Algorithms 1-2 over an (n, k) MDS code,
* :class:`TrapFrProtocol` — the trapezoid protocol over full replication,
* :class:`RepairService` — anti-entropy extension for stale/wiped nodes,
* :class:`RowaProtocol` / :class:`MajorityProtocol` — classical
  full-replication engines for end-to-end comparisons.
"""

from repro.core.placement import TrapezoidPlacement
from repro.core.repair import RepairService
from repro.core.replication import MajorityProtocol, RowaProtocol
from repro.core.results import ReadCase, ReadResult, WriteResult
from repro.core.trap_erc import TrapErcProtocol
from repro.core.trap_fr import TrapFrProtocol

__all__ = [
    "TrapezoidPlacement",
    "TrapErcProtocol",
    "TrapFrProtocol",
    "RepairService",
    "RowaProtocol",
    "MajorityProtocol",
    "ReadCase",
    "ReadResult",
    "WriteResult",
]
