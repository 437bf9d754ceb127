"""Message- and IO-cost models for the protocol operations.

The paper's introduction motivates in-place updates by operation counts
("a (9,6)-MDS will require 8 read and write operations for a single block
update"); this module generalizes that accounting to full message-cost
models for Algorithms 1-2 and the baselines, so that benchmarks can check
the executable engines against analytic expectations.

Conventions (matching :class:`repro.cluster.network.Network`): every RPC
costs 2 messages (request + response); version queries, payload reads,
payload writes and parity deltas are all single RPCs.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.phi import at_least
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "write_messages_erc",
    "read_messages_erc_direct",
    "read_messages_erc_decode",
    "expected_read_check_polls",
    "quorum_size_summary",
]


def write_messages_erc(quorum: TrapezoidQuorum, n: int, k: int) -> dict[str, int]:
    """Message budget of Algorithm 1 on a healthy cluster.

    The write embeds one read (line 15: the level-0 version check that
    is also the direct read, the best case) and then contacts every
    node of the trapezoid group once (N_i write + n - k parity deltas).
    """
    if quorum.shape.total_nodes != n - k + 1:
        raise ConfigurationError("trapezoid size must equal n - k + 1")
    read = read_messages_erc_direct(quorum)
    group_rpcs = quorum.shape.total_nodes  # one write/delta RPC per node
    return {
        "read_before_write": read["total"],
        "write_rpcs": 2 * group_rpcs,
        "total": read["total"] + 2 * group_rpcs,
    }


def read_messages_erc_direct(quorum: TrapezoidQuorum) -> dict[str, int]:
    """Best-case Algorithm 2: check completes at level 0, N_i fresh.

    r_0 version polls and nothing else: level 0 contains N_i, whose poll
    is a ``read_data``, and its reply carries the bytes beside the
    version that makes the read direct.
    """
    r0 = quorum.r(0)
    return {
        "version_polls": 2 * r0,
        "total": 2 * r0,
    }


def read_messages_erc_decode(quorum: TrapezoidQuorum, n: int, k: int) -> dict[str, int]:
    """Worst-case decode budget of Algorithm 2.

    Upper bound: the version check may scan *every* trapezoid node (all
    levels fall through before one completes), then the Case-1 attempt
    on N_i (one more ``read_data`` when the level-0 poll completed
    before N_i answered; it fails or answers at another version), then
    Case 2 reads every parity record (n - k RPCs) and every other
    data record (k - 1 RPCs) before solving. The engine stops early when
    possible, so measured costs are at or below this.
    """
    if quorum.shape.total_nodes != n - k + 1:
        raise ConfigurationError("trapezoid size must equal n - k + 1")
    polls = quorum.shape.total_nodes
    gather = (n - k) + (k - 1)
    return {
        "version_polls": 2 * polls,
        "direct_attempt": 2,
        "fragment_reads": 2 * gather,
        "total": 2 * polls + 2 + 2 * gather,
    }


def expected_read_check_polls(quorum: TrapezoidQuorum, p) -> np.ndarray:
    """Expected number of version polls of the Algorithm-2 level scan.

    The scan polls level l's s_l nodes (stopping within the level once
    r_l valid answers arrive; we bound per-level cost by s_l) and falls
    through to level l+1 when fewer than r_l answer. Levels are
    independent, so

        E[polls] <= sum_l s_l * prod_{m<l} P(level m fails).

    Returned as that upper bound, vectorized over p.
    """
    p = np.asarray(p, dtype=np.float64)
    expected = np.zeros_like(p)
    reach = np.ones_like(p)
    for l in quorum.shape.levels:
        s_l = quorum.shape.level_size(l)
        expected = expected + reach * s_l
        reach = reach * (1.0 - at_least(s_l, quorum.r(l), p))
    return expected


def quorum_size_summary(quorum: TrapezoidQuorum) -> dict[str, int]:
    """|WQ| (eq. 6), cheapest |RQ|, and the node-group size."""
    return {
        "write_quorum_size": quorum.min_write_size,
        "min_read_quorum_size": quorum.min_read_size,
        "group_size": quorum.shape.total_nodes,
    }
