"""Update planning for in-place erasure-coded writes.

Algorithm 1 updates data block i to value x by computing
``delta = x - chunk`` once and shipping ``alpha_{j,i} * delta`` to every
parity node. :class:`UpdatePlan` packages exactly that: the per-node
buffers of one logical write, so protocol engines and the virtual disk
share one implementation (and tests can check the plan against a full
re-encode).

The plan also exposes the paper's update-cost accounting: a basic (n, k)
scheme touches ``n - k + 1`` blocks per single-block update (one read +
write on the target, one read + write per parity), the figure the paper's
introduction quotes for a (9,6) code (8 operations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.erasure.code import MDSCode
from repro.errors import ConfigurationError
from repro.gf.kernels import gf_scaled_rows

__all__ = ["UpdatePlan", "plan_update", "update_io_cost"]


@dataclass(frozen=True)
class UpdatePlan:
    """All buffers needed to apply one data-block update in place.

    Attributes
    ----------
    block_index:
        Data block being written (0-based, < k).
    delta:
        ``new ^ old`` over GF(2^w).
    parity_deltas:
        Mapping global parity index j -> ``alpha_{j,i} * delta``, the exact
        buffer the parity node XORs into its stored block (Alg. 1 line 27).
        Where alpha_{j,i} = 1 the buffer is ``delta`` itself, so neither
        may be written to.
    """

    block_index: int
    delta: np.ndarray
    parity_deltas: dict[int, np.ndarray]

    @property
    def is_noop(self) -> bool:
        """True when new == old (all deltas vanish)."""
        return not self.delta.any()

    def touched_blocks(self) -> int:
        """Number of stripe blocks the update writes (target + parities)."""
        return 1 + len(self.parity_deltas)


def plan_update(
    code: MDSCode, block_index: int, old_block: np.ndarray, new_block: np.ndarray
) -> UpdatePlan:
    """Build the :class:`UpdatePlan` for writing ``new_block`` over ``old_block``."""
    if not 0 <= block_index < code.k:
        raise ConfigurationError(
            f"data block index must be in [0, {code.k}), got {block_index}"
        )
    delta = code.delta(old_block, new_block)
    # Column block_index of the parity matrix scales the delta: all n - k
    # buffers in one kernel call, a unit coefficient's buffer unscaled.
    rows = gf_scaled_rows(
        code.field, code.parity_matrix[:, block_index], delta.reshape(-1)
    )
    parity_deltas = {
        code.k + r: row.reshape(delta.shape) for r, row in enumerate(rows)
    }
    return UpdatePlan(
        block_index=block_index, delta=delta, parity_deltas=parity_deltas
    )


def update_io_cost(n: int, k: int) -> dict[str, int]:
    """IO operations of a basic single-block in-place update.

    The paper's introduction: "a (9,6)-MDS will require 8 read and write
    operations for a single block update: one read and one write for the
    target block, and one read and one write for each of the three
    redundant blocks" — i.e. n - k + 1 reads and n - k + 1 writes.
    """
    if k < 1 or n < k:
        raise ConfigurationError(f"invalid (n={n}, k={k})")
    touched = n - k + 1
    return {"reads": touched, "writes": touched, "total": 2 * touched}
