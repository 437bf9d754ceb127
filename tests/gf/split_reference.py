"""Split-table (nibble) multiplication for GF(2^8): a test oracle.

The technique behind SIMD erasure coders (PSHUFB / vgf2p8affine eras):
decompose each byte x = hi·16 ^ lo and use linearity of the field action,

    c * x = c * (hi·16) ^ c * lo,

so multiplying a whole block by a constant c needs only two 16-entry
lookup tables and one XOR per byte — 32 bytes of tables instead of a
256-byte row, which is what lets hardware keep the tables in vector
registers. In numpy the gathers are fancy-indexing; the point here is a
third independent implementation of the hot kernel: the row-table path,
exp/log and split tables must all agree. It lives beside the kernel
tests, not in the installed package (as ``reference_coordinator`` does
for the event path).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.gf.field import GF2m

__all__ = ["SplitTableMultiplier", "split_tables"]


def split_tables(field: GF2m, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The two 16-entry tables for multiplication by ``c`` in GF(2^8).

    ``lo[x] = c * x`` for x in 0..15, ``hi[x] = c * (x << 4)``.
    """
    if field.width != 8:
        raise FieldError("split tables are defined for GF(2^8) only")
    c = int(c)
    if not 0 <= c < field.order:
        raise FieldError(f"scalar {c} out of range for GF(2^8)")
    nibbles = np.arange(16, dtype=field.dtype)
    lo = field.mul(np.full(16, c, dtype=field.dtype), nibbles)
    hi = field.mul(np.full(16, c, dtype=field.dtype), nibbles << 4)
    return lo, hi


class SplitTableMultiplier:
    """Caches split tables per scalar; applies them to byte blocks."""

    def __init__(self, field: GF2m) -> None:
        if field.width != 8:
            raise FieldError("split tables are defined for GF(2^8) only")
        self.field = field
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def tables_for(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        tables = self._cache.get(int(c))
        if tables is None:
            tables = split_tables(self.field, c)
            self._cache[int(c)] = tables
        return tables

    def scalar_mul(self, c: int, vec: np.ndarray) -> np.ndarray:
        """``c * vec`` using the two nibble tables."""
        vec = np.asarray(vec, dtype=self.field.dtype)
        c = int(c)
        if c == 0:
            return np.zeros_like(vec)
        if c == 1:
            return vec.copy()
        lo, hi = self.tables_for(c)
        return lo[vec & 0x0F] ^ hi[vec >> 4]

    def addmul_into(self, dst: np.ndarray, c: int, src: np.ndarray) -> None:
        """In-place ``dst ^= c * src`` via the nibble tables."""
        if int(c) == 0:
            return
        np.bitwise_xor(dst, self.scalar_mul(c, src), out=dst)

    def table_bytes(self) -> int:
        """Resident table footprint (32 bytes per cached scalar)."""
        return 32 * len(self._cache)
