"""Vectorized GF(2^w) arithmetic on numpy arrays.

The field is realized with classic exp/log tables built from a primitive
polynomial: every nonzero element is a power of the generator ``x``, so

    a * b = exp[log a + log b]          (a, b != 0)
    a^-1  = exp[(2^w - 1) - log a]

Addition and subtraction are both XOR, which is what lets the paper's
Algorithm 1 express a parity update as ``b_j <- b_j + alpha_ji * (x - chunk)``
with a single operation.

Design notes (hpc-parallel idioms):

* All operations accept scalars or numpy arrays and broadcast like numpy
  ufuncs; hot paths never loop in Python over array elements.
* For w <= 8 a full 256x256 multiplication table (64 KiB) is built lazily.
  For w = 8 scalar-times-vector multiplication (the erasure-coding hot
  loop) runs each table row as a ``bytes.translate`` table over the
  block's byte image: a C loop with no index widening, several times the
  rate of the fancy-index gather the narrower fields still use (see
  docs/PERFORMANCE.md, "Row kernel").
* Tables are cached per (width, polynomial) so repeated ``GF2m(8)``
  constructions are free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.gf.polynomials import (
    MAX_WIDTH,
    MIN_WIDTH,
    default_primitive_poly,
    poly_degree,
)

__all__ = ["GF2m", "GF256"]

_TABLE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _build_tables(width: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (exp, log) tables; raises FieldError if poly is not primitive.

    ``exp`` has length 2*(2^w - 1) so products of logs never need a modulo.
    ``log[0]`` is set to 0 but is meaningless; callers mask zeros.
    """
    key = (width, poly)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    order = 1 << width
    q1 = order - 1
    dtype = np.uint8 if width <= 8 else np.uint16 if width <= 16 else np.uint32
    exp = np.zeros(2 * q1, dtype=dtype)
    log = np.zeros(order, dtype=np.int64)
    seen = 0
    value = 1
    for i in range(q1):
        if value >= order or (i > 0 and value == 1):
            raise FieldError(
                f"polynomial {poly:#x} is not primitive for width {width}"
            )
        exp[i] = value
        log[value] = i
        seen += 1
        value <<= 1
        if value & order:
            value ^= poly
    if value != 1 or seen != q1:
        raise FieldError(f"polynomial {poly:#x} is not primitive for width {width}")
    exp[q1:] = exp[:q1]
    exp.setflags(write=False)
    log.setflags(write=False)
    _TABLE_CACHE[key] = (exp, log)
    return exp, log


class GF2m:
    """The finite field GF(2^w) with vectorized numpy arithmetic.

    Parameters
    ----------
    width:
        Field width w, ``2 <= w <= 16``. The paper's storage context uses
        GF(2^8) (one byte per symbol), which is the default.
    poly:
        Primitive polynomial as an integer bit-vector of degree ``width``.
        Defaults to the literature-standard polynomial for the width.

    Examples
    --------
    >>> gf = GF2m(8)
    >>> int(gf.mul(2, 3))
    6
    >>> int(gf.mul(gf.inv(7), 7))
    1
    """

    __slots__ = (
        "width",
        "poly",
        "order",
        "q1",
        "dtype",
        "_exp",
        "_log",
        "_mul_table",
        "_row_tables",
    )

    def __init__(self, width: int = 8, poly: int | None = None) -> None:
        if not MIN_WIDTH <= width <= MAX_WIDTH:
            raise FieldError(
                f"field width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {width}"
            )
        if poly is None:
            poly = default_primitive_poly(width)
        if poly_degree(poly) != width:
            raise FieldError(
                f"polynomial {poly:#x} has degree {poly_degree(poly)}, "
                f"expected {width}"
            )
        self.width = width
        self.poly = poly
        self.order = 1 << width
        self.q1 = self.order - 1
        self.dtype = (
            np.uint8 if width <= 8 else np.uint16 if width <= 16 else np.uint32
        )
        self._exp, self._log = _build_tables(width, poly)
        self._mul_table: np.ndarray | None = None
        self._row_tables: dict[int, bytes] = {}

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF2m(width={self.width}, poly={self.poly:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and other.width == self.width
            and other.poly == self.poly
        )

    def __hash__(self) -> int:
        return hash((self.width, self.poly))

    @property
    def generator(self) -> int:
        """The multiplicative generator used to build the tables (x = 2)."""
        return 2

    def elements(self) -> np.ndarray:
        """All field elements ``0..2^w-1`` in natural order."""
        return np.arange(self.order, dtype=self.dtype)

    def _coerce(self, a) -> np.ndarray:
        arr = np.asarray(a)
        if arr.dtype == self.dtype:
            # Already carrying the field dtype: no int64 copies, and for
            # w = 8 / w = 16 every representable value is a field element.
            self._check_range(arr)
            return arr
        as_int = np.asarray(arr, dtype=np.int64)
        if np.any((as_int < 0) | (as_int >= self.order)):
            raise FieldError(f"value out of range for GF(2^{self.width})")
        return as_int.astype(self.dtype)

    def _check_range(self, arr: np.ndarray) -> None:
        """Reject field-dtype arrays carrying values outside the field.

        Only fields narrower than their dtype can hold such values (byte
        200 in GF(2^4)); left alone they index past the tables and leak a
        bare ``IndexError``.
        """
        if self.width not in (8, 16) and arr.size and arr.max() > self.q1:
            raise FieldError(f"value out of range for GF(2^{self.width})")

    # ------------------------------------------------------------------ #
    # scalar / elementwise arithmetic
    # ------------------------------------------------------------------ #

    def add(self, a, b) -> np.ndarray:
        """Elementwise field addition (XOR)."""
        return np.bitwise_xor(self._coerce(a), self._coerce(b))

    # In characteristic 2 subtraction is addition; kept for readability at
    # call sites that mirror the paper's ``x - chunk``.
    sub = add

    def mul(self, a, b) -> np.ndarray:
        """Elementwise field multiplication via exp/log tables."""
        a = self._coerce(a)
        b = self._coerce(b)
        la = self._log[a]
        lb = self._log[b]
        out = self._exp[la + lb]
        zero = (a == 0) | (b == 0)
        if zero.ndim == 0:
            return out * self.dtype(0) if zero else out
        return np.where(zero, self.dtype(0), out)

    def inv(self, a) -> np.ndarray:
        """Elementwise multiplicative inverse; raises on zero."""
        a = self._coerce(a)
        if np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse")
        return self._exp[self.q1 - self._log[a]]

    def div(self, a, b) -> np.ndarray:
        """Elementwise ``a / b``; raises if any ``b`` is zero."""
        b = self._coerce(b)
        if np.any(b == 0):
            raise FieldError("division by zero in GF(2^w)")
        a = self._coerce(a)
        la = self._log[a]
        lb = self._log[b]
        out = self._exp[la - lb + self.q1]
        zero = a == 0
        if zero.ndim == 0:
            return out * self.dtype(0) if zero else out
        return np.where(zero, self.dtype(0), out)

    def pow(self, a, e: int) -> np.ndarray:
        """Elementwise ``a ** e`` for a non-negative integer exponent."""
        if e < 0:
            raise FieldError("negative exponents: use inv() first")
        a = self._coerce(a)
        if e == 0:
            return np.ones_like(a)
        la = self._log[a].astype(np.int64)
        out = self._exp[(la * e) % self.q1]
        zero = a == 0
        if zero.ndim == 0:
            return out * self.dtype(0) if zero else out
        return np.where(zero, self.dtype(0), out)

    # ------------------------------------------------------------------ #
    # hot paths for erasure coding
    # ------------------------------------------------------------------ #

    def _full_mul_table(self) -> np.ndarray:
        """Lazily built (order x order) multiplication table for w <= 8."""
        if self._mul_table is None:
            e = self.elements()
            self._mul_table = self.mul(e[:, None], e[None, :])
            self._mul_table.setflags(write=False)
        return self._mul_table

    def mul_table(self) -> np.ndarray:
        """The full (order x order) multiplication table (w <= 8 only).

        This is the substrate of the batched kernels in
        :mod:`repro.gf.kernels`: a product array is one fancy-index gather
        ``table[a, b]``. Read-only; 64 KiB for the default GF(2^8).
        """
        if self.width > 8:
            raise FieldError(
                f"full multiplication table is only built for w <= 8, "
                f"got w = {self.width}"
            )
        return self._full_mul_table()

    def _row_table(self, c: int) -> bytes:
        """Row c of the GF(2^8) multiplication table as a translate table.

        ``image.translate(row)`` maps every byte x of a block image to
        ``c * x`` in one C loop. Rows are cut lazily from the full table
        and cached on the field (256 B each, at most 256 of them). Only
        defined for w = 8: translate needs all 256 entries, and a
        narrower field has no product for the bytes above its order.
        """
        row = self._row_tables.get(c)
        if row is None:
            row = self._row_tables[c] = self._full_mul_table()[c].tobytes()
        return row

    def scalar_mul(self, c: int, vec) -> np.ndarray:
        """``c * vec`` for a scalar c and an array vec.

        This is the inner operation of erasure encode/decode/update. For
        w = 8 the block's byte image is translated through row c of the
        multiplication table; for w < 8 it is one gather out of that
        table, for w > 8 an exp/log gather. The result is always a fresh
        writable C-contiguous array of ``vec``'s shape.
        """
        vec = self._coerce(vec)
        c = int(c)
        if not 0 <= c < self.order:
            raise FieldError(f"scalar {c} out of range for GF(2^{self.width})")
        if c == 0:
            return np.zeros(vec.shape, dtype=self.dtype)
        if c == 1:
            return vec.copy()
        if self.width == 8 and vec.ndim:
            # The memoryview is copied out in C order whatever the strides.
            image = bytearray(vec.data).translate(self._row_table(c))
            return np.frombuffer(image, dtype=self.dtype).reshape(vec.shape)
        if self.width <= 8:
            # w < 8, and 0-d operands (a numpy scalar out, as from mul()).
            return self._full_mul_table()[c][vec]
        out = self._exp[self._log[vec] + self._log[c]]
        return np.where(vec == 0, self.dtype(0), out)

    def addmul_into(self, dst: np.ndarray, c: int, src) -> None:
        """In-place ``dst ^= c * src`` (the parity-delta application).

        Matches Algorithm 1's ``N_j.add(alpha_ji * (x - chunk))`` where the
        node folds the scaled delta into its stored parity block.
        """
        if dst.dtype != self.dtype:
            raise FieldError("dst dtype does not match field dtype")
        c = int(c)
        if c == 0:
            return
        from repro.gf.kernels import xor_into  # lazy: kernels imports field

        xor_into(dst, self.scalar_mul(c, src))

    def dot(self, coeffs, vectors) -> np.ndarray:
        """GF linear combination ``XOR_i coeffs[i] * vectors[i]``.

        ``coeffs`` has shape (m,), ``vectors`` shape (m, L); returns (L,).
        """
        coeffs = self._coerce(coeffs)
        vectors = self._coerce(vectors)
        if vectors.ndim != 2 or coeffs.shape[0] != vectors.shape[0]:
            raise FieldError("dot expects coeffs (m,) and vectors (m, L)")
        from repro.gf.kernels import gf_matmul  # lazy: kernels imports field

        return gf_matmul(self, coeffs[None, :], vectors)[0]

    def outer(self, a, b) -> np.ndarray:
        """GF outer product of vectors a (m,) and b (n,) -> (m, n)."""
        a = self._coerce(np.atleast_1d(a))
        b = self._coerce(np.atleast_1d(b))
        return self.mul(a[:, None], b[None, :])

    # ------------------------------------------------------------------ #
    # randomness helpers (used by property tests and generators)
    # ------------------------------------------------------------------ #

    def random_elements(
        self, rng: np.random.Generator, shape, nonzero: bool = False
    ) -> np.ndarray:
        """Uniform random field elements; ``nonzero`` excludes 0."""
        low = 1 if nonzero else 0
        return rng.integers(low, self.order, size=shape, dtype=np.int64).astype(
            self.dtype
        )


#: Shared default field instance (GF(2^8), polynomial 0x11D).
GF256 = GF2m(8)
