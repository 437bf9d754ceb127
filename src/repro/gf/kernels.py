"""Batched GF(2^w) kernels: the throughput layer under the erasure stack.

The reference implementations in :mod:`repro.gf.linalg` are written for
clarity: :func:`~repro.gf.linalg.matmul_reference` XOR-accumulates one
outer product per inner index, and every outer product pays the full
exp/log + zero-masking cost of :meth:`GF2m.mul`. That is fine for the
small matrices of the analysis layer but leaves an order of magnitude on
the table for the storage hot paths, where one operand is a short
coefficient matrix (k or n - k rows) and the other a wide block matrix
(L = tens of KiB columns, possibly many stripes side by side).

This module holds the production kernels (all bit-identical to the
reference paths; the property tests in ``tests/gf/test_kernels.py``
enforce that):

* :func:`gf_matmul` / :func:`gf_matvec` — for w <= 8 each inner index
  contributes one fancy-index gather (``np.take``) out of an (m, 256)
  slice of the field's full multiplication table — the slice lives in L1,
  so the gather runs at memory speed — XOR-folded into the accumulator:
  no int64 temporaries, no zero masking, one uint8 pass per inner index.
  (A single 3-D ``table[a[:, :, None], b[None, :, :]]`` gather +
  ``bitwise_xor.reduce`` computes the same thing in one expression but
  measures ~4x slower: broadcasting the index arrays dominates.) For
  w = 8 and rows wide enough to pay for one Python iteration per
  coefficient, the product is streamed instead: every ``a[i, t] * b[t]``
  is one ``translate`` of row t's byte image through a 256-byte row of
  the multiplication table (a C loop with no index widening), XOR-folded
  as uint64 words. For w > 8 the full table would be gigabytes, so the
  kernel falls back to a per-inner-index exp/log gather that still
  avoids the elementwise ``mul`` overhead where it can.
* :func:`xor_into` / :func:`xor_blocks` — the parity-delta fold
  ``dst ^= src`` and the row fold of an (m, L) array, both the plain
  byte-wise ufunc (numpy's uint8 XOR loop is already vectorized).
* :func:`gf_scaled_rows` — the parity-delta fan-out of Algorithm 1: one
  block scaled by every coefficient of a generator column, from a single
  byte image of the block (:func:`repro.erasure.update.plan_update`).

Unit and zero coefficients: the streamed product and
:func:`gf_scaled_rows` take a coefficient of 1 as the row itself and a
coefficient of 0 as nothing — no byte image, no translate. A translate
costs about ten times the XOR of the same block, and the normalised
generator (:mod:`repro.erasure.generator`) puts a 1 in n - 1 of its
k(n - k) parity coefficients, so this is where a write or an encode
saves its multiplies. A unit row of :func:`gf_scaled_rows` is the input
block itself, not a copy: no caller may write into either.

All kernels take the field object explicitly (no global state), matching
the conventions of :mod:`repro.gf.linalg`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.gf.field import GF2m

__all__ = [
    "gf_matmul",
    "gf_matvec",
    "gf_scaled_rows",
    "xor_into",
    "xor_blocks",
]


#: The w = 8 product streams through the row kernel once every output
#: row has at least this many columns; below it the gather wins because
#: one ``np.take`` serves all m output rows of an inner index while the
#: row kernel pays a Python iteration per coefficient. Measured crossover:
#: docs/PERFORMANCE.md, "Row kernel".
_STREAM_MIN_COLS_PER_ROW = 256


def _as_field_matrix(field: GF2m, a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=field.dtype)
    if a.ndim != 2:
        raise FieldError(f"{name} must be 2-D, got shape {a.shape}")
    field._check_range(a)
    return a


def _as_field_rows(field: GF2m, b) -> tuple[np.ndarray | list[np.ndarray], int]:
    """A right operand as (rows, cols): a 2-D array, or a list of 1-D rows.

    The kernels only ever index the right operand by row, so a list of
    equal-length blocks (fragments gathered from different nodes) is
    multiplied where it lies instead of being stacked first.
    """
    if isinstance(b, np.ndarray):
        b = _as_field_matrix(field, b, "b")
        return b, b.shape[1]
    rows = [np.asarray(row, dtype=field.dtype) for row in b]
    cols = rows[0].shape[0] if rows and rows[0].ndim == 1 else 0
    for row in rows:
        if row.shape != (cols,):
            raise FieldError(
                "b must be 2-D or a sequence of equal-length rows, "
                f"got a row of shape {row.shape}"
            )
        field._check_range(row)
    return rows, cols


def _matmul_small(field: GF2m, a: np.ndarray, b, cols: int) -> np.ndarray:
    """w <= 8 kernel: one table-row gather per inner index, XOR-folded.

    ``table[a[:, t]]`` selects the m multiplication-table rows for inner
    index t (m x 256 bytes, L1-resident); ``np.take(..., b[t], axis=1)``
    then gathers all m partial-product rows in one call. No zero-masking
    is needed: the table already encodes ``0 * x = 0``. The Python loop
    length is only the shared dimension (k or n - k in the paper's
    regime), never the block length. Wide GF(2^8) rows take the row
    kernel instead (:func:`_matmul_stream`).
    """
    if field.width == 8 and cols >= _STREAM_MIN_COLS_PER_ROW * a.shape[0]:
        return _matmul_stream(field, a, b, cols)
    table = field.mul_table()
    out = np.take(table[a[:, 0]], b[0], axis=1)
    for t in range(1, a.shape[1]):
        contrib = np.take(table[a[:, t]], b[t], axis=1)
        np.bitwise_xor(out, contrib, out=out)
    return out


def _matmul_stream(field: GF2m, a: np.ndarray, b, cols: int) -> np.ndarray:
    """GF(2^8) row kernel: translate each row image, fold as words.

    ``a[i, t] * b[t]`` is ``image.translate(row_table(a[i, t]))`` of row
    t's byte image — no index array, no widening — XORed into output row
    i eight bytes at a time. A coefficient of 1 folds row t itself and a
    coefficient of 0 folds nothing; a row is imaged to bytes only when a
    coefficient other than 0 and 1 first needs it.
    """
    word = np.uint64 if cols % 8 == 0 else np.uint8
    images: dict[int, bytearray] = {}

    def term(t: int, c: int) -> np.ndarray:
        if c == 1:
            return np.ascontiguousarray(b[t]).view(word)
        image = images.get(t)
        if image is None:
            image = images[t] = bytearray(b[t].data)
        return np.frombuffer(image.translate(field._row_table(c)), word)

    out = np.empty((a.shape[0], cols), dtype=field.dtype)
    for coeffs, acc in zip(a.tolist(), out.view(word)):
        terms = [(t, c) for t, c in enumerate(coeffs) if c]
        if not terms:
            acc[:] = 0
            continue
        acc[:] = term(*terms[0])
        for t, c in terms[1:]:
            np.bitwise_xor(acc, term(t, c), out=acc)
    return out


def _matmul_wide_field(field: GF2m, a: np.ndarray, b, cols: int) -> np.ndarray:
    """w > 8 fallback: per-inner-index exp/log gather (no full table).

    The loop length is the shared dimension (k or n - k in the paper's
    regime); each iteration is a single-pass gather ``exp[log a + log b]``
    with the zero rows/columns handled up front instead of per element.
    """
    m, t = a.shape
    out = np.zeros((m, cols), dtype=field.dtype)
    log = field._log
    exp = field._exp
    for idx in range(t):
        a_col = a[:, idx]
        nz_rows = np.nonzero(a_col)[0]
        if nz_rows.size == 0:
            continue
        b_row = b[idx]
        la = log[a_col[nz_rows]][:, None]
        contrib = exp[la + log[b_row][None, :]]
        # exp/log is only valid for nonzero operands; zero the columns
        # where b is 0 (a is already filtered to nonzero rows).
        contrib[:, b_row == 0] = 0
        out[nz_rows] = np.bitwise_xor(out[nz_rows], contrib)
    return out


def gf_matmul(field: GF2m, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^w), bit-identical to the reference matmul.

    ``b`` is a (t, L) array or a sequence of t equal-length 1-D rows; the
    result is a fresh (m, L) array either way. Fast path (w <= 8): one
    multiplication-table gather per inner index, or for wide GF(2^8)
    rows one ``translate`` per coefficient, XOR-folded over the shared
    dimension. Fallback (w > 8): exp/log gathers per inner index.
    """
    a = _as_field_matrix(field, a, "a")
    b, cols = _as_field_rows(field, b)
    if a.shape[1] != len(b):
        raise FieldError(
            f"shape mismatch for matmul: {a.shape} x ({len(b)}, {cols})"
        )
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], cols), dtype=field.dtype)
    if field.width <= 8:
        return _matmul_small(field, a, b, cols)
    return _matmul_wide_field(field, a, b, cols)


def gf_matvec(field: GF2m, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product over GF(2^w) through the batched kernel."""
    a = _as_field_matrix(field, a, "a")
    x = np.asarray(x, dtype=field.dtype)
    if x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise FieldError(f"shape mismatch for matvec: {a.shape} x {x.shape}")
    return gf_matmul(field, a, x[:, None])[:, 0]


def gf_scaled_rows(field: GF2m, coeffs, vec) -> list[np.ndarray]:
    """Rows ``coeffs[i] * vec`` for a coefficient vector and one block.

    coeffs (m,) x vec (L,) -> a list of m (L,) rows; the parity-delta
    fan-out of Algorithm 1 is exactly this shape (one delta, the n - k
    coefficients of a generator column). A coefficient of 1 gives ``vec``
    itself and 0 a zero row. For w = 8 the block is imaged to bytes once,
    on the first other coefficient, and each such row is one
    ``translate`` through that coefficient's row table, returned as
    translate produced it (read-only); other widths scale by
    :meth:`GF2m.scalar_mul`.
    """
    coeffs = np.asarray(coeffs, dtype=field.dtype)
    vec = np.asarray(vec, dtype=field.dtype)
    if coeffs.ndim != 1 or vec.ndim != 1:
        raise FieldError("gf_scaled_rows expects coeffs (m,) and vec (L,)")
    field._check_range(coeffs)
    field._check_range(vec)
    image = None
    rows = []
    for c in coeffs.tolist():
        if c == 1:
            rows.append(vec)
        elif c == 0 or field.width != 8:
            rows.append(field.scalar_mul(c, vec))
        else:
            if image is None:
                image = bytearray(vec.data)
            rows.append(
                np.frombuffer(image.translate(field._row_table(c)), field.dtype)
            )
    return rows


# --------------------------------------------------------------------- #
# XOR folds
# --------------------------------------------------------------------- #


def xor_into(dst: np.ndarray, src: np.ndarray) -> None:
    """In-place ``dst ^= src``: the parity-delta fold of Algorithm 1.

    ``b_j ^= alpha_ji * delta`` once the scaled delta buffer exists; a
    ``src`` of another dtype is cast to ``dst``'s first. The fold is the
    plain byte-wise ufunc: numpy's uint8 XOR loop is vectorized, so a
    uint64 re-view of the operands buys nothing, and probing two arrays
    for one (contiguity, size, pointer alignment) costs more than
    XOR-ing a whole 64 KiB block — see docs/PERFORMANCE.md.
    """
    if dst.shape != src.shape:
        raise FieldError(f"xor_into shape mismatch: {dst.shape} vs {src.shape}")
    if dst.dtype != src.dtype:
        src = np.asarray(src, dtype=dst.dtype)
    np.bitwise_xor(dst, src, out=dst)


def xor_blocks(blocks: np.ndarray) -> np.ndarray:
    """XOR-fold the rows of a (m, L) array into one (L,) block.

    The pure-XOR aggregation path of flat (replication-style) parity and
    of the coefficient-1 rows in batched encodes; like :func:`xor_into`,
    one byte-wise reduce with no word re-view.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2:
        raise FieldError(f"xor_blocks expects a 2-D array, got {blocks.shape}")
    return np.bitwise_xor.reduce(blocks, axis=0)
