"""(n, k) MDS erasure code with systematic layout and in-place delta updates.

This is the code of the paper's section III-A: k original data blocks
``b_1..b_k`` plus n-k parity blocks

    b_j = sum_{i=1..k} alpha_{j,i} b_i        (eq. 1)

with arithmetic over GF(2^w). Beyond the usual encode/decode/repair, the
class exposes the *delta update* used by Algorithm 1: when data block i
changes by ``delta = new ^ old``, each parity becomes

    b_j' = b_j + alpha_{j,i} * delta

which is exactly the ``N_j.add(alpha_ji . (x - chunk))`` RPC of the paper.

Indexing convention: blocks carry *global* indices 0..n-1; indices < k are
data blocks, indices >= k are parity blocks. (The paper numbers from 1; we
use 0-based throughout the code base.)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.errors import ConfigurationError, DecodeError, FieldError
from repro.gf.field import GF256, GF2m
from repro.gf.kernels import gf_matmul
from repro.gf.linalg import inverse
from repro.erasure.generator import build_generator, verify_mds

__all__ = ["DecodePlan", "MDSCode", "PLAN_CACHE_SIZE"]

#: Stripes with blocks up to this many symbols are fused into one kernel
#: dispatch by the batch APIs; beyond it the per-call dispatch is already
#: amortized and the fusion copy would only cost memory bandwidth.
FUSE_MAX_BLOCK = 1 << 13


#: Decode plans kept per code, shared by every MDSCode of that code. A
#: survivor set is k of the n indices, so this holds every set of the
#: paper's (12, 8) code (C(12, 8) = 495): decodes that cycle through more
#: distinct sets than fit would re-solve a set each time it comes back.
PLAN_CACHE_SIZE = 512


@dataclass(frozen=True, slots=True)
class DecodePlan:
    """A cached decode: everything derived from one survivor set.

    Survivor *data* rows pass through decode verbatim (``present``), so
    only the ``missing`` data rows are solved. With D the survivor data
    indices, P the r survivor parity rows and M the r missing data
    columns, the parity fragments satisfy ``f_P = G[P, D] x_D + B x_M``
    with B = G[P, M], so ``x_M = B^-1 G[P, D] f_D + B^-1 f_P``:
    ``solve_rows`` is ``[B^-1 G[P, D] | B^-1]``, an (r, k) matrix over
    the survivors in sorted order (data first), built by inverting the
    r x r block B instead of the k x k survivor rows. Combined
    "re-encode" rows are cached lazily so single-block repair never
    materializes the full data matrix. Plans are shared by every :class:`MDSCode` of one code
    and are read-only.
    """

    indices: tuple[int, ...]  # sorted survivor rows the plan solves from
    present: tuple[tuple[int, int], ...]  # (data index, row position) pairs
    missing: tuple[int, ...]  # data indices absent from the survivors
    solve_rows: np.ndarray  # (|missing|, k): the only rows decode multiplies
    _recode_rows: dict = dataclass_field(default_factory=dict, repr=False)

    def recode_row(self, code: "MDSCode", target: int) -> np.ndarray:
        """(k,) row r with ``block[target] = r @ fragments`` (cached).

        ``block[target] = G[target, D] x_D + G[target, M] x_M``: the
        survivor data rows carry their generator coefficients as they
        are, and the missing ones fold in through ``solve_rows``.
        """
        row = self._recode_rows.get(target)
        if row is None:
            weights = code.generator[target]
            row = np.zeros(code.k, dtype=code.field.dtype)
            row[: len(self.present)] = weights[[i for i, _ in self.present]]
            if self.missing:
                row ^= gf_matmul(
                    code.field, weights[list(self.missing)][None, :], self.solve_rows
                )[0]
            row.setflags(write=False)
            self._recode_rows[target] = row
        return row


class _CodeTable:
    """What every MDSCode of one (field, n, k) shares: its generator and plans."""

    __slots__ = ("generator", "plans")

    def __init__(self, generator: np.ndarray) -> None:
        self.generator = generator
        #: sorted survivor tuple -> plan, least recently used first
        self.plans: OrderedDict[tuple[int, ...], DecodePlan] = OrderedDict()


#: Codes whose tables are kept, least recently used dropped first. A
#: dropped table lives on in the MDSCode objects that hold it, unshared;
#: the bound keeps a sweep over many code shapes from growing the process.
_CODE_TABLES_KEPT = 8

#: (field, n, k) -> the code's shared table, least recently used first
_CODE_TABLES: OrderedDict[tuple[GF2m, int, int], _CodeTable] = OrderedDict()


def _code_table(field: GF2m, n: int, k: int) -> _CodeTable:
    key = (field, n, k)
    table = _CODE_TABLES.get(key)
    if table is not None:
        _CODE_TABLES.move_to_end(key)
        return table
    generator = build_generator(field, n, k)
    generator.setflags(write=False)
    table = _CODE_TABLES[key] = _CodeTable(generator)
    if len(_CODE_TABLES) > _CODE_TABLES_KEPT:
        _CODE_TABLES.popitem(last=False)
    return table


class MDSCode:
    """Systematic (n, k) MDS erasure code over GF(2^w).

    Parameters
    ----------
    n:
        Total number of blocks in a stripe (data + parity).
    k:
        Number of data blocks. Any k of the n blocks reconstruct the stripe;
        the code tolerates n - k erasures.
    field:
        The GF(2^w) instance; defaults to the shared GF(2^8).

    The generator and the decode plans are functions of (field, n, k)
    alone, so every ``MDSCode`` of one code shares them: a plan solved by
    one object is a hit for the next, as when each run builds a fresh
    system. Tables of the 8 most recently used codes are kept. The
    hit/miss counters stay per object.

    Examples
    --------
    >>> import numpy as np
    >>> code = MDSCode(6, 4)
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> stripe = code.encode(data)
    >>> lost = [0, 5]                      # lose a data and a parity block
    >>> keep = [i for i in range(6) if i not in lost]
    >>> rec = code.decode(keep, stripe[keep])
    >>> bool(np.array_equal(rec, data))
    True
    """

    def __init__(
        self,
        n: int,
        k: int,
        field: GF2m | None = None,
    ) -> None:
        self.field = field if field is not None else GF256
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if n < k:
            raise ConfigurationError(f"need n >= k, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.m = n - k
        table = _code_table(self.field, n, k)
        self.generator = table.generator
        self._plans = table.plans
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MDSCode(n={self.n}, k={self.k}, field=GF(2^{self.field.width}))"

    @property
    def parity_matrix(self) -> np.ndarray:
        """The (n-k, k) matrix of coefficients alpha_{j,i} from eq. (1)."""
        return self.generator[self.k :]

    def coefficient(self, j: int, i: int) -> int:
        """alpha_{j,i}: weight of data block i inside parity block j.

        ``j`` is a global parity index (k <= j < n); ``i`` a data index.
        """
        if not self.k <= j < self.n:
            raise ConfigurationError(
                f"parity index must be in [{self.k}, {self.n}), got {j}"
            )
        if not 0 <= i < self.k:
            raise ConfigurationError(f"data index must be in [0, {self.k}), got {i}")
        return int(self.generator[j, i])

    def is_data(self, index: int) -> bool:
        """True iff the global block index designates an original data block."""
        if not 0 <= index < self.n:
            raise ConfigurationError(f"block index must be in [0, {self.n}), got {index}")
        return index < self.k

    # ------------------------------------------------------------------ #
    # encode
    # ------------------------------------------------------------------ #

    def _coerce_data(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=self.field.dtype)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ConfigurationError(
                f"data must have shape (k={self.k}, L), got {data.shape}"
            )
        return data

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode (k, L) data into the full (n, L) stripe.

        Rows 0..k-1 are the data verbatim (systematic); rows k..n-1 the
        parity blocks of eq. (1).
        """
        data = self._coerce_data(data)
        stripe = np.empty((self.n, data.shape[1]), dtype=self.field.dtype)
        stripe[: self.k] = data
        if self.m:
            stripe[self.k :] = gf_matmul(self.field, self.parity_matrix, data)
        return stripe

    def encode_parity(self, data: np.ndarray) -> np.ndarray:
        """Only the (n-k, L) parity rows for the given (k, L) data."""
        data = self._coerce_data(data)
        if not self.m:
            return np.empty((0, data.shape[1]), dtype=self.field.dtype)
        return gf_matmul(self.field, self.parity_matrix, data)

    def _coerce_batch(self, data: np.ndarray, rows: int, name: str) -> np.ndarray:
        data = np.asarray(data, dtype=self.field.dtype)
        if data.ndim != 3 or data.shape[1] != rows:
            raise ConfigurationError(
                f"{name} must have shape (S, {rows}, L), got {data.shape}"
            )
        return data

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode S stripes at once: (S, k, L) data -> (S, n, L) stripes.

        For small blocks (L <= ``FUSE_MAX_BLOCK``) the S stripes are
        fused into one (k, S*L) operand so the parity computation is a
        single kernel dispatch regardless of S — the per-call overhead
        that dominates small-stripe encodes is paid once per batch. For
        large blocks the kernel is already bandwidth-bound, so the batch
        loops per stripe and skips the fusion copy.
        """
        data = self._coerce_batch(data, self.k, "data")
        s, _, length = data.shape
        stripes = np.empty((s, self.n, length), dtype=self.field.dtype)
        stripes[:, : self.k] = data
        if self.m and s:
            if length <= FUSE_MAX_BLOCK:
                fused = np.ascontiguousarray(data.transpose(1, 0, 2)).reshape(
                    self.k, s * length
                )
                parity = gf_matmul(self.field, self.parity_matrix, fused)
                stripes[:, self.k :] = (
                    parity.reshape(self.m, s, length).transpose(1, 0, 2)
                )
            else:
                for idx in range(s):
                    stripes[idx, self.k :] = gf_matmul(
                        self.field, self.parity_matrix, data[idx]
                    )
        return stripes

    def encode_block(self, index: int, data: np.ndarray) -> np.ndarray:
        """The single stripe row with global ``index`` for the given data."""
        data = self._coerce_data(data)
        if not 0 <= index < self.n:
            raise ConfigurationError(f"block index must be in [0, {self.n}), got {index}")
        if index < self.k:
            return data[index].copy()
        return self.field.dot(self.generator[index], data)

    # ------------------------------------------------------------------ #
    # decode / repair
    # ------------------------------------------------------------------ #

    def _check_indices(self, indices) -> list[int]:
        """Fragment indices as ints: distinct, in range, at least k."""
        indices = [int(i) for i in indices]
        if len(set(indices)) != len(indices):
            raise DecodeError(f"duplicate fragment indices: {indices}")
        for i in indices:
            if not 0 <= i < self.n:
                raise DecodeError(f"fragment index {i} out of range [0, {self.n})")
        if len(indices) < self.k:
            raise DecodeError(
                f"need at least k={self.k} fragments, got {len(indices)}"
            )
        return indices

    def _gather(self, indices, fragments) -> tuple[list[int], np.ndarray]:
        indices = self._check_indices(indices)
        fragments = np.asarray(fragments, dtype=self.field.dtype)
        if fragments.ndim != 2 or fragments.shape[0] != len(indices):
            raise DecodeError(
                f"fragments must have shape ({len(indices)}, L), got {fragments.shape}"
            )
        return indices, fragments

    def decode_plan(self, indices) -> DecodePlan:
        """The cached :class:`DecodePlan` for a survivor set (>= k indices).

        Only the first k indices are used (matching :meth:`decode`); the
        key is the *sorted* survivor tuple, so every ordering of the same
        set shares one solve. Plans live in one LRU of
        ``PLAN_CACHE_SIZE`` per code, shared by every object of that code,
        so a set is solved once per process while the table holds it. A
        decode-then-verify read searching k-subsets meets hundreds of
        distinct sets, so hit rates depend on the table holding them all.
        """
        key = tuple(sorted(int(i) for i in indices[: self.k]))
        plans = self._plans
        plan = plans.get(key)
        if plan is not None:
            self.plan_cache_hits += 1
            plans.move_to_end(key)
            return plan
        # Only valid keys are ever stored, so a hit needs no checks.
        if len(key) != self.k:
            raise DecodeError(f"need at least k={self.k} fragments, got {len(key)}")
        for i in key:
            if not 0 <= i < self.n:
                raise DecodeError(f"fragment index {i} out of range [0, {self.n})")
        if len(set(key)) != self.k:
            raise DecodeError(f"duplicate fragment indices: {list(key)}")
        self.plan_cache_misses += 1
        plan = plans[key] = self._build_plan(key)
        while len(plans) > PLAN_CACHE_SIZE:
            plans.popitem(last=False)
        return plan

    def _build_plan(self, key: tuple[int, ...]) -> DecodePlan:
        """Invert the r x r block ``G[P, M]`` for one sorted survivor set."""
        data = [i for i in key if i < self.k]
        missing = sorted(set(range(self.k)).difference(data))
        weights = self.generator[list(key[len(data) :])]
        block_inv = inverse(self.field, weights[:, missing])
        rows = np.concatenate(
            [gf_matmul(self.field, block_inv, weights[:, data]), block_inv], axis=1
        )
        rows.setflags(write=False)
        return DecodePlan(
            indices=key,
            present=tuple((i, pos) for pos, i in enumerate(data)),
            missing=tuple(missing),
            solve_rows=rows,
        )

    def plan_cache_info(self) -> dict[str, int]:
        """This object's hits / misses, and the shared table's size / capacity."""
        return {
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "size": len(self._plans),
            "maxsize": PLAN_CACHE_SIZE,
        }

    def clear_plan_cache(self) -> None:
        """Drop every plan of this code (for every object) and reset the counters."""
        self._plans.clear()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @staticmethod
    def _sort_rows(use: list[int], frag: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Reorder fragment rows to the sorted-index order plans expect."""
        order = sorted(range(len(use)), key=use.__getitem__)
        if order == list(range(len(use))):
            return use, frag
        return [use[pos] for pos in order], frag[order]

    def decode(self, indices, fragments) -> np.ndarray:
        """Reconstruct the (k, L) data from any >= k fragments.

        ``indices`` are global block indices; ``fragments`` the matching
        rows. Exactly k of them are used (the first k given); the MDS
        property guarantees that any such square system is solvable. The
        solved rows come from the :meth:`decode_plan` cache, so only the
        first decode of a given survivor set pays for the solve.
        """
        indices, fragments = self._gather(indices, fragments)
        use, frag = self._sort_rows(indices[: self.k], fragments[: self.k])
        # Fast path: all k data blocks present among the chosen rows.
        if use == list(range(self.k)):
            return frag.copy()
        plan = self.decode_plan(use)
        return self._apply_plan(plan, frag)

    def _apply_plan(self, plan: DecodePlan, frag: np.ndarray) -> np.ndarray:
        """Systematic decode: copy survivor data rows, solve the missing.

        ``frag`` rows are in plan (sorted-index) order; output is (k, L).
        Only the |missing| absent data rows touch the kernel — for the
        common partial-loss survivor sets that is a fraction of the full
        (k, k) x (k, L) product the naive solve performs.
        """
        out = np.empty((self.k, frag.shape[1]), dtype=self.field.dtype)
        for i, pos in plan.present:
            out[i] = frag[pos]
        if plan.missing:
            out[list(plan.missing)] = gf_matmul(self.field, plan.solve_rows, frag)
        return out

    def decode_batch(self, indices, fragments) -> np.ndarray:
        """Decode S stripes that share one survivor set: (S, >=k, L) -> (S, k, L).

        ``indices`` are the global block indices of the fragment rows,
        identical for every stripe in the batch (the common case: one
        failure pattern across a whole volume). All stripes are fused
        into a single (k, S*L) solve against the cached plan.
        """
        idx_list = [int(i) for i in indices]
        fragments = self._coerce_batch(fragments, len(idx_list), "fragments")
        self._check_indices(idx_list)
        s, _, length = fragments.shape
        use = idx_list[: self.k]
        frag = fragments[:, : self.k]
        order = sorted(range(self.k), key=use.__getitem__)
        if order != list(range(self.k)):
            use = [use[pos] for pos in order]
            frag = frag[:, order]
        if use == list(range(self.k)):
            return frag.copy()
        if not s:
            return np.empty((0, self.k, length), dtype=self.field.dtype)
        plan = self.decode_plan(use)
        if length <= FUSE_MAX_BLOCK:
            # Fuse the batch into one (k, S*L) operand: a single kernel
            # dispatch (and one plan lookup) regardless of the stripe count.
            fused = np.ascontiguousarray(frag.transpose(1, 0, 2)).reshape(
                self.k, s * length
            )
            data = self._apply_plan(plan, fused)
            return np.ascontiguousarray(
                data.reshape(self.k, s, length).transpose(1, 0, 2)
            )
        out = np.empty((s, self.k, length), dtype=self.field.dtype)
        for idx in range(s):
            out[idx] = self._apply_plan(plan, frag[idx])
        return out

    def reconstruct_block(self, index: int, indices, fragments) -> np.ndarray:
        """Reconstruct the single block with global ``index``.

        ``fragments`` is a (>= k, L) array or a sequence of that many
        equal-length row arrays, in the order of ``indices`` (any order).
        Uses the fragment directly when present; otherwise combines the
        cached plan with the target's generator row into one (1, k) x
        (k, L) product over the rows as given — the plan's coefficients
        are permuted to the fragments' order rather than the fragments
        sorted (or a list of them stacked) to the plan's, and the full
        data matrix is never materialized.
        This is the ``decode(i, id, V)`` step of Algorithm 2 (Case 2).
        """
        if not 0 <= index < self.n:
            raise ConfigurationError(f"block index must be in [0, {self.n}), got {index}")
        idx_list = [int(i) for i in indices]
        if index in idx_list:
            return np.array(fragments[idx_list.index(index)], dtype=self.field.dtype)
        self._check_indices(idx_list)
        if len(fragments) != len(idx_list):
            raise DecodeError(
                f"fragments must have {len(idx_list)} rows, got {len(fragments)}"
            )
        use = idx_list[: self.k]
        order = sorted(range(self.k), key=use.__getitem__)
        key = sorted(use)
        if key == list(range(self.k)):
            row = self.generator[index]
        else:
            row = self.decode_plan(key).recode_row(self, index)
        # row[p] weighs the p-th smallest index, which arrived at order[p].
        coeffs = np.empty((1, self.k), dtype=self.field.dtype)
        coeffs[0, order] = row
        try:
            return gf_matmul(self.field, coeffs, fragments[: self.k])[0]
        except FieldError as exc:
            raise DecodeError(f"unusable fragments: {exc}") from exc

    def repair(self, lost, indices, fragments) -> np.ndarray:
        """Exact repair: recompute the rows in ``lost`` from >= k survivors.

        Returns an array of shape (len(lost), L) with the original contents
        of the lost blocks (exact repair in the paper's taxonomy). All lost
        rows are rebuilt in one stacked-recode-row product against the
        cached plan.
        """
        lost = [int(i) for i in lost]
        for index in lost:
            if not 0 <= index < self.n:
                raise ConfigurationError(
                    f"block index must be in [0, {self.n}), got {index}"
                )
        indices, fragments = self._gather(indices, fragments)
        use, frag = self._sort_rows(indices[: self.k], fragments[: self.k])
        if not lost:
            return np.empty((0, frag.shape[1]), dtype=self.field.dtype)
        if use == list(range(self.k)):
            rows = self.generator[lost]
        else:
            plan = self.decode_plan(use)
            rows = np.stack([plan.recode_row(self, index) for index in lost])
        return gf_matmul(self.field, rows, frag)

    # ------------------------------------------------------------------ #
    # in-place delta updates (Algorithm 1 support)
    # ------------------------------------------------------------------ #

    def delta(self, old_block: np.ndarray, new_block: np.ndarray) -> np.ndarray:
        """``new - old`` over the field (XOR); the paper's ``x - chunk``."""
        old_block = np.asarray(old_block, dtype=self.field.dtype)
        new_block = np.asarray(new_block, dtype=self.field.dtype)
        if old_block.shape != new_block.shape:
            raise ConfigurationError("old and new blocks must have equal shape")
        return np.bitwise_xor(new_block, old_block)

    def parity_delta(self, j: int, i: int, delta: np.ndarray) -> np.ndarray:
        """The buffer ``alpha_{j,i} * delta`` a parity node must XOR in."""
        coeff = self.coefficient(j, i)
        return self.field.scalar_mul(coeff, np.asarray(delta, dtype=self.field.dtype))

    def apply_parity_delta(
        self, parity_block: np.ndarray, j: int, i: int, delta: np.ndarray
    ) -> None:
        """In-place parity update ``b_j ^= alpha_{j,i} * delta``."""
        self.field.addmul_into(
            parity_block, self.coefficient(j, i), np.asarray(delta, dtype=self.field.dtype)
        )

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #

    def verify_mds(self, **kwargs) -> bool:
        """Check that every k-row submatrix of the generator is invertible."""
        return verify_mds(self.field, self.generator, **kwargs)

    def storage_overhead(self) -> float:
        """Stored bytes per byte of data: n / k (the paper's eq. 15 ratio)."""
        return self.n / self.k
