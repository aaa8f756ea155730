"""The vectorized dominance kernel: NumPy block tests.

Stores keep their members in amortized-doubling arrays, so appends are O(1)
and every query is a handful of vectorized comparisons over the whole block
instead of a Python-level loop.  Preference closures are converted to
boolean or ``uint64`` word ``ndarray`` once per :class:`~repro.kernels.tables`
object and cached in its ``scratch`` dict, so all stores sharing the tables
share the arrays.

This module imports :mod:`numpy` at import time; the registry in
:mod:`repro.kernels` only loads it when NumPy is installed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.base import (
    DominanceKernel,
    RecordStore,
    TDominanceStore,
    VectorStore,
    charge,
)
from repro.kernels.bitsets import attribute_word_arrays, closure_matrix
from repro.kernels.tables import RecordTables, TDominanceTables

_INITIAL_CAPACITY = 16

#: Bound on the elements of one (dominators, target-chunk, dims) comparison
#: cube in :meth:`NumpyKernel.record_block_dominated_mask`; keeps the
#: temporaries of huge cross-examinations around 32 MB.
_BLOCK_MASK_ELEMENTS = 32_000_000


class _GrowableMatrix:
    """A row-appendable 2-D array with amortized-doubling storage."""

    __slots__ = ("_buffer", "_size")

    def __init__(self, columns: int, dtype) -> None:
        self._buffer = np.empty((_INITIAL_CAPACITY, columns), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def view(self) -> np.ndarray:
        return self._buffer[: self._size]

    def append(self, row: Sequence[float]) -> None:
        if self._size == len(self._buffer):
            self._grow(self._size + 1)
        self._buffer[self._size] = row
        self._size += 1

    def extend(self, block: np.ndarray) -> None:
        """Bulk-append a whole (rows, columns) block in one copy."""
        needed = self._size + len(block)
        if needed > len(self._buffer):
            self._grow(needed)
        self._buffer[self._size : needed] = block
        self._size = needed

    def _grow(self, needed: int) -> None:
        capacity = len(self._buffer)
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self._buffer.shape[1]), dtype=self._buffer.dtype)
        grown[: self._size] = self.view
        self._buffer = grown

    def compress(self, keep: np.ndarray) -> None:
        kept = self.view[keep]
        self._size = len(kept)
        self._buffer[: self._size] = kept


def _pref_matrices(tables: RecordTables | TDominanceTables) -> list[np.ndarray]:
    """Boolean preferred-or-equal matrices, cached on the tables object."""
    cached = tables.scratch.get("numpy_pref")
    if cached is None:
        cached = [
            closure_matrix(table.closure, table.cardinality)
            for table in tables.attributes
        ]
        tables.scratch["numpy_pref"] = cached
    return cached


def _block_dominated(
    prefs: list[np.ndarray],
    dom_to: np.ndarray,
    dom_codes: np.ndarray,
    tgt_to: np.ndarray,
    tgt_codes: np.ndarray,
) -> np.ndarray:
    """Per target: dominated by any dominator?  (dominators, targets) blocks.

    Targets are processed in chunks so the (dominators, chunk, dims)
    comparison temporaries stay around 32 MB regardless of block sizes.
    """
    num_to = dom_to.shape[1]
    num_po = dom_codes.shape[1] if len(prefs) else 0
    chunk = max(1, _BLOCK_MASK_ELEMENTS // max(1, len(dom_to) * max(1, num_to)))
    out = np.zeros(len(tgt_to), dtype=bool)
    for low in range(0, len(tgt_to), chunk):
        high = min(low + chunk, len(tgt_to))
        to_block = tgt_to[None, low:high, :]
        weak = (dom_to[:, None, :] <= to_block).all(axis=2)
        strict = (dom_to[:, None, :] < to_block).any(axis=2)
        for po_index in range(num_po):
            codes = dom_codes[:, po_index][:, None]
            target_codes = tgt_codes[low:high, po_index][None, :]
            preferred = prefs[po_index][codes, target_codes]
            weak &= preferred
            strict |= preferred & (codes != target_codes)
        out[low:high] = (weak & strict).any(axis=0)
    return out


def _as_to_block(rows, num_to: int) -> np.ndarray:
    # The explicit row count matters when num_to == 0 (PO-only schemas):
    # reshape(-1, 0) cannot infer it from a size-0 array.  Column slices of
    # a tree's matrices come in strided; the compiled loops expect C order.
    return np.ascontiguousarray(rows, dtype=np.float64).reshape(len(rows), num_to)


def _target_chunks(members: int, dims: int, targets: int):
    """``(low, high)`` target slices keeping (members, chunk, dims)
    broadcast temporaries within the :data:`_BLOCK_MASK_ELEMENTS` budget."""
    chunk = max(1, _BLOCK_MASK_ELEMENTS // max(1, members * max(1, dims)))
    for low in range(0, targets, chunk):
        yield low, min(low + chunk, targets)


def _as_code_block(rows, num_po: int, length: int) -> np.ndarray:
    if num_po:
        return np.asarray(rows, dtype=np.int64).reshape(-1, num_po)
    return np.zeros((length, 1), dtype=np.int64)


class NumpyVectorStore(VectorStore):
    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self._rows = _GrowableMatrix(dimensions, dtype=np.float64)

    def append(self, vector: Sequence[float]) -> None:
        self._rows.append(vector)

    def extend(self, rows) -> None:
        self._rows.extend(_as_to_block(rows, self.dimensions))

    def __len__(self) -> int:
        return len(self._rows)

    def compress(self, keep: Sequence[bool]) -> None:
        self._rows.compress(np.asarray(keep, dtype=bool))

    def _any_member_mask(self, targets, counter, compare) -> list[bool]:
        """Chunked per-target "any member matches" mask shared by the block
        queries; ``compare(members, chunk)`` returns the (members, chunk)
        match matrix for one broadcast pair."""
        block = self._rows.view
        targets = _as_to_block(targets, self.dimensions)
        charge(counter, len(block) * len(targets))
        if not len(block) or not len(targets):
            return [False] * len(targets)
        out = np.zeros(len(targets), dtype=bool)
        for low, high in _target_chunks(len(block), self.dimensions, len(targets)):
            sub = targets[None, low:high, :]
            out[low:high] = compare(block[:, None, :], sub).any(axis=0)
        return out.tolist()

    def block_dominated_mask(self, targets, counter=None) -> list[bool]:
        def strictly_dominated(members, sub):
            return (members <= sub).all(axis=2) & (members < sub).any(axis=2)

        return self._any_member_mask(targets, counter, strictly_dominated)

    def any_dominates(
        self, candidate: Sequence[float], counter=None, *, start: int = 0
    ) -> bool:
        block = self._rows.view[start:] if start else self._rows.view
        charge(counter, len(block))
        if not len(block):
            return False
        q = np.asarray(candidate, dtype=np.float64)
        le = block <= q
        return bool(np.any(le.all(axis=1) & (block < q).any(axis=1)))

    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
        start: int = 0,
    ) -> bool:
        block = self._rows.view[start:] if start else self._rows.view
        charge(counter, len(block))
        if not len(block):
            return False
        q = np.asarray(corner, dtype=np.float64)
        weak = (block <= q).all(axis=1)
        if exclude_equal:
            weak &= (block != q).any(axis=1)
        return bool(weak.any())

    def mbr_block_dominated(
        self, corners, counter=None, *, exclude_equal: bool = False
    ) -> list[bool]:
        def weakly_dominated(members, sub):
            weak = (members <= sub).all(axis=2)
            if exclude_equal:
                weak &= (members != sub).any(axis=2)
            return weak

        return self._any_member_mask(corners, counter, weakly_dominated)


class NumpyRecordStore(RecordStore):
    def __init__(self, tables: RecordTables) -> None:
        self.tables = tables
        self._pref = _pref_matrices(tables)
        self._to = _GrowableMatrix(tables.num_total_order, dtype=np.float64)
        self._codes = _GrowableMatrix(max(1, tables.num_partial_order), dtype=np.int64)
        self._num_po = tables.num_partial_order

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._to.append(to_values)
        self._codes.append(po_codes if self._num_po else (0,))

    def extend(self, to_rows, code_rows) -> None:
        to_block = _as_to_block(to_rows, self.tables.num_total_order)
        self._to.extend(to_block)
        self._codes.extend(_as_code_block(code_rows, self._num_po, len(to_block)))

    def __len__(self) -> int:
        return len(self._to)

    def compress(self, keep: Sequence[bool]) -> None:
        mask = np.asarray(keep, dtype=bool)
        self._to.compress(mask)
        self._codes.compress(mask)

    def _masks_against(self, to_values, po_codes) -> tuple[np.ndarray, np.ndarray]:
        """(members dominate candidate, candidate dominates members)."""
        block_to = self._to.view
        block_codes = self._codes.view
        q_to = np.asarray(to_values, dtype=np.float64)
        to_weak_fwd = (block_to <= q_to).all(axis=1)
        to_strict_fwd = (block_to < q_to).any(axis=1)
        to_weak_bwd = (block_to >= q_to).all(axis=1)
        to_strict_bwd = (block_to > q_to).any(axis=1)
        po_ok_fwd = np.ones(len(block_to), dtype=bool)
        po_strict_fwd = np.zeros(len(block_to), dtype=bool)
        po_ok_bwd = np.ones(len(block_to), dtype=bool)
        po_strict_bwd = np.zeros(len(block_to), dtype=bool)
        for po_index in range(self._num_po):
            matrix = self._pref[po_index]
            codes = block_codes[:, po_index]
            q_code = int(po_codes[po_index])
            fwd = matrix[codes, q_code]
            bwd = matrix[q_code, codes]
            differs = codes != q_code
            po_ok_fwd &= fwd
            po_ok_bwd &= bwd
            po_strict_fwd |= fwd & differs
            po_strict_bwd |= bwd & differs
        forward = to_weak_fwd & po_ok_fwd & (to_strict_fwd | po_strict_fwd)
        backward = to_weak_bwd & po_ok_bwd & (to_strict_bwd | po_strict_bwd)
        return forward, backward

    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        charge(counter, len(self))
        if not len(self):
            return False
        forward, _ = self._masks_against(to_values, po_codes)
        return bool(forward.any())

    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        charge(counter, 2 * len(self))
        if not len(self):
            return False, []
        forward, backward = self._masks_against(to_values, po_codes)
        return bool(forward.any()), backward.tolist()

    def block_dominated_mask(
        self,
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        charge(counter, len(self) * len(targets))
        if not len(self) or not targets:
            return [False] * len(targets)
        tgt_to = np.array([t[0] for t in targets], dtype=np.float64).reshape(
            len(targets), self.tables.num_total_order
        )
        tgt_codes = np.array(
            [t[1] if self._num_po else (0,) for t in targets], dtype=np.int64
        ).reshape(len(targets), max(1, self._num_po))
        mask = _block_dominated(
            self._pref[: self._num_po],
            self._to.view,
            self._codes.view,
            tgt_to,
            tgt_codes,
        )
        return mask.tolist()

    def block_dominated_columns(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        charge(counter, len(self) * len(tgt_to))
        if not len(self) or not len(tgt_to):
            return [False] * len(tgt_to)
        mask = _block_dominated(
            self._pref[: self._num_po],
            self._to.view,
            self._codes.view,
            tgt_to,
            _as_code_block(code_rows, self._num_po, len(tgt_to)),
        )
        return mask.tolist()


class NumpyTDominanceStore(TDominanceStore):
    """T-dominance over bitset-packed closures and reach-end tables.

    Point tests gather from the uint64 bitset rows of
    :mod:`repro.kernels.bitsets` — one word gather plus shift-AND per
    attribute.  MBB tests gather one entry per attribute from
    :attr:`TDominanceTables.reach_end
    <repro.kernels.tables.TDominanceTables.reach_end>`.
    """

    def __init__(self, tables: TDominanceTables) -> None:
        self.tables = tables
        self._bits = attribute_word_arrays(tables)
        self._reach = tables.reach_end
        self._to = _GrowableMatrix(tables.num_total_order, dtype=np.float64)
        self._codes = _GrowableMatrix(max(1, tables.num_partial_order), dtype=np.int64)
        self._num_po = tables.num_partial_order

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._to.append(to_values)
        self._codes.append(po_codes if self._num_po else (0,))

    def extend(self, to_rows, code_rows) -> None:
        to_block = _as_to_block(to_rows, self.tables.num_total_order)
        self._to.extend(to_block)
        self._codes.extend(_as_code_block(code_rows, self._num_po, len(to_block)))

    def __len__(self) -> int:
        return len(self._to)

    def block_weakly_dominated(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        charge(counter, len(self) * len(tgt_to))
        if not len(self) or not len(tgt_to):
            return [False] * len(tgt_to)
        block_to = self._to.view
        block_codes = self._codes.view
        tgt_codes = _as_code_block(code_rows, self._num_po, len(tgt_to))
        out = np.zeros(len(tgt_to), dtype=bool)
        dims = self.tables.num_total_order
        for low, high in _target_chunks(len(block_to), dims, len(tgt_to)):
            weak = (block_to[:, None, :] <= tgt_to[None, low:high, :]).all(axis=2)
            for po_index in range(self._num_po):
                words = self._bits[po_index]
                target_codes = tgt_codes[low:high, po_index]
                gathered = words[
                    block_codes[:, po_index][:, None],
                    (target_codes >> 6)[None, :],
                ]
                bits = (target_codes & 63).astype(np.uint64)[None, :]
                weak &= ((gathered >> bits) & np.uint64(1)).astype(bool)
            out[low:high] = weak.any(axis=0)
        return out.tolist()

    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        block_to = self._to.view[start:] if start else self._to.view
        charge(counter, len(block_to))
        if not len(block_to):
            return False
        block_codes = self._codes.view[start:] if start else self._codes.view
        mask = (block_to <= np.asarray(to_values, dtype=np.float64)).all(axis=1)
        for po_index in range(self._num_po):
            if not mask.any():
                return False
            code = int(po_codes[po_index])
            rows = self._bits[po_index][block_codes[:, po_index], code >> 6]
            mask &= ((rows >> np.uint64(code & 63)) & np.uint64(1)).astype(bool)
        return bool(mask.any())

    def mbb_dominated(
        self,
        to_low: Sequence[float],
        code_low: Sequence[int],
        code_high: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        block_to = self._to.view[start:] if start else self._to.view
        charge(counter, len(block_to))
        if not len(block_to):
            return False
        block_codes = self._codes.view[start:] if start else self._codes.view
        mask = (block_to <= np.asarray(to_low, dtype=np.float64)).all(axis=1)
        for po_index in range(self._num_po):
            if not mask.any():
                return False
            reach = self._reach[po_index][block_codes[:, po_index], int(code_low[po_index])]
            mask &= reach > int(code_high[po_index])
        return bool(mask.any())

    def mbb_block_dominated(
        self,
        to_lows,
        code_lows,
        code_highs,
        counter=None,
    ) -> list[bool]:
        lows = _as_to_block(to_lows, self.tables.num_total_order)
        num_mbbs = len(lows)
        charge(counter, len(self) * num_mbbs)
        if not len(self) or not num_mbbs:
            return [False] * num_mbbs
        block_codes = self._codes.view
        # (members, mbbs) verdict matrix; fanout is node-capacity bounded,
        # so the broadcast stays small even against a large skyline store.
        mask = (self._to.view[:, None, :] <= lows[None, :, :]).all(axis=2)
        range_low = _as_code_block(code_lows, self._num_po, num_mbbs)
        range_high = _as_code_block(code_highs, self._num_po, num_mbbs)
        for po_index in range(self._num_po):
            reach = self._reach[po_index][
                block_codes[:, po_index][:, None], range_low[:, po_index][None, :]
            ]
            mask &= reach > range_high[:, po_index][None, :]
        return mask.any(axis=0).tolist()


class NumpyKernel(DominanceKernel):
    """Vectorized backend (requires NumPy)."""

    name = "numpy"

    def vector_store(self, dimensions: int) -> VectorStore:
        return NumpyVectorStore(dimensions)

    def record_store(self, tables: RecordTables) -> RecordStore:
        return NumpyRecordStore(tables)

    def tdominance_store(self, tables: TDominanceTables) -> TDominanceStore:
        return NumpyTDominanceStore(tables)

    #: Points processed per vectorized step of :meth:`pareto_mask`.
    PARETO_CHUNK = 512
    #: Kept-front rows compared per sub-step.  Small on purpose: the front is
    #: kept in sum order, so most points are killed by its first rows and the
    #: shrinking-active-set loop regains the early-exit a scalar scan enjoys.
    PARETO_KEPT_CHUNK = 64

    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim != 2 or not len(matrix):
            return [True] * len(matrix)
        if matrix.shape[1] == 1:
            # One dimension: exactly the minima survive (duplicates included).
            return (matrix[:, 0] == matrix[:, 0].min()).tolist()
        if matrix.shape[1] == 2:
            return self._pareto_mask_2d(matrix)
        # Sweep in monotone (sum) order: strict dominance implies a strictly
        # smaller coordinate sum, so a point can only be dominated by an
        # earlier one.  Chunks are resolved with two broadcast tests — chunk
        # vs the kept front, and chunk vs itself (upper triangle; transitivity
        # makes testing against dominated chunk members harmless).
        order = np.argsort(matrix.sum(axis=1), kind="stable")
        ordered = matrix[order]
        total = len(ordered)
        kept_rows = np.empty_like(matrix)
        num_kept = 0
        mask = np.zeros(total, dtype=bool)
        for start in range(0, total, self.PARETO_CHUNK):
            chunk = ordered[start : start + self.PARETO_CHUNK]
            size = len(chunk)
            dominated = np.zeros(size, dtype=bool)
            active = np.arange(size)
            for kept_start in range(0, num_kept, self.PARETO_KEPT_CHUNK):
                if not len(active):
                    break
                block = kept_rows[kept_start : min(kept_start + self.PARETO_KEPT_CHUNK, num_kept)]
                sub = chunk[active]
                le = block[:, None, :] <= sub[None, :, :]
                lt = block[:, None, :] < sub[None, :, :]
                newly = (le.all(axis=2) & lt.any(axis=2)).any(axis=0)
                dominated[active[newly]] = True
                active = active[~newly]
            # Within-chunk pass over the points the front did not kill.  A
            # chunk member dominated by the front cannot create new verdicts:
            # anything it dominates is dominated by its dominator too.
            undominated = np.flatnonzero(~dominated)
            if len(undominated) > 1:
                sub = chunk[undominated]
                le = sub[:, None, :] <= sub[None, :, :]
                lt = sub[:, None, :] < sub[None, :, :]
                within = le.all(axis=2) & lt.any(axis=2)
                # Only earlier members (strictly smaller sum) can be
                # dominators; the triangle restriction also removes self-pairs.
                within &= np.tri(len(sub), len(sub), -1, dtype=bool).T
                dominated[undominated[within.any(axis=0)]] = True
            survivors = chunk[~dominated]
            kept_rows[num_kept : num_kept + len(survivors)] = survivors
            num_kept += len(survivors)
            mask[start : start + size] = ~dominated
        result = np.zeros(total, dtype=bool)
        result[order] = mask
        return result.tolist()

    @staticmethod
    def _pareto_mask_2d(matrix: np.ndarray) -> list[bool]:
        """Two dimensions: one lexicographic sort, no pairwise comparisons.

        After sorting by ``(x, y)``, a point is dominated iff some earlier
        ``x``-run reaches a ``y`` no larger than its own (x strictly better),
        or its own ``x``-run starts at a strictly smaller ``y`` (y strictly
        better).  Exact duplicates survive together, matching the reference
        semantics.
        """
        order = np.lexsort((matrix[:, 1], matrix[:, 0]))
        x = matrix[order, 0]
        y = matrix[order, 1]
        run_starts = np.empty(len(x), dtype=bool)
        run_starts[0] = True
        np.not_equal(x[1:], x[:-1], out=run_starts[1:])
        run_ids = np.cumsum(run_starts) - 1
        # y is ascending within an x-run, so each run's minimum is its first y.
        run_min_y = y[run_starts]
        best_y_upto = np.minimum.accumulate(run_min_y)
        best_y_before = np.empty_like(best_y_upto)
        best_y_before[0] = np.inf
        best_y_before[1:] = best_y_upto[:-1]
        dominated = (best_y_before[run_ids] <= y) | (run_min_y[run_ids] < y)
        result = np.empty(len(x), dtype=bool)
        result[order] = ~dominated
        return result.tolist()

    def record_block_dominated_mask(
        self,
        tables: RecordTables,
        dominators: Sequence[tuple[Sequence[float], Sequence[int]]],
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        charge(counter, len(dominators) * len(targets))
        if not dominators or not targets:
            return [False] * len(targets)
        num_to = tables.num_total_order
        num_po = tables.num_partial_order
        prefs = _pref_matrices(tables)
        dom_to = np.array([d[0] for d in dominators], dtype=np.float64).reshape(
            len(dominators), num_to
        )
        tgt_to = np.array([t[0] for t in targets], dtype=np.float64).reshape(
            len(targets), num_to
        )
        dom_codes = np.array(
            [d[1] if num_po else (0,) for d in dominators], dtype=np.int64
        ).reshape(len(dominators), max(1, num_po))
        tgt_codes = np.array(
            [t[1] if num_po else (0,) for t in targets], dtype=np.int64
        ).reshape(len(targets), max(1, num_po))
        out = _block_dominated(prefs[:num_po], dom_to, dom_codes, tgt_to, tgt_codes)
        return out.tolist()

    def record_block_dominated_columns(
        self,
        tables: RecordTables,
        dominator_to,
        dominator_codes,
        target_to,
        target_codes,
        counter=None,
    ) -> list[bool]:
        num_po = tables.num_partial_order
        dom_to = _as_to_block(dominator_to, tables.num_total_order)
        tgt_to = _as_to_block(target_to, tables.num_total_order)
        charge(counter, len(dom_to) * len(tgt_to))
        if not len(dom_to) or not len(tgt_to):
            return [False] * len(tgt_to)
        out = _block_dominated(
            _pref_matrices(tables)[:num_po],
            dom_to,
            _as_code_block(dominator_codes, num_po, len(dom_to)),
            tgt_to,
            _as_code_block(target_codes, num_po, len(tgt_to)),
        )
        return out.tolist()
