"""The JIT-compiled dominance kernel: numba ``@njit`` fused loops.

Third kernel tier.  The NumPy backend answers every query with materialized
boolean matrices — an O(window x block) intermediate per call and no early
exit.  This backend runs the same queries as *fused, early-exiting compiled
loops* over the very arrays the NumPy stores already hold (the stores here
subclass them and share the growable buffers): each candidate row
short-circuits on its first dominator, no comparison matrix is ever
allocated, and PO t-preference is answered from the bitset-packed dominance
closures of :mod:`repro.kernels.bitsets` — one uint64 word gather plus
shift-AND per attribute, handed to the compiled loops as a single
contiguous ``(attribute, code, word)`` cube.

Because the loops early-exit exactly like the reference backend, the
``counter`` charges match :mod:`repro.kernels.purepython` comparison for
comparison (the agreement suite asserts equal-or-fewer checks), while each
comparison runs at compiled speed.

This module imports :mod:`numba` (and numpy) at import time; the registry
in :mod:`repro.kernels` only loads it when numba is installed and falls
back to the NumPy backend — with a warning naming the ``[jit]`` extra —
when it is not.  All functions are compiled with ``cache=True``: set
``NUMBA_CACHE_DIR`` to persist the compile cache across processes (CI,
pool workers), turning warm-up into a load instead of a compile.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numba import njit

from repro.kernels.base import charge
from repro.kernels.bitsets import packed_word_cube
from repro.kernels.numpy_kernel import (
    NumpyKernel,
    NumpyRecordStore,
    NumpyTDominanceStore,
    NumpyVectorStore,
    _as_code_block,
    _as_to_block,
)
from repro.kernels.tables import RecordTables, TDominanceTables


# --------------------------------------------------------------------- #
# Vector dominance
# --------------------------------------------------------------------- #
@njit(cache=True)
def _vec_dominates_row(block, i, q):
    ok = True
    strict = False
    for j in range(q.shape[0]):
        a = block[i, j]
        b = q[j]
        if a > b:
            ok = False
            break
        if a < b:
            strict = True
    return ok and strict


@njit(cache=True)
def _vec_weakly_dominates_row(block, i, q, exclude_equal):
    ok = True
    equal = True
    for j in range(q.shape[0]):
        a = block[i, j]
        b = q[j]
        if a > b:
            ok = False
            break
        if a != b:
            equal = False
    return ok and not (exclude_equal and equal)


@njit(cache=True)
def _vec_any_dominates(block, q):
    checks = 0
    for i in range(block.shape[0]):
        checks += 1
        if _vec_dominates_row(block, i, q):
            return True, checks
    return False, checks


@njit(cache=True)
def _vec_any_weakly_dominates(block, q, exclude_equal):
    checks = 0
    for i in range(block.shape[0]):
        checks += 1
        if _vec_weakly_dominates_row(block, i, q, exclude_equal):
            return True, checks
    return False, checks


@njit(cache=True)
def _vec_block_dominated(block, targets):
    mask = np.zeros(targets.shape[0], dtype=np.bool_)
    checks = 0
    for t in range(targets.shape[0]):
        q = targets[t]
        for i in range(block.shape[0]):
            checks += 1
            if _vec_dominates_row(block, i, q):
                mask[t] = True
                break
    return mask, checks


@njit(cache=True)
def _vec_mbr_block_dominated(block, corners, exclude_equal):
    mask = np.zeros(corners.shape[0], dtype=np.bool_)
    checks = 0
    for t in range(corners.shape[0]):
        q = corners[t]
        for i in range(block.shape[0]):
            checks += 1
            if _vec_weakly_dominates_row(block, i, q, exclude_equal):
                mask[t] = True
                break
    return mask, checks


@njit(cache=True)
def _pareto_sweep(ordered):
    n = ordered.shape[0]
    d = ordered.shape[1]
    kept = np.empty((n, d), dtype=np.float64)
    num_kept = 0
    mask = np.empty(n, dtype=np.bool_)
    for i in range(n):
        dominated = False
        for k in range(num_kept):
            ok = True
            strict = False
            for j in range(d):
                a = kept[k, j]
                b = ordered[i, j]
                if a > b:
                    ok = False
                    break
                if a < b:
                    strict = True
            if ok and strict:
                dominated = True
                break
        mask[i] = not dominated
        if not dominated:
            for j in range(d):
                kept[num_kept, j] = ordered[i, j]
            num_kept += 1
    return mask


# --------------------------------------------------------------------- #
# Record (ground-truth TO/PO) dominance over bitset closures
# --------------------------------------------------------------------- #
@njit(cache=True)
def _bit_pref(words, attribute, better, worse):
    word = words[attribute, better, np.int64(worse) >> 6]
    return (word >> np.uint64(worse & 63)) & np.uint64(1) != np.uint64(0)


@njit(cache=True)
def _rec_dominates_rows(p_to, p_codes, q_to, q_codes, words, num_po):
    strict = False
    for j in range(p_to.shape[0]):
        a = p_to[j]
        b = q_to[j]
        if a > b:
            return False
        if a < b:
            strict = True
    for k in range(num_po):
        cp = p_codes[k]
        cq = q_codes[k]
        if cp == cq:
            continue
        if _bit_pref(words, k, cp, cq):
            strict = True
        else:
            return False
    return strict


@njit(cache=True)
def _rec_any_dominates(to_block, code_block, q_to, q_codes, words, num_po):
    checks = 0
    for i in range(to_block.shape[0]):
        checks += 1
        if _rec_dominates_rows(to_block[i], code_block[i], q_to, q_codes, words, num_po):
            return True, checks
    return False, checks


@njit(cache=True)
def _rec_dominance_masks(to_block, code_block, q_to, q_codes, words, num_po):
    n = to_block.shape[0]
    dominated = False
    evicted = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        if not dominated and _rec_dominates_rows(
            to_block[i], code_block[i], q_to, q_codes, words, num_po
        ):
            dominated = True
        evicted[i] = _rec_dominates_rows(
            q_to, q_codes, to_block[i], code_block[i], words, num_po
        )
    return dominated, evicted


@njit(cache=True)
def _rec_block_dominated(dom_to, dom_codes, tgt_to, tgt_codes, words, num_po):
    mask = np.zeros(tgt_to.shape[0], dtype=np.bool_)
    checks = 0
    for t in range(tgt_to.shape[0]):
        for i in range(dom_to.shape[0]):
            checks += 1
            if _rec_dominates_rows(
                dom_to[i], dom_codes[i], tgt_to[t], tgt_codes[t], words, num_po
            ):
                mask[t] = True
                break
    return mask, checks


# --------------------------------------------------------------------- #
# t-dominance over bitset closures
# --------------------------------------------------------------------- #
@njit(cache=True)
def _td_weakly_dominates_row(to_block, code_block, i, q_to, q_codes, words, num_po):
    for j in range(q_to.shape[0]):
        if to_block[i, j] > q_to[j]:
            return False
    for k in range(num_po):
        if not _bit_pref(words, k, code_block[i, k], q_codes[k]):
            return False
    return True


@njit(cache=True)
def _td_any_weakly_dominates(to_block, code_block, q_to, q_codes, words, num_po):
    checks = 0
    for i in range(to_block.shape[0]):
        checks += 1
        if _td_weakly_dominates_row(to_block, code_block, i, q_to, q_codes, words, num_po):
            return True, checks
    return False, checks


@njit(cache=True)
def _td_block_weakly_dominated(to_block, code_block, tgt_to, tgt_codes, words, num_po):
    mask = np.zeros(tgt_to.shape[0], dtype=np.bool_)
    checks = 0
    for t in range(tgt_to.shape[0]):
        for i in range(to_block.shape[0]):
            checks += 1
            if _td_weakly_dominates_row(
                to_block, code_block, i, tgt_to[t], tgt_codes[t], words, num_po
            ):
                mask[t] = True
                break
    return mask, checks


@njit(cache=True)
def _td_covers_mbb_row(to_block, code_block, i, to_low, code_low, code_high, reach, num_po):
    for j in range(to_low.shape[0]):
        if to_block[i, j] > to_low[j]:
            return False
    for k in range(num_po):
        if reach[k, code_block[i, k], code_low[k]] <= code_high[k]:
            return False
    return True


@njit(cache=True)
def _td_mbb_dominated(to_block, code_block, to_low, code_low, code_high, reach, num_po):
    for i in range(to_block.shape[0]):
        if _td_covers_mbb_row(
            to_block, code_block, i, to_low, code_low, code_high, reach, num_po
        ):
            return True
    return False


@njit(cache=True)
def _td_mbb_block_dominated(
    to_block, code_block, to_lows, code_lows, code_highs, reach, num_po
):
    mask = np.zeros(to_lows.shape[0], dtype=np.bool_)
    for t in range(to_lows.shape[0]):
        for i in range(to_block.shape[0]):
            if _td_covers_mbb_row(
                to_block, code_block, i, to_lows[t], code_lows[t], code_highs[t], reach, num_po
            ):
                mask[t] = True
                break
    return mask


def _reach_cube(tables: TDominanceTables) -> np.ndarray:
    """All attributes' reach-end tables as one zero-padded
    ``(num_po, max_card, max_card)`` int32 cube (scratch-cached)."""
    cached = tables.scratch.get("jit_reach_cube")
    if cached is None:
        reach = tables.reach_end
        size = max((len(table) for table in reach), default=0)
        cached = np.zeros((max(1, len(reach)), max(1, size), max(1, size)), dtype=np.int32)
        for attribute, table in enumerate(reach):
            cached[attribute, : len(table), : len(table)] = table
        tables.scratch["jit_reach_cube"] = cached
    return cached


# --------------------------------------------------------------------- #
# Stores
# --------------------------------------------------------------------- #
class JitVectorStore(NumpyVectorStore):
    """Vector store answered by fused early-exit compiled loops."""

    def any_dominates(
        self, candidate: Sequence[float], counter=None, *, start: int = 0
    ) -> bool:
        block = self._rows.view[start:] if start else self._rows.view
        verdict, checks = _vec_any_dominates(
            block, np.asarray(candidate, dtype=np.float64)
        )
        charge(counter, checks)
        return bool(verdict)

    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
        start: int = 0,
    ) -> bool:
        block = self._rows.view[start:] if start else self._rows.view
        verdict, checks = _vec_any_weakly_dominates(
            block, np.asarray(corner, dtype=np.float64), exclude_equal
        )
        charge(counter, checks)
        return bool(verdict)

    def block_dominated_mask(self, targets, counter=None) -> list[bool]:
        mask, checks = _vec_block_dominated(
            self._rows.view, _as_to_block(targets, self.dimensions)
        )
        charge(counter, checks)
        return mask.tolist()

    def mbr_block_dominated(
        self, corners, counter=None, *, exclude_equal: bool = False
    ) -> list[bool]:
        mask, checks = _vec_mbr_block_dominated(
            self._rows.view, _as_to_block(corners, self.dimensions), exclude_equal
        )
        charge(counter, checks)
        return mask.tolist()


class JitRecordStore(NumpyRecordStore):
    """Record store answered by fused compiled loops over bitset closures."""

    def __init__(self, tables: RecordTables) -> None:
        super().__init__(tables)
        self._words = packed_word_cube(tables)

    def _q_codes(self, po_codes) -> np.ndarray:
        return np.asarray(
            po_codes if self._num_po else (0,), dtype=np.int64
        ).reshape(max(1, self._num_po))

    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        verdict, checks = _rec_any_dominates(
            self._to.view,
            self._codes.view,
            np.asarray(to_values, dtype=np.float64),
            self._q_codes(po_codes),
            self._words,
            self._num_po,
        )
        charge(counter, checks)
        return bool(verdict)

    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        charge(counter, 2 * len(self))
        dominated, evicted = _rec_dominance_masks(
            self._to.view,
            self._codes.view,
            np.asarray(to_values, dtype=np.float64),
            self._q_codes(po_codes),
            self._words,
            self._num_po,
        )
        return bool(dominated), evicted.tolist()

    def block_dominated_mask(
        self,
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        if not targets:
            return []
        num_to = self.tables.num_total_order
        tgt_to = np.array([t[0] for t in targets], dtype=np.float64).reshape(
            len(targets), num_to
        )
        tgt_codes = np.array(
            [t[1] if self._num_po else (0,) for t in targets], dtype=np.int64
        ).reshape(len(targets), max(1, self._num_po))
        mask, checks = _rec_block_dominated(
            self._to.view, self._codes.view, tgt_to, tgt_codes, self._words, self._num_po
        )
        charge(counter, checks)
        return mask.tolist()

    def block_dominated_columns(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        mask, checks = _rec_block_dominated(
            self._to.view,
            self._codes.view,
            tgt_to,
            _as_code_block(code_rows, self._num_po, len(tgt_to)),
            self._words,
            self._num_po,
        )
        charge(counter, checks)
        return mask.tolist()


class JitTDominanceStore(NumpyTDominanceStore):
    """t-dominance store answered by fused compiled loops over bitsets."""

    def __init__(self, tables: TDominanceTables) -> None:
        super().__init__(tables)
        self._words = packed_word_cube(tables)
        self._reach_cube = _reach_cube(tables)

    def _q_codes(self, po_codes) -> np.ndarray:
        return np.asarray(
            po_codes if self._num_po else (0,), dtype=np.int64
        ).reshape(max(1, self._num_po))

    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        to_block = self._to.view[start:] if start else self._to.view
        code_block = self._codes.view[start:] if start else self._codes.view
        verdict, checks = _td_any_weakly_dominates(
            to_block,
            code_block,
            np.asarray(to_values, dtype=np.float64),
            self._q_codes(po_codes),
            self._words,
            self._num_po,
        )
        charge(counter, checks)
        return bool(verdict)

    def block_weakly_dominated(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        mask, checks = _td_block_weakly_dominated(
            self._to.view,
            self._codes.view,
            tgt_to,
            _as_code_block(code_rows, self._num_po, len(tgt_to)),
            self._words,
            self._num_po,
        )
        charge(counter, checks)
        return mask.tolist()

    def mbb_dominated(
        self,
        to_low: Sequence[float],
        code_low: Sequence[int],
        code_high: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        to_block = self._to.view[start:] if start else self._to.view
        code_block = self._codes.view[start:] if start else self._codes.view
        # Charged per member scanned, early exit or not (the shared MBB rule).
        charge(counter, len(to_block))
        return bool(
            _td_mbb_dominated(
                to_block,
                code_block,
                np.asarray(to_low, dtype=np.float64).reshape(self.tables.num_total_order),
                self._q_codes(code_low),
                self._q_codes(code_high),
                self._reach_cube,
                self._num_po,
            )
        )

    def mbb_block_dominated(
        self,
        to_lows,
        code_lows,
        code_highs,
        counter=None,
    ) -> list[bool]:
        lows = _as_to_block(to_lows, self.tables.num_total_order)
        charge(counter, len(self) * len(lows))
        mask = _td_mbb_block_dominated(
            self._to.view,
            self._codes.view,
            lows,
            _as_code_block(code_lows, self._num_po, len(lows)),
            _as_code_block(code_highs, self._num_po, len(lows)),
            self._reach_cube,
            self._num_po,
        )
        return mask.tolist()


class JitKernel(NumpyKernel):
    """numba-compiled backend (requires numba + NumPy; ``[jit]`` extra).

    Inherits the NumPy backend's stateless batch ops where vectorization is
    already optimal (the low-dimension ``pareto_mask`` fast paths) and
    replaces every store query plus the high-dimension Pareto
    sweep with fused early-exit compiled loops.
    """

    name = "jit"

    def __init__(self) -> None:
        self._warmed = False

    def vector_store(self, dimensions: int) -> JitVectorStore:
        return JitVectorStore(dimensions)

    def record_store(self, tables: RecordTables) -> JitRecordStore:
        return JitRecordStore(tables)

    def tdominance_store(self, tables: TDominanceTables) -> JitTDominanceStore:
        return JitTDominanceStore(tables)

    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim != 2 or not len(matrix) or matrix.shape[1] <= 2:
            # The 1-D/2-D sort-based fast paths beat any pairwise sweep.
            return super().pareto_mask(rows)
        order = np.argsort(matrix.sum(axis=1), kind="stable")
        ordered_mask = _pareto_sweep(np.ascontiguousarray(matrix[order]))
        result = np.zeros(len(matrix), dtype=bool)
        result[order] = ordered_mask
        return result.tolist()

    def warmup(self) -> bool:
        """Compile (or cache-load) every ``@njit`` loop on tiny inputs."""
        if self._warmed:
            return True
        to = np.zeros((1, 2), dtype=np.float64)
        codes = np.zeros((1, 1), dtype=np.int64)
        q_to = np.zeros(2, dtype=np.float64)
        q_codes = np.zeros(1, dtype=np.int64)
        words = np.zeros((1, 1, 1), dtype=np.uint64)
        reach = np.zeros((1, 1, 1), dtype=np.int32)
        _vec_any_dominates(to, q_to)
        _vec_any_weakly_dominates(to, q_to, True)
        _vec_block_dominated(to, to)
        _vec_mbr_block_dominated(to, to, False)
        _pareto_sweep(np.zeros((1, 3), dtype=np.float64))
        _rec_any_dominates(to, codes, q_to, q_codes, words, 1)
        _rec_dominance_masks(to, codes, q_to, q_codes, words, 1)
        _rec_block_dominated(to, codes, to, codes, words, 1)
        _td_any_weakly_dominates(to, codes, q_to, q_codes, words, 1)
        _td_block_weakly_dominated(to, codes, to, codes, words, 1)
        _td_mbb_dominated(to, codes, q_to, q_codes, q_codes, reach, 1)
        _td_mbb_block_dominated(to, codes, to, codes, codes, reach, 1)
        self._warmed = True
        return True
