"""The :class:`DominanceKernel` interface and its store abstractions.

A kernel answers the dominance-shaped questions that sit on the hot path of
every skyline algorithm in this library:

* **vector dominance** — classical componentwise ``<=`` / ``<`` tests between
  numeric vectors (BBS, SaLSa, the baselines' m-dominance);
* **record dominance** — ground-truth dominance over mixed TO/PO schemas via
  precomputed preference closures (BNL, SFS, LESS, cross-examination);
* **t-dominance** — the paper's exact relation over TSS mapped points via
  the PO closures (point tests) and their reach-end tables (MBB tests)
  (sTSS, dTSS).

Kernels expose *stores* — growing collections queried against one candidate
at a time (the universal access pattern of skyline loops: a skyline/window
list grows while candidates stream past it) — plus a few stateless batch
operations.  Three backends implement the interface:
:class:`~repro.kernels.purepython.PurePythonKernel` (reference, always
available), :class:`~repro.kernels.numpy_kernel.NumpyKernel` (vectorized)
and :class:`~repro.kernels.jit_kernel.JitKernel` (numba-compiled fused
loops, falls back to numpy when numba is absent).

Every query takes an optional ``counter`` (any object with a
``dominance_checks`` attribute, usually a
:class:`~repro.skyline.base.SkylineStats`); it is charged one check per
member comparison the query logically performs.  Batched backends charge the
full block size because they evaluate all comparisons at once, while the
reference backend charges only the comparisons it reaches before an early
exit — callers must therefore treat the counter as an upper-bound work
measure, not an exact trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.kernels.tables import RecordTables, TDominanceTables
from repro.order.intervals import Interval, IntervalSet


def charge(counter, checks: int) -> None:
    """Add ``checks`` dominance checks to ``counter`` (no-op when ``None``)."""
    if counter is not None and checks:
        counter.dominance_checks += checks


class VectorStore(ABC):
    """A growing block of numeric vectors (smaller is better everywhere)."""

    @abstractmethod
    def append(self, vector: Sequence[float]) -> None: ...

    def extend(self, rows) -> None:
        """Bulk-append a block of vectors (rows of a matrix or row tuples).

        The reference implementation loops :meth:`append`; vectorized
        backends override it with one block copy.
        """
        for row in rows:
            self.append(row)

    def block_dominated_mask(self, targets, counter=None) -> list[bool]:
        """Per target row: is it strictly dominated by any member?"""
        return [self.any_dominates(row, counter=counter) for row in targets]

    def mbr_block_dominated(
        self, corners, counter=None, *, exclude_equal: bool = False
    ) -> list[bool]:
        """Per MBR low corner: is it weakly dominated by any member?

        The columnar BBS primitive: a popped node's children are tested
        against the dominance window in one call (a weakly dominated best
        corner prunes the whole subtree).  The reference implementation
        loops :meth:`any_weakly_dominates` (keeping its early exits);
        vectorized backends override it with one block comparison.
        """
        return [
            self.any_weakly_dominates(corner, counter, exclude_equal=exclude_equal)
            for corner in corners
        ]

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def compress(self, keep: Sequence[bool]) -> None:
        """Drop members whose ``keep`` flag is false (window eviction)."""

    @abstractmethod
    def any_dominates(
        self, candidate: Sequence[float], counter=None, *, start: int = 0
    ) -> bool:
        """Does any member at index >= ``start`` strictly dominate ``candidate``?

        ``start`` lets the columnar BBS loop re-examine only the members
        appended after a cached block verdict (the store must be append-only
        between the two tests — true for every skyline window, whose members
        are final).  The default of 0 is the plain whole-store test.
        """

    @abstractmethod
    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
        start: int = 0,
    ) -> bool:
        """Does any member at index >= ``start`` weakly dominate ``corner``?

        Used to prune MBBs; with ``exclude_equal`` a member equal to
        ``corner`` does not count.  See :meth:`any_dominates` for ``start``.
        """


class RecordStore(ABC):
    """A growing block of records under ground-truth TO/PO dominance.

    Members are ``(to_values, po_codes)`` pairs; encode PO values once with
    :meth:`~repro.kernels.tables.RecordTables.encode_po`.
    """

    @abstractmethod
    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None: ...

    def extend(self, to_rows, code_rows) -> None:
        """Bulk-append pre-encoded rows (column blocks or row sequences).

        The reference implementation loops :meth:`append`; vectorized
        backends override it with one block copy per column group.
        """
        for to_values, po_codes in zip(to_rows, code_rows):
            self.append(to_values, po_codes)

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def compress(self, keep: Sequence[bool]) -> None:
        """Drop members whose ``keep`` flag is false (window eviction)."""

    @abstractmethod
    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        """Does any member dominate the candidate record?"""

    @abstractmethod
    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        """BNL's two-way window test in one pass.

        Returns ``(candidate_is_dominated, dominated_by_candidate)`` where the
        second element flags every member the candidate dominates (evictees).
        """

    def block_dominated_mask(
        self,
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        """Per target: is it dominated by any *member* of this store?

        The merge-window primitive of the sort-merge cross-shard merge: the
        store is the growing window of confirmed global-skyline records, and
        each incoming chunk of the key-ordered stream is tested against the
        whole window in one call.  The reference implementation loops
        :meth:`any_dominates` (keeping its early exits); vectorized backends
        override it with one block comparison.
        """
        return [
            self.any_dominates(to_values, po_codes, counter=counter)
            for to_values, po_codes in targets
        ]

    def block_dominated_columns(self, to_rows, code_rows, counter=None) -> list[bool]:
        """Columnar twin of :meth:`block_dominated_mask`.

        Takes the targets as parallel column blocks (one TO row block, one
        code row block — e.g. slices of an
        :class:`~repro.data.columns.EncodedFrame`) so vectorized backends can
        skip the per-row pairing entirely.
        """
        return [
            self.any_dominates(to_values, po_codes, counter=counter)
            for to_values, po_codes in zip(to_rows, code_rows)
        ]


class TDominanceStore(ABC):
    """A growing skyline of TSS mapped points under exact t-dominance."""

    @abstractmethod
    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None: ...

    def extend(self, to_rows, code_rows) -> None:
        """Bulk-append pre-encoded mapped points (see :meth:`RecordStore.extend`)."""
        for to_values, po_codes in zip(to_rows, code_rows):
            self.append(to_values, po_codes)

    def block_weakly_dominated(self, to_rows, code_rows, counter=None) -> list[bool]:
        """Per row: is it weakly t-dominated by any member (columnar blocks)?"""
        return [
            self.any_weakly_dominates(to_values, po_codes, counter=counter)
            for to_values, po_codes in zip(to_rows, code_rows)
        ]

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        """Is the candidate weakly t-dominated by a member at index >= ``start``?

        Weak t-dominance (at least as good on TO, t-preferred-or-equal on PO)
        is exact strict t-dominance for distinct value combinations, which the
        duplicate grouping of :class:`~repro.core.mapping.TSSMapping`
        guarantees.  ``start`` lets the windowed sTSS loop re-examine only the
        skyline points appended after a cached block verdict (the store is
        append-only, so earlier verdicts stay valid); the default of 0 is the
        plain whole-store test.
        """

    @abstractmethod
    def mbb_dominated(
        self,
        to_low: Sequence[float],
        code_low: Sequence[int],
        code_high: Sequence[int],
        counter=None,
        *,
        start: int = 0,
    ) -> bool:
        """Does a member at index >= ``start`` t-dominate an MBB?

        A member t-dominates the MBB when it is at least as good as the
        MBB's best corner (``to_low``) on every TO dimension and, per PO
        attribute, preferred-or-equal to every code in ``[code_low,
        code_high]`` (the MBB's ordinal range minus one) — one reach-end
        lookup, see :attr:`TDominanceTables.reach_end
        <repro.kernels.tables.TDominanceTables.reach_end>`.  Every backend
        charges one check per member scanned from ``start``, early exit or
        not.  See :meth:`any_weakly_dominates` for ``start``.
        """

    def mbb_block_dominated(
        self,
        to_lows,
        code_lows,
        code_highs,
        counter=None,
    ) -> list[bool]:
        """Per MBB: the :meth:`mbb_dominated` verdict, batched.

        The sTSS expansion primitive: a popped node's children are tested
        against the whole skyline store in one call (``to_lows``,
        ``code_lows`` and ``code_highs`` are parallel row blocks, one row per
        child MBB).  The reference implementation loops
        :meth:`mbb_dominated`; vectorized backends override it with one
        members-by-MBBs gather.
        """
        return [
            self.mbb_dominated(to_low, low, high, counter=counter)
            for to_low, low, high in zip(to_lows, code_lows, code_highs)
        ]


class DominanceKernel(ABC):
    """Factory for dominance stores plus stateless batch operations."""

    #: Registry name of the backend (``"purepython"`` / ``"numpy"``).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Store factories
    # ------------------------------------------------------------------ #
    @abstractmethod
    def vector_store(self, dimensions: int) -> VectorStore: ...

    @abstractmethod
    def record_store(self, tables: RecordTables) -> RecordStore: ...

    @abstractmethod
    def tdominance_store(self, tables: TDominanceTables) -> TDominanceStore: ...

    # ------------------------------------------------------------------ #
    # Bulk-load constructors (columnar ingest)
    # ------------------------------------------------------------------ #
    def load_vector_store(self, dimensions: int, rows) -> VectorStore:
        """A vector store pre-loaded with a whole block of rows."""
        store = self.vector_store(dimensions)
        store.extend(rows)
        return store

    def load_record_store(self, tables: RecordTables, to_rows, code_rows) -> RecordStore:
        """A record store pre-loaded with parallel TO/code row blocks."""
        store = self.record_store(tables)
        store.extend(to_rows, code_rows)
        return store

    def load_tdominance_store(
        self, tables: TDominanceTables, to_rows, code_rows
    ) -> TDominanceStore:
        """A t-dominance store pre-loaded with parallel TO/code row blocks."""
        store = self.tdominance_store(tables)
        store.extend(to_rows, code_rows)
        return store

    # ------------------------------------------------------------------ #
    # Stateless batch operations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        """Skyline membership mask of a block of numeric vectors.

        ``mask[i]`` is true iff no other row strictly dominates row ``i``
        (duplicates all survive).
        """

    @abstractmethod
    def record_block_dominated_mask(
        self,
        tables: RecordTables,
        dominators: Sequence[tuple[Sequence[float], Sequence[int]]],
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        """Per target: is it dominated by any dominator (ground truth)?

        Used by the baselines' cross-examination, where ``dominators`` and
        ``targets`` may be the same block (strictness makes self-comparison
        harmless for distinct value combinations).
        """

    def record_block_dominated_columns(
        self,
        tables: RecordTables,
        dominator_to,
        dominator_codes,
        target_to,
        target_codes,
        counter=None,
    ) -> list[bool]:
        """Columnar twin of :meth:`record_block_dominated_mask`.

        Both blocks arrive as parallel TO/code column blocks (e.g.
        :class:`~repro.data.columns.EncodedFrame` slices); the reference
        implementation pairs the rows up, vectorized backends consume the
        blocks directly.
        """
        return self.record_block_dominated_mask(
            tables,
            list(zip(dominator_to, dominator_codes)),
            list(zip(target_to, target_codes)),
            counter=counter,
        )

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def warmup(self) -> bool:
        """Prime backend machinery ahead of the first query.

        Compiled tiers override this to trigger JIT compilation (or load a
        compile cache) so first-query latency is not charged to the query
        itself; the engine times the call into
        ``phase_seconds["kernel_warmup"]``.  Returns whether any work was
        done.  Interpreted backends have nothing to warm.
        """
        return False

    def bounding_intervals(
        self, sets: Sequence[IntervalSet]
    ) -> list[Interval]:
        """Minimum bounding interval of each (non-empty, normalized) set."""
        return [
            Interval(s.intervals[0].low, s.intervals[-1].high) for s in sets
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
