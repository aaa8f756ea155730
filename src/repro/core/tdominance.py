"""Exact t-dominance checks for mapped points and R-tree MBBs.

Definition 1 (t-preference): value ``x`` is t-preferred over ``y`` iff every
interval associated with ``y`` is contained in (or coincides with) some
interval associated with ``x``.  Because the interval sets produced by
:mod:`repro.order.propagation` cover exactly the postorder numbers of a
value's DAG descendants, t-preference coincides with reachability — the check
is exact.

Definition 2 (t-dominance): point ``p`` t-dominates ``q`` iff it is at least
as good on every TO dimension, ``q`` is not t-preferred over ``p`` on any PO
dimension, and it is strictly better somewhere.  For points with *distinct*
value combinations (guaranteed by the duplicate grouping in
:class:`~repro.core.mapping.TSSMapping`), this reduces to "weakly better
everywhere": at least as good on the TO dimensions and t-preferred-or-equal
on the PO dimensions.

The same checker also decides t-dominance of an MBB (a point t-dominates an
MBB when it would t-dominate every possible point inside it): per PO
attribute the point must be t-preferred-or-equal to every value whose
``A_TO`` ordinal lies in the MBB's range.  The kernel stores answer that
with one reach-end lookup over the PO closure
(:attr:`~repro.kernels.tables.TDominanceTables.reach_end`); the scalar
:meth:`TDominanceChecker.dominates_mbb` keeps the paper's formulation — the
point's interval set must cover the range's merged interval set — and the
dyadic-range cache that serves it is built only when asked for, i.e. by the
TSS* virtual-R-tree path.
"""

from __future__ import annotations

import weakref
from collections.abc import Hashable, Sequence

from repro.core.dyadic import DyadicIntervalCache
from repro.core.mapping import MappedPoint, TSSMapping
from repro.kernels import TDominanceTables, resolve_kernel
from repro.order.encoding import DomainEncoding
from repro.order.intervals import IntervalSet

Value = Hashable

#: One :class:`TDominanceTables` per mapping, shared by every checker built
#: over it (the preference matrices are O(domain²) to build).
_TABLES_CACHE: "weakref.WeakKeyDictionary[TSSMapping, TDominanceTables]" = (
    weakref.WeakKeyDictionary()
)


def tdominance_tables(mapping: TSSMapping) -> TDominanceTables:
    """The (cached) kernel lookup tables of one mapping."""
    tables = _TABLES_CACHE.get(mapping)
    if tables is None:
        tables = TDominanceTables.from_encodings(
            mapping.num_total_order, mapping.encodings
        )
        _TABLES_CACHE[mapping] = tables
    return tables


class TDominanceChecker:
    """t-dominance between mapped points / MBBs for one :class:`TSSMapping`.

    ``use_dyadic_cache`` only affects :meth:`range_interval_set`, which the
    TSS* virtual-R-tree path and the scalar :meth:`dominates_mbb` consult:
    the per-attribute :class:`~repro.core.dyadic.DyadicIntervalCache` is
    built on the first such call.  The kernel-backed store tests never touch
    interval sets.
    """

    def __init__(
        self, mapping: TSSMapping, *, use_dyadic_cache: bool = True, kernel=None
    ) -> None:
        self.mapping = mapping
        self.encodings: tuple[DomainEncoding, ...] = mapping.encodings
        self.kernel = resolve_kernel(kernel)
        self.use_dyadic_cache = use_dyadic_cache
        self._dyadic: list[DyadicIntervalCache] | None = None

    # ------------------------------------------------------------------ #
    # Value-level checks
    # ------------------------------------------------------------------ #
    def t_prefers_or_equal(self, po_index: int, better: Value, worse: Value) -> bool:
        return self.encodings[po_index].t_prefers_or_equal(better, worse)

    def range_interval_set(self, po_index: int, low_ordinal: int, high_ordinal: int) -> IntervalSet:
        """Merged interval set of an ``A_TO`` ordinal range (dyadic cache when enabled)."""
        if not self.use_dyadic_cache:
            return self.encodings[po_index].range_interval_set(low_ordinal, high_ordinal)
        if self._dyadic is None:
            self._dyadic = [DyadicIntervalCache(encoding) for encoding in self.encodings]
        return self._dyadic[po_index].range_interval_set(low_ordinal, high_ordinal)

    # ------------------------------------------------------------------ #
    # Point-level checks
    # ------------------------------------------------------------------ #
    def dominates_point(self, p: MappedPoint, q: MappedPoint) -> bool:
        """Exact t-dominance between two mapped points (Definition 2)."""
        strictly_better = False
        for a, b in zip(p.to_values, q.to_values):
            if a > b:
                return False
            if a < b:
                strictly_better = True
        for po_index, (value_p, value_q) in enumerate(zip(p.po_values, q.po_values)):
            if value_p == value_q:
                continue
            if self.encodings[po_index].t_prefers(value_p, value_q):
                strictly_better = True
            else:
                return False
        return strictly_better

    def weakly_dominates_point(self, p: MappedPoint, q: MappedPoint) -> bool:
        """At least as good everywhere (sufficient for distinct value combinations).

        The PO test uses the membership form of t-preference: ``p``'s interval
        set must cover ``q``'s own postorder number, which is equivalent to
        covering ``q``'s whole interval set but needs a single binary search.
        """
        for a, b in zip(p.to_values, q.to_values):
            if a > b:
                return False
        for encoding, value_p, value_q in zip(self.encodings, p.po_values, q.po_values):
            if value_p == value_q:
                continue
            if not encoding.interval_set(value_p).contains_point(encoding.post_of(value_q)):
                return False
        return True

    # ------------------------------------------------------------------ #
    # MBB-level checks
    # ------------------------------------------------------------------ #
    def dominates_mbb(
        self, p: MappedPoint, low: Sequence[float], high: Sequence[float]
    ) -> bool:
        """True iff ``p`` t-dominates every possible point inside the MBB.

        ``p`` must be at least as good as the MBB's best corner on every TO
        dimension and t-preferred over (or equal to) *every* PO value whose
        ordinal falls in the MBB's ``A_TO`` range, i.e. its interval set must
        cover the range's merged interval set.
        """
        offset = self.mapping.to_offset
        for dimension in range(offset):
            if p.to_values[dimension] > low[dimension]:
                return False
        # Cheap necessary condition first: to be preferred over every value in
        # the range, p's own ordinal must not exceed the range's lower bound.
        for po_index in range(self.mapping.num_partial_order):
            if p.coords[offset + po_index] > low[offset + po_index]:
                return False
        for po_index in range(self.mapping.num_partial_order):
            low_ordinal = int(low[offset + po_index])
            high_ordinal = int(high[offset + po_index])
            range_set = self.range_interval_set(po_index, low_ordinal, high_ordinal)
            point_set = self.encodings[po_index].interval_set(p.po_values[po_index])
            if not point_set.covers(range_set):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Candidate-vs-skyline-list checks (unoptimized sTSS path)
    # ------------------------------------------------------------------ #
    def point_dominated_by_any(
        self, skyline: Sequence[MappedPoint], q: MappedPoint, *, counter=None
    ) -> bool:
        """Is ``q`` t-dominated by any point in ``skyline`` (list scan)?"""
        for p in skyline:
            if counter is not None:
                counter.dominance_checks += 1
            if self.weakly_dominates_point(p, q):
                return True
        return False

    def mbb_dominated_by_any(
        self,
        skyline: Sequence[MappedPoint],
        low: Sequence[float],
        high: Sequence[float],
        *,
        counter=None,
    ) -> bool:
        """Is the MBB t-dominated by any single point in ``skyline`` (list scan)?"""
        for p in skyline:
            if counter is not None:
                counter.dominance_checks += 1
            if self.dominates_mbb(p, low, high):
                return True
        return False

    # ------------------------------------------------------------------ #
    # Kernel-backed skyline store (batched sTSS path)
    # ------------------------------------------------------------------ #
    def make_skyline_store(self) -> "TDominanceSkylineStore":
        """An empty kernel-backed store for the skyline found so far."""
        return TDominanceSkylineStore(self)

    def store_dominates_point(
        self,
        store: "TDominanceSkylineStore",
        q: MappedPoint,
        *,
        counter=None,
        start: int = 0,
    ) -> bool:
        """Batched form of :meth:`point_dominated_by_any` over a store."""
        return store.dominates_coords(q.coords, counter, start=start)

    def store_dominates_mbb(
        self,
        store: "TDominanceSkylineStore",
        low: Sequence[float],
        high: Sequence[float],
        *,
        counter=None,
        start: int = 0,
    ) -> bool:
        """Batched form of :meth:`mbb_dominated_by_any` over a store.

        One :meth:`TDominanceStore.mbb_dominated
        <repro.kernels.base.TDominanceStore.mbb_dominated>` call: the MBB's
        PO ordinal ranges become code ranges (``ordinal - 1``).  ``start``
        restricts the scan to members appended at or after that index (the
        windowed sTSS suffix re-check).
        """
        offset = self.mapping.to_offset
        return store.kernel_store.mbb_dominated(
            low[:offset],
            [int(v) - 1 for v in low[offset:]],
            [int(v) - 1 for v in high[offset:]],
            counter,
            start=start,
        )


class TDominanceSkylineStore:
    """The skyline found so far, mirrored into a kernel store."""

    __slots__ = ("checker", "tables", "kernel_store", "_offset")

    def __init__(self, checker: TDominanceChecker) -> None:
        self.checker = checker
        self.tables = tdominance_tables(checker.mapping)
        self.kernel_store = checker.kernel.tdominance_store(self.tables)
        self._offset = checker.mapping.to_offset

    def append(self, point: MappedPoint) -> None:
        self.append_coords(point.coords)

    def append_coords(self, coords) -> None:
        """Append a mapped point straight from its coordinate row.

        ``coords`` is a tuple or a flat tree's matrix row: canonical TO
        values, then one ordinal per PO attribute — the ordinal minus one is
        the PO code (see :class:`~repro.kernels.tables.TDominanceTables`).
        """
        row = [float(value) for value in coords]
        offset = self._offset
        self.kernel_store.append(row[:offset], [int(value) - 1 for value in row[offset:]])

    def dominates_coords(self, coords, counter=None, *, start: int = 0) -> bool:
        """Is the mapped point with these coordinates weakly t-dominated by a
        member at index >= ``start``?"""
        offset = self._offset
        return self.kernel_store.any_weakly_dominates(
            coords[:offset], [int(value) - 1 for value in coords[offset:]], counter, start=start
        )

    def __len__(self) -> int:
        return len(self.kernel_store)


class TDominanceWindow:
    """Bulk + suffix t-dominance tests for the columnar BBS loop.

    The t-dominance twin of
    :class:`~repro.index.flat.VectorDominanceWindow`: at a node expansion
    all children are tested against the skyline store in one kernel call
    (:meth:`TDominanceStore.mbb_block_dominated
    <repro.kernels.base.TDominanceStore.mbb_block_dominated>` for MBBs,
    :meth:`TDominanceStore.block_weakly_dominated
    <repro.kernels.base.TDominanceStore.block_weakly_dominated>` for leaf
    points), and each child's own pop re-examines only the members appended
    since (``start=prefix``).  Verdicts compose because the skyline store is
    append-only — t-dominance by a member is permanent.

    PO codes are recovered from the mapped coordinates themselves: the
    ordinal coordinate of a mapped point is its topological position + 1,
    i.e. ``code + 1`` (see :class:`~repro.kernels.tables.TDominanceTables`),
    so the window needs no payload lookups.
    """

    __slots__ = ("checker", "store", "_offset")

    def __init__(self, checker: TDominanceChecker, store: TDominanceSkylineStore) -> None:
        self.checker = checker
        self.store = store
        self._offset = checker.mapping.to_offset

    def size(self) -> int:
        return len(self.store)

    def block_points(self, rows, counter) -> list[bool]:
        """Per leaf point: weakly t-dominated by any current member?

        ``rows`` is a row block of the flat tree's point matrix; the ordinal
        columns minus one are the codes.
        """
        offset = self._offset
        return self.store.kernel_store.block_weakly_dominated(
            rows[:, :offset], rows[:, offset:] - 1, counter
        )

    def block_rects(self, lows, highs, counter) -> list[bool]:
        """Per child MBB: t-dominated by any current member?

        ``lows``/``highs`` are row blocks of the flat tree's node arrays,
        sliced like :meth:`block_points` rows; the ordinal ranges minus one
        are the code ranges.
        """
        offset = self._offset
        return self.store.kernel_store.mbb_block_dominated(
            lows[:, :offset], lows[:, offset:] - 1, highs[:, offset:] - 1, counter
        )

    def point_suffix(self, point, start: int, counter) -> bool:
        return self.store.dominates_coords(point, counter, start=start)

    def rect_suffix(self, low, high, start: int, counter) -> bool:
        return self.checker.store_dominates_mbb(
            self.store, low, high, counter=counter, start=start
        )
