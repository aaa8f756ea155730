"""The TSS transform: datasets mapped into the ``TO x A_TO`` space.

TSS maps every record into a numeric space with one dimension per TO
attribute (canonical values, smaller is better) and one dimension per PO
attribute holding the value's ordinal in the topological sort of its
preference DAG (Section III-B).  Because the topological sort respects every
preference edge, visiting points of this space in ascending L1 distance from
the origin guarantees the *precedence* property.

Exact duplicates (records with identical attribute values) are grouped into a
single :class:`MappedPoint` carrying all their record ids.  Distinct mapped
points can then never tie on every attribute, which makes "weakly better
everywhere and not the same point" equivalent to strict dominance and keeps
every pruning rule exact.

Construction consumes an :class:`~repro.data.columns.EncodedFrame` (a
dataset passed in is encoded once, at this ingest boundary): duplicates are
grouped with one ``np.unique`` over the mapped-coordinate matrix (a dict over
row tuples on the tuple-backed frame) and the frame's canonical PO codes are
remapped into each encoding's topological positions with one gather.  Points
come out in first-occurrence order, so the R-tree layout, BBS traversal and
dominance check counts depend only on the row order; a mapping can also be
built from a frame alone (``dataset=None``), which is how sharded workers
operate on shipped column blocks.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.data.columns import EncodedFrame, group_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.index.registry import resolve_index
from repro.index.rtree import RTree
from repro.order.encoding import DomainEncoding, encode_domain

Value = Hashable


@dataclass(frozen=True, slots=True)
class MappedPoint:
    """A distinct value combination in the mapped space.

    Attributes
    ----------
    index:
        Position of this point in the mapping's point list (used as the
        R-tree payload).
    coords:
        Mapped coordinates: canonical TO values followed by one topological
        ordinal per PO attribute.
    to_values:
        The canonical TO values only.
    po_values:
        The original PO attribute values (schema order).
    record_ids:
        Ids of every dataset record with exactly these attribute values.
    """

    index: int
    coords: tuple[float, ...]
    to_values: tuple[float, ...]
    po_values: tuple[Value, ...]
    record_ids: tuple[int, ...]


def group_distinct_rows(dataset: Dataset) -> list[tuple[tuple[Value, ...], tuple[int, ...]]]:
    """Group record ids by their exact attribute-value tuple (insertion order)."""
    groups: dict[tuple[Value, ...], list[int]] = {}
    for record in dataset.records:
        groups.setdefault(record.values, []).append(record.id)
    return [(values, tuple(ids)) for values, ids in groups.items()]


def _as_list(values) -> list:
    """Plain Python scalars of a NumPy row/slice or a tuple."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


class TSSMapping:
    """A dataset transformed into the TSS mapped space, plus its data R-tree.

    The distinct points live in one CSR triple — the sections a packed store
    persists: the ``(points, dimensions)`` mapped-coordinate matrix (see
    :meth:`mapped_matrix`), the flat ``point_rows`` array of every point's
    record ids, and ``point_offsets``, where point ``g``'s ids are
    ``point_rows[point_offsets[g]:point_offsets[g + 1]]``.  The triple holds
    NumPy arrays on a NumPy-backed frame (or a store's memmap views) and
    tuples/lists otherwise; :class:`MappedPoint` objects are built from it on
    demand by :meth:`point`.
    """

    def __init__(
        self,
        dataset: Dataset | None = None,
        encodings: Sequence[DomainEncoding] | None = None,
        *,
        schema: Schema | None = None,
        frame: EncodedFrame | None = None,
        rows: Sequence[int] | None = None,
        toposort_strategy: str = "kahn",
        parent_choice: str = "first",
    ) -> None:
        if dataset is None and frame is None:
            raise SchemaError("TSSMapping needs a dataset or an encoded frame")
        if schema is None:
            schema = dataset.schema if dataset is not None else frame.schema
        if schema.num_partial_order == 0:
            raise SchemaError("TSSMapping requires at least one PO attribute; use plain BBS otherwise")
        self.dataset = dataset
        self.schema: Schema = schema
        if encodings is None:
            encodings = [
                encode_domain(attribute.dag, strategy=toposort_strategy, parent_choice=parent_choice)
                for attribute in schema.partial_order_attributes
            ]
        if len(encodings) != schema.num_partial_order:
            raise SchemaError("one DomainEncoding per PO attribute is required")
        self.encodings: tuple[DomainEncoding, ...] = tuple(encodings)
        if frame is None:
            frame = EncodedFrame.from_dataset(dataset)
        self.frame = frame
        self._coords, self.point_rows, self.point_offsets = self._build_points(frame, rows)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _topo_code_maps(self) -> list[dict[Value, int]]:
        """Per PO attribute: value -> position in the topological order."""
        return [
            {value: position for position, value in enumerate(encoding.order)}
            for encoding in self.encodings
        ]

    def _build_points(self, frame: EncodedFrame, rows: Sequence[int] | None = None):
        """The CSR triple of an encoded frame's distinct mapped points.

        The frame's canonical codes are gathered into topological positions
        (``ordinal - 1``); duplicate grouping is one ``np.unique`` over the
        mapped-coordinate matrix, reordered to first occurrence (a dict over
        row tuples on the tuple-backed frame).  ``rows`` restricts the build
        to a row subset without materializing a reduced frame — point
        record ids are then positions within ``rows``, exactly as a
        ``frame.take(rows)`` build would number them.
        """
        topo_codes = frame.remap_codes(self._topo_code_maps(), rows)
        to_block = frame.gather_to(rows)
        length = len(frame) if rows is None else len(rows)
        if not frame.uses_numpy:
            groups: dict[tuple[float, ...], list[int]] = {}
            for row_index in range(length):
                key = tuple(to_block[row_index]) + tuple(
                    float(code + 1) for code in topo_codes[row_index]
                )
                groups.setdefault(key, []).append(row_index)
            offsets = [0]
            for row_ids in groups.values():
                offsets.append(offsets[-1] + len(row_ids))
            point_rows = [row for row_ids in groups.values() for row in row_ids]
            return tuple(groups), point_rows, offsets
        import numpy as np

        num_to = self.num_total_order
        coords = np.empty((length, self.dimensions), dtype=float)
        coords[:, :num_to] = to_block
        coords[:, num_to:] = topo_codes
        coords[:, num_to:] += 1.0
        return group_rows(coords)

    @classmethod
    def from_stored(cls, schema, encodings, coords, point_rows, point_offsets) -> "TSSMapping":
        """Rebuild a mapping from a persisted CSR triple.

        ``coords`` is the ``(points, dimensions)`` mapped matrix, and
        ``point_rows``/``point_offsets`` the flat record ids and their
        per-point offsets (NumPy arrays — typically a store's memmap views —
        or tuples), exactly as a fresh build over the same frame would
        produce them; ``encodings`` must be the deterministic base encodings
        the store was packed under.  Nothing is grouped, gathered or copied.
        """
        mapping = object.__new__(cls)
        mapping.dataset = None
        mapping.schema = schema
        mapping.encodings = tuple(encodings)
        if len(mapping.encodings) != schema.num_partial_order:
            raise SchemaError("one DomainEncoding per PO attribute is required")
        mapping.frame = None
        mapping._coords = coords
        mapping.point_rows = point_rows
        mapping.point_offsets = point_offsets
        return mapping

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def num_total_order(self) -> int:
        return self.schema.num_total_order

    @property
    def num_partial_order(self) -> int:
        return self.schema.num_partial_order

    @property
    def dimensions(self) -> int:
        """Dimensionality of the mapped space (|TO| + |PO|)."""
        return self.num_total_order + self.num_partial_order

    def __len__(self) -> int:
        return len(self.point_offsets) - 1

    @cached_property
    def to_offset(self) -> int:
        """Index of the first PO (ordinal) coordinate inside ``coords``."""
        return self.num_total_order

    def _record_ids(self, index: int) -> list[int]:
        offsets = self.point_offsets
        return _as_list(self.point_rows[offsets[index] : offsets[index + 1]])

    def point(self, index: int) -> MappedPoint:
        """Point ``index``, built from the CSR triple."""
        row = _as_list(self._coords[index])
        num_to = self.num_total_order
        return MappedPoint(
            index=index,
            coords=tuple(row),
            to_values=tuple(row[:num_to]),
            po_values=tuple(
                encoding.order[int(ordinal) - 1]
                for encoding, ordinal in zip(self.encodings, row[num_to:])
            ),
            record_ids=tuple(self._record_ids(index)),
        )

    @cached_property
    def points(self) -> list[MappedPoint]:
        """Every point, in index order (built once, on first access)."""
        return [self.point(index) for index in range(len(self))]

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def mapped_matrix(self):
        """The mapped coordinates as one ``(points, dimensions)`` matrix.

        Row ``g`` is point ``g``'s coordinates.  Served as held when the
        mapping was built from a NumPy-backed frame or a store (zero
        conversion), converted once from the tuple rows otherwise.
        """
        if isinstance(self._coords, tuple):
            import numpy as np

            self._coords = np.array(self._coords, dtype=np.float64).reshape(
                len(self), self.dimensions
            )
        return self._coords

    def build_rtree(
        self,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
        index=None,
    ) -> RTree:
        """Bulk-load the data R-tree over the mapped points (payload = point index).

        ``index`` selects the spatial backend (``"flat"``/``"pointer"`` or
        ``None`` for the process default); the flat tree loads straight off
        the mapped-coordinate matrix with zero per-point Python objects.
        """
        if resolve_index(index) == "flat":
            from repro.index.flat import FlatRTree

            return FlatRTree.bulk_load(
                self.dimensions, self.mapped_matrix(), max_entries=max_entries, disk=disk
            )
        return RTree.bulk_load(
            self.dimensions,
            ((tuple(_as_list(row)), index) for index, row in enumerate(self._coords)),
            max_entries=max_entries,
            disk=disk,
        )

    # ------------------------------------------------------------------ #
    # Decoding helpers
    # ------------------------------------------------------------------ #
    def ordinal_range_of_rect(self, low: Sequence[float], high: Sequence[float], po_index: int) -> tuple[int, int]:
        """The ``A_TO`` ordinal range an MBB spans for the ``po_index``-th PO attribute."""
        dimension = self.to_offset + po_index
        return int(low[dimension]), int(high[dimension])

    def record_ids_for(self, point_indices: Sequence[int]) -> list[int]:
        """Expand mapped-point indices back into dataset record ids."""
        ids: list[int] = []
        for index in point_indices:
            ids.extend(self._record_ids(index))
        return ids
