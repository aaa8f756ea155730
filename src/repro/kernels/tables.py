"""Precomputed lookup tables that dominance kernels operate on.

The kernels (see :mod:`repro.kernels.base`) are deliberately ignorant of
schemas, DAGs and interval encodings: they work on integer codes and
preference closures.  This module bridges the gap once per dataset/query:

* :class:`PreferenceTable` — one PO attribute: its domain values, a value-to-
  code mapping and the preferred-or-equal closure as one int bitset per code.
* :class:`RecordTables` — everything needed for *ground-truth* record
  dominance over a mixed TO/PO schema (used by BNL/SFS/LESS and the
  baselines' cross-examination).
* :class:`TDominanceTables` — everything needed for batched *t-dominance*
  over mapped points: the closures in topological code order plus, per
  attribute, the reach-end table that decides a whole MBB range in one
  lookup.

Tables carry a ``scratch`` dict so a backend can stash converted
representations (e.g. NumPy arrays) and share them across stores built from
the same tables.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.data.schema import Schema
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

Value = Hashable


@dataclass(frozen=True)
class PreferenceTable:
    """Preferred-or-equal closure of one partially ordered domain."""

    values: tuple[Value, ...]
    code_of: dict[Value, int]
    #: ``closure[i]`` — bit ``j`` set iff value ``i`` is preferred over or
    #: equal to value ``j``.
    closure: tuple[int, ...]

    @classmethod
    def from_dag(cls, dag: PartialOrderDAG) -> "PreferenceTable":
        """Ground-truth closure from DAG reachability (codes in DAG order)."""
        values = dag.values
        code_of = {value: i for i, value in enumerate(values)}
        closure = []
        for i, value in enumerate(values):
            bits = 1 << i
            for other in dag.descendants(value):
                bits |= 1 << code_of[other]
            closure.append(bits)
        return cls(values=values, code_of=code_of, closure=tuple(closure))

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass
class RecordTables:
    """Tables for ground-truth record dominance over a mixed TO/PO schema."""

    num_total_order: int
    attributes: tuple[PreferenceTable, ...]
    scratch: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_schema(cls, schema: Schema) -> "RecordTables":
        return cls(
            num_total_order=schema.num_total_order,
            attributes=tuple(
                PreferenceTable.from_dag(attribute.dag)
                for attribute in schema.partial_order_attributes
            ),
        )

    @classmethod
    def from_encodings(
        cls, num_total_order: int, encodings: Sequence[DomainEncoding]
    ) -> "RecordTables":
        """Ground-truth tables keyed by the encodings' domains (baselines)."""
        return cls(
            num_total_order=num_total_order,
            attributes=tuple(
                PreferenceTable.from_dag(encoding.dag) for encoding in encodings
            ),
        )

    @property
    def num_partial_order(self) -> int:
        return len(self.attributes)

    def encode_po(self, po_values: Sequence[Value]) -> tuple[int, ...]:
        return tuple(
            table.code_of[value] for table, value in zip(self.attributes, po_values)
        )


@dataclass
class TDominanceTables:
    """Tables for batched t-dominance over TSS mapped points.

    Codes are positions in the encoding's topological order (``ordinal - 1``),
    so a mapped point's PO code is derivable from its ordinal coordinate, and
    a closure row never sets a bit below its own code.
    """

    num_total_order: int
    attributes: tuple[PreferenceTable, ...]
    scratch: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_encodings(
        cls, num_total_order: int, encodings: Sequence[DomainEncoding]
    ) -> "TDominanceTables":
        return cls(
            num_total_order=num_total_order,
            attributes=tuple(
                PreferenceTable(
                    values=encoding.order,
                    code_of={value: i for i, value in enumerate(encoding.order)},
                    closure=encoding.closure,
                )
                for encoding in encodings
            ),
        )

    @property
    def num_partial_order(self) -> int:
        return len(self.attributes)

    def encode_po(self, po_values: Sequence[Value]) -> tuple[int, ...]:
        return tuple(
            table.code_of[value] for table, value in zip(self.attributes, po_values)
        )

    @cached_property
    def reach_end(self) -> "tuple[np.ndarray, ...]":
        """Per attribute: the ``(n, n)`` int32 reach-end table (needs NumPy).

        ``reach_end[c][k]`` is the first code ``j >= k`` that value ``c`` is
        *not* preferred-or-equal to, or ``n`` if there is none.  Value ``c``
        is therefore preferred-or-equal to every code in ``[lo, hi]`` — it
        covers an MBB's ``A_TO`` range, the PO half of MBB t-dominance —
        iff ``reach_end[c][lo] > hi``.  Because closure rows only reach
        forward, the lookup also implies ``c <= lo``.
        """
        import numpy as np

        from repro.kernels.bitsets import closure_matrix

        tables = []
        for table in self.attributes:
            n = table.cardinality
            gaps = np.where(
                closure_matrix(table.closure, n), n, np.arange(n, dtype=np.int32)
            ).astype(np.int32)
            reach = np.minimum.accumulate(gaps[:, ::-1], axis=1)[:, ::-1]
            tables.append(np.ascontiguousarray(reach))
        return tuple(tables)
