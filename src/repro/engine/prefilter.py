"""The shared per-PO-group TO-Pareto prefilter.

Records with identical PO value combinations tie on every PO attribute under
*every* preference DAG, so dominance between them is decided by the TO
attributes alone; within each PO group only the TO-Pareto front can ever
appear in any query's skyline.  The reduction is query-independent, which is
why both the :class:`~repro.engine.batch.BatchQueryEngine` (at construction)
and the store writer (at pack time, so loaders can skip the pass entirely)
run the very same code — extracted here so the two can never drift.

The pass runs over the columnar :class:`~repro.data.columns.EncodedFrame`
only: rows are grouped by PO-code combination and each group's TO block goes
through one ``pareto_mask`` call, on which the dominance kernels agree
bitwise.
"""

from __future__ import annotations

from repro.data.columns import EncodedFrame, group_rows


def prefilter_survivors(schema, dataset, frame, kernel) -> list[int]:
    """Ascending row ids of each PO-combination group's TO-Pareto front.

    Runs over ``frame`` (an :class:`~repro.data.columns.EncodedFrame`); a
    caller holding only a ``dataset`` passes ``frame=None`` and the dataset
    is encoded once here (the engine and the store writer always pass a
    frame).  With no TO attributes (or no rows) every record survives.
    """
    if frame is None:
        frame = EncodedFrame.from_dataset(dataset)
    if not schema.num_total_order or not len(frame):
        return list(range(len(frame)))
    return _frame_survivors(frame, kernel)


def _frame_survivors(frame: EncodedFrame, kernel) -> list[int]:
    """Columnar prefilter: group rows by PO-code combination, then one
    :meth:`pareto_mask <repro.kernels.base.DominanceKernel.pareto_mask>` per
    group over frame slices (no per-record encoding)."""
    survivors: list[int] = []
    if frame.uses_numpy:
        _, rows, offsets = group_rows(frame.codes)
        bounds = offsets.tolist()
        for low, high in zip(bounds, bounds[1:]):
            member_rows = rows[low:high]
            if high - low == 1:
                survivors.append(int(member_rows[0]))
                continue
            mask = kernel.pareto_mask(frame.to[member_rows])
            survivors.extend(int(row) for row, keep in zip(member_rows, mask) if keep)
    else:
        groups: dict[tuple, list[int]] = {}
        for row, code_row in enumerate(frame.codes):
            groups.setdefault(tuple(code_row), []).append(row)
        for member_rows in groups.values():
            if len(member_rows) == 1:
                survivors.append(member_rows[0])
                continue
            mask = kernel.pareto_mask([frame.to[row] for row in member_rows])
            survivors.extend(row for row, keep in zip(member_rows, mask) if keep)
    survivors.sort()
    return survivors
