"""Unit tests for the TSS mapping (mapped space + duplicate grouping)."""

import json

import pytest

from repro.core.mapping import MappedPoint, TSSMapping, group_distinct_rows
from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec
from repro.exceptions import SchemaError
from repro.order.encoding import encode_domain
from tests.integration.test_columnar_properties import BACKENDS, frame_backend


class TestGrouping:
    def test_group_distinct_rows(self, flight_schema):
        data = Dataset(flight_schema, [(1, 0, "a"), (1, 0, "a"), (2, 0, "a"), (1, 0, "b")])
        groups = group_distinct_rows(data)
        assert len(groups) == 3
        assert groups[0] == ((1, 0, "a"), (0, 1))

    def test_grouping_preserves_insertion_order(self, flight_schema):
        data = Dataset(flight_schema, [(2, 0, "a"), (1, 0, "a"), (2, 0, "a")])
        groups = group_distinct_rows(data)
        assert [values for values, _ in groups] == [(2, 0, "a"), (1, 0, "a")]


class TestMapping:
    def test_requires_po_attribute(self):
        schema = Schema([TotalOrderAttribute("x")])
        data = Dataset(schema, [(1,)])
        with pytest.raises(SchemaError):
            TSSMapping(data)

    def test_dimensions_and_offsets(self, flight_dataset):
        mapping = TSSMapping(flight_dataset)
        assert mapping.num_total_order == 2
        assert mapping.num_partial_order == 1
        assert mapping.dimensions == 3
        assert mapping.to_offset == 2

    def test_coords_are_canonical_to_plus_ordinals(self, flight_dataset, airline_dag):
        encoding = encode_domain(airline_dag)
        mapping = TSSMapping(flight_dataset, [encoding])
        for point in mapping.points:
            assert point.coords[:2] == point.to_values
            assert point.coords[2] == float(encoding.ordinal(point.po_values[0]))

    def test_mapped_points_are_distinct(self, flight_schema):
        data = Dataset(flight_schema, [(1, 0, "a")] * 5 + [(2, 0, "b")])
        mapping = TSSMapping(data)
        assert len(mapping) == 2
        assert mapping.points[0].record_ids == (0, 1, 2, 3, 4)
        coords = [p.coords for p in mapping.points]
        assert len(set(coords)) == len(coords)

    def test_record_ids_for_expands_groups(self, flight_schema):
        data = Dataset(flight_schema, [(1, 0, "a")] * 3 + [(2, 0, "b")])
        mapping = TSSMapping(data)
        assert mapping.record_ids_for([0, 1]) == [0, 1, 2, 3]

    def test_dataset_is_encoded_once_at_the_boundary(self, small_workload):
        _, dataset = small_workload
        from_dataset = TSSMapping(dataset)
        from_frame = TSSMapping(None, frame=EncodedFrame.from_dataset(dataset))
        assert from_dataset.frame is not None
        assert from_dataset.points == from_frame.points

    def test_row_subset_numbers_points_like_take(self, small_workload):
        _, dataset = small_workload
        frame = EncodedFrame.from_dataset(dataset)
        rows = list(range(0, len(dataset), 3))
        viewed = TSSMapping(None, frame=frame, rows=rows)
        taken = TSSMapping(None, frame=frame.take(rows))
        assert viewed.points == taken.points

    def test_encoding_count_must_match(self, flight_dataset, airline_dag):
        with pytest.raises(SchemaError):
            TSSMapping(flight_dataset, [encode_domain(airline_dag)] * 2)

    def test_build_rtree_round_trip(self, flight_dataset):
        mapping = TSSMapping(flight_dataset)
        tree = mapping.build_rtree(max_entries=4)
        assert len(tree) == len(mapping)
        payloads = sorted(entry.payload for entry in tree.all_entries())
        assert payloads == list(range(len(mapping)))

    def test_ordinal_range_of_rect(self, flight_dataset):
        mapping = TSSMapping(flight_dataset)
        low = (0.0, 0.0, 2.0)
        high = (10.0, 10.0, 3.0)
        assert mapping.ordinal_range_of_rect(low, high, 0) == (2, 3)

    def test_mapping_respects_precedence(self, flight_dataset, flight_schema):
        """If a record dominates another, its mapped coords are <= componentwise."""
        from repro.skyline.dominance import dominates_records

        mapping = TSSMapping(flight_dataset)
        by_values = {point.record_ids[0]: point for point in mapping.points}
        for a in flight_dataset:
            for b in flight_dataset:
                if a.id in by_values and b.id in by_values and dominates_records(flight_schema, a, b):
                    pa, pb = by_values[a.id], by_values[b.id]
                    assert all(x <= y for x, y in zip(pa.coords, pb.coords))
                    assert sum(pa.coords) < sum(pb.coords)


def _eager_reference(dataset, encodings, rows=None) -> list[MappedPoint]:
    """Mapped points built record by record, one object per distinct row.

    Record ids are positions within ``rows`` (all rows when ``None``), as a
    ``frame.take(rows)`` build numbers them.
    """
    schema = dataset.schema
    positions = range(len(dataset)) if rows is None else rows
    groups: dict[tuple, list[int]] = {}
    for number, position in enumerate(positions):
        values = dataset.records[position].values
        key = (schema.canonical_to_values(values), schema.partial_values(values))
        groups.setdefault(key, []).append(number)
    points = []
    for index, ((to_values, po_values), ids) in enumerate(groups.items()):
        to_values = tuple(float(v) for v in to_values)
        ordinals = tuple(
            float(encoding.ordinal(value)) for encoding, value in zip(encodings, po_values)
        )
        points.append(
            MappedPoint(
                index=index,
                coords=to_values + ordinals,
                to_values=to_values,
                po_values=po_values,
                record_ids=tuple(ids),
            )
        )
    return points


@pytest.fixture
def duplicated(small_workload):
    """The small workload with a third of its rows repeated (multi-id points)."""
    _, dataset = small_workload
    rows = [record.values for record in dataset.records]
    return Dataset(dataset.schema, rows + rows[::3])


def _base_encodings(schema):
    return [encode_domain(attribute.dag) for attribute in schema.partial_order_attributes]


class TestCsrBackedPoints:
    """Points are built on demand from the CSR triple; they must equal an
    eagerly built reference on both frame backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "row-subset"])
    def test_lazy_points_equal_eager_reference(self, duplicated, backend, subset):
        encodings = _base_encodings(duplicated.schema)
        rows = list(range(len(duplicated) - 1, -1, -2)) if subset else None
        with frame_backend(backend):
            frame = EncodedFrame.from_dataset(duplicated)
            assert frame.uses_numpy == (backend == "numpy")
            mapping = TSSMapping(None, encodings, frame=frame, rows=rows)
            reference = _eager_reference(duplicated, encodings, rows)
            assert any(len(point.record_ids) > 1 for point in reference)
            assert len(mapping) == len(reference)
            assert [mapping.point(i) for i in range(len(mapping))] == reference
            assert mapping.points == reference
            picks = [len(reference) - 1, 0, len(reference) // 2, 0]
            ids = mapping.record_ids_for(picks)
            assert ids == [r for i in picks for r in reference[i].record_ids]
            # Plain Python scalars, never NumPy ones.
            assert all(type(r) is int for r in ids)
            point = mapping.point(len(mapping) - 1)
            assert all(type(c) is float for c in point.coords)
            assert all(type(r) is int for r in point.record_ids)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_csr_triple_numbers_every_row_once(self, duplicated, backend):
        with frame_backend(backend):
            mapping = TSSMapping(duplicated)
            offsets = list(mapping.point_offsets)
            assert offsets[0] == 0 and offsets[-1] == len(duplicated)
            assert len(offsets) == len(mapping) + 1
            assert sorted(mapping.point_rows) == list(range(len(duplicated)))


class TestStoredMapping:
    @pytest.fixture
    def store_and_fresh(self, duplicated, tmp_path):
        pytest.importorskip("numpy")
        from repro.engine.prefilter import prefilter_survivors
        from repro.kernels import resolve_kernel
        from repro.store import DatasetStore, pack_dataset

        path = tmp_path / "mapping.rpro"
        pack_dataset(duplicated, path)
        store = DatasetStore.open(path, mmap=True)
        frame = EncodedFrame.from_dataset(duplicated)
        survivors = prefilter_survivors(
            duplicated.schema, None, frame, resolve_kernel("purepython")
        )
        fresh = TSSMapping(
            None, _base_encodings(duplicated.schema), frame=frame.take(survivors)
        )
        return store, fresh

    def test_from_stored_over_memmap_equals_fresh_build(self, store_and_fresh):
        import numpy as np

        store, fresh = store_and_fresh
        assert store.uses_mmap
        stored = store.base_mapping()
        assert len(stored) == len(fresh)
        assert stored.points == fresh.points
        assert stored.record_ids_for(range(len(fresh))) == fresh.record_ids_for(
            range(len(fresh))
        )
        assert np.array_equal(stored.mapped_matrix(), fresh.mapped_matrix())
        assert np.array_equal(stored.point_rows, fresh.point_rows)
        assert np.array_equal(stored.point_offsets, fresh.point_offsets)


#: Section CRC-32s of the packed ``store-roundtrip`` workload below, recorded
#: when the mapping still built one ``MappedPoint`` per point at pack time:
#: the CSR-backed mapping must write byte-identical sections.
PACKED_SECTION_CRCS = {
    "frame_to": 1084750008,
    "frame_codes": 479437353,
    "survivors": 3127664659,
    "mapped_coords": 609066137,
    "point_offsets": 2477054293,
    "point_rows": 3818731646,
    "tree_points": 1882762521,
    "tree_payloads": 3310734113,
    "tree_node_low": 474870206,
    "tree_node_high": 1589583719,
    "tree_child_start": 2641191736,
    "tree_child_end": 1544941962,
    "tree_entry_mindists": 2270666344,
    "tree_node_mindists": 4119199979,
}


def _section_crcs(path) -> dict[str, int]:
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + length])
    return {name: entry["crc32"] for name, entry in header["sections"].items()}


def test_pack_writes_unchanged_section_crcs(tmp_path):
    pytest.importorskip("numpy")
    from repro.store import pack_dataset

    spec = WorkloadSpec(
        name="store-roundtrip",
        cardinality=250,
        num_total_order=2,
        num_partial_order=2,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=13,
    )
    _, dataset = spec.build()
    path = tmp_path / "crc.rpro"
    pack_dataset(dataset, path)
    assert _section_crcs(path) == PACKED_SECTION_CRCS
