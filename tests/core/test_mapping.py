"""Unit tests for the TSS mapping (mapped space + duplicate grouping)."""

import pytest

from repro.core.mapping import TSSMapping, group_distinct_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.exceptions import SchemaError
from repro.order.encoding import encode_domain


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
        from repro.data.columns import EncodedFrame

        _, dataset = small_workload
        from_dataset = TSSMapping(dataset)
        from_frame = TSSMapping(None, frame=EncodedFrame.from_dataset(dataset))
        assert from_dataset.frame is not None
        assert from_dataset.points == from_frame.points

    def test_row_subset_numbers_points_like_take(self, small_workload):
        from repro.data.columns import EncodedFrame

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
