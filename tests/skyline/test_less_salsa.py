"""Unit tests for the LESS and SaLSa skyline algorithms."""

import pytest

from repro.data.dataset import Dataset
from repro.data.generator import generate_dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.exceptions import SchemaError
from repro.skyline.bruteforce import brute_force_skyline
from repro.skyline.less import less_skyline
from repro.skyline.salsa import salsa_skyline
from repro.skyline.sfs import sfs_skyline


@pytest.fixture(scope="module")
def to_dataset():
    schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y"), TotalOrderAttribute("z")])
    return generate_dataset(schema, 400, distribution="anticorrelated", to_domain_size=80, seed=9)


@pytest.fixture(scope="module")
def to_truth(to_dataset):
    return frozenset(brute_force_skyline(to_dataset).skyline_ids)


class TestLESS:
    def test_matches_brute_force_on_to_data(self, to_dataset, to_truth):
        assert frozenset(less_skyline(to_dataset).skyline_ids) == to_truth

    def test_matches_brute_force_on_po_data(self, small_anticorrelated_workload):
        _, dataset = small_anticorrelated_workload
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        assert frozenset(less_skyline(dataset).skyline_ids) == truth

    def test_flight_example(self, flight_dataset):
        assert frozenset(less_skyline(flight_dataset).skyline_ids) == {0, 4, 5, 8, 9}

    @pytest.mark.parametrize("window", [0, 1, 4, 64])
    def test_filter_window_does_not_change_the_result(self, to_dataset, to_truth, window):
        assert frozenset(less_skyline(to_dataset, filter_window=window).skyline_ids) == to_truth

    def test_elimination_reduces_examined_survivors(self, to_dataset):
        """The elimination filter performs extra checks but never changes the skyline."""
        with_filter = less_skyline(to_dataset, filter_window=16)
        without_filter = less_skyline(to_dataset, filter_window=0)
        assert frozenset(with_filter.skyline_ids) == frozenset(without_filter.skyline_ids)

    def test_is_optimally_progressive(self, to_dataset, to_truth):
        result = less_skyline(to_dataset)
        assert len(result.progress) == len(to_truth)

    def test_duplicates_are_reported(self):
        schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])
        dataset = Dataset(schema, [(1, 1), (1, 1), (3, 3)])
        assert frozenset(less_skyline(dataset).skyline_ids) == {0, 1}

    def test_agrees_with_sfs_output_order(self, to_dataset):
        """LESS and SFS both emit results in monotone-score order."""
        assert less_skyline(to_dataset).skyline_ids == sfs_skyline(to_dataset).skyline_ids


class TestReferencePredicatePath:
    """A caller-supplied ``key`` or ``dominates`` runs record-at-a-time."""

    @pytest.mark.parametrize("algorithm", [sfs_skyline, less_skyline])
    def test_custom_key_alone_matches_brute_force(self, small_anticorrelated_workload, algorithm):
        from repro.skyline.sfs import monotone_sort_key

        schema, dataset = small_anticorrelated_workload
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        result = algorithm(dataset, key=monotone_sort_key(schema))
        assert frozenset(result.skyline_ids) == truth
        # The reference loop charges one check per predicate call.
        assert result.stats.dominance_checks > 0

    @pytest.mark.parametrize("algorithm", [sfs_skyline, less_skyline])
    def test_custom_predicate_needs_a_dataset(self, flight_dataset, algorithm):
        from repro.data.columns import EncodedFrame
        from repro.exceptions import DatasetError
        from repro.skyline.dominance import record_dominance_function

        frame = EncodedFrame.from_dataset(flight_dataset)
        dominates = record_dominance_function(flight_dataset.schema)
        with pytest.raises(DatasetError, match="needs a dataset"):
            algorithm(None, frame=frame, dominates=dominates)
        result = algorithm(flight_dataset, dominates=dominates)
        assert frozenset(result.skyline_ids) == {0, 4, 5, 8, 9}


class TestSaLSa:
    def test_matches_brute_force(self, to_dataset, to_truth):
        assert frozenset(salsa_skyline(to_dataset).skyline_ids) == to_truth

    def test_rejects_po_schemas(self, flight_dataset):
        with pytest.raises(SchemaError):
            salsa_skyline(flight_dataset)

    def test_early_termination_skips_points(self, to_dataset):
        result = salsa_skyline(to_dataset)
        assert result.stats.points_examined < len(to_dataset)

    def test_correlated_data_terminates_very_early(self):
        schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])
        dataset = generate_dataset(schema, 500, distribution="correlated", seed=4)
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        result = salsa_skyline(dataset)
        assert frozenset(result.skyline_ids) == truth
        assert result.stats.points_examined < len(dataset) / 2

    def test_duplicates_of_the_stop_point_are_kept(self):
        schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])
        dataset = Dataset(schema, [(2, 2), (2, 2), (1, 5), (5, 1), (6, 6)])
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        assert frozenset(salsa_skyline(dataset).skyline_ids) == truth

    def test_max_direction_attributes(self):
        schema = Schema([TotalOrderAttribute("rating", best="max"), TotalOrderAttribute("price")])
        dataset = Dataset(schema, [(9, 100), (8, 50), (9, 120), (2, 40)])
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        assert frozenset(salsa_skyline(dataset).skyline_ids) == truth

    def test_single_record(self):
        schema = Schema([TotalOrderAttribute("x")])
        dataset = Dataset(schema, [(3,)])
        assert salsa_skyline(dataset).skyline_ids == [0]


class TestFrameworkRegistration:
    def test_less_and_salsa_available_through_compute_skyline(self, to_dataset, to_truth):
        from repro.core.framework import compute_skyline

        assert frozenset(compute_skyline(to_dataset, algorithm="less").skyline_ids) == to_truth
        assert frozenset(compute_skyline(to_dataset, algorithm="salsa").skyline_ids) == to_truth
