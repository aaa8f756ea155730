"""Property tests: every kernel backend agrees with the pure-Python reference.

The reference backend defines the semantics; these tests drive every backend
available in the environment (purepython + numpy, plus jit when numba is
installed — the full three-way matrix) with random datasets and random DAG
topologies (hypothesis) and assert they return identical verdicts for every
operation of the kernel interface.  Skipped entirely when NumPy is
unavailable (there is only one backend then).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import TSSMapping
from repro.core.tdominance import TDominanceChecker
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.kernels import (
    RecordTables,
    TDominanceTables,
    available_kernels,
    get_kernel,
)
from repro.order.encoding import encode_domain
from tests.conftest import mixed_dataset_strategy, random_dag_strategy

numpy = pytest.importorskip("numpy")

PURE = get_kernel("purepython")
#: Every backend usable here, reference first ("jit" joins when numba is
#: importable, widening every test below to the three-way matrix).
KERNELS = tuple(get_kernel(name) for name in available_kernels())
OTHERS = KERNELS[1:]


def _assert_all_match(values, context=""):
    """Each backend's value equals the reference backend's (index 0)."""
    reference = values[0]
    for kernel, value in zip(KERNELS[1:], values[1:]):
        assert value == reference, (context, kernel.name)


class TestVectorStoreAgreement:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dims=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_dominance_verdicts_match(self, seed, dims, rows):
        rng = random.Random(seed)
        block = [tuple(rng.randint(0, 5) for _ in range(dims)) for _ in range(rows)]
        candidates = [tuple(rng.randint(0, 5) for _ in range(dims)) for _ in range(15)]
        stores = []
        for kernel in KERNELS:
            store = kernel.vector_store(dims)
            for vector in block:
                store.append(vector)
            stores.append(store)
        for candidate in candidates:
            _assert_all_match([s.any_dominates(candidate) for s in stores])
            _assert_all_match([s.any_weakly_dominates(candidate) for s in stores])
            _assert_all_match(
                [s.any_weakly_dominates(candidate, exclude_equal=True) for s in stores]
            )


class TestRecordStoreAgreement:
    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=30, deadline=None)
    def test_dominance_and_masks_match(self, dataset):
        schema = dataset.schema
        tables = RecordTables.from_schema(schema)
        encoded = [
            (
                schema.canonical_to_values(record.values),
                tables.encode_po(schema.partial_values(record.values)),
            )
            for record in dataset.records
        ]
        split = max(1, len(encoded) // 2)
        members, candidates = encoded[:split], encoded[split:] or encoded[:1]
        stores = []
        for kernel in KERNELS:
            store = kernel.record_store(tables)
            for to_values, po_codes in members:
                store.append(to_values, po_codes)
            stores.append(store)
        for to_values, po_codes in candidates:
            _assert_all_match([s.any_dominates(to_values, po_codes) for s in stores])
            masks = [s.dominance_masks(to_values, po_codes) for s in stores]
            _assert_all_match([(m[0], list(m[1])) for m in masks])
        # Batched cross-examination agrees too.
        _assert_all_match(
            [
                kernel.record_block_dominated_mask(tables, encoded, encoded)
                for kernel in KERNELS
            ]
        )
        # ... and so does the merge-window primitive, which must also match
        # per-candidate any_dominates verdicts against the same members.
        window_masks = [store.block_dominated_mask(encoded) for store in stores]
        _assert_all_match(window_masks)
        assert window_masks[0] == [
            stores[0].any_dominates(to_values, po_codes)
            for to_values, po_codes in encoded
        ]

    @given(dataset=mixed_dataset_strategy(max_rows=24))
    @settings(max_examples=20, deadline=None)
    def test_compress_keeps_agreement(self, dataset):
        schema = dataset.schema
        tables = RecordTables.from_schema(schema)
        encoded = [
            (
                schema.canonical_to_values(record.values),
                tables.encode_po(schema.partial_values(record.values)),
            )
            for record in dataset.records
        ]
        rng = random.Random(len(encoded))
        keep = [rng.random() < 0.6 for _ in encoded]
        stores = []
        for kernel in KERNELS:
            store = kernel.record_store(tables)
            for to_values, po_codes in encoded:
                store.append(to_values, po_codes)
            store.compress(keep)
            stores.append(store)
        assert all(len(store) == sum(keep) for store in stores)
        for to_values, po_codes in encoded:
            _assert_all_match([s.any_dominates(to_values, po_codes) for s in stores])


class TestTDominanceAgreement:
    @given(
        dag=random_dag_strategy(max_values=8),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_weak_t_dominance_matches_reference_checker(self, dag, seed):
        rng = random.Random(seed)
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("p", dag)]
        )
        from repro.data.dataset import Dataset

        rows = [
            (rng.randint(0, 4), rng.choice(dag.values)) for _ in range(20)
        ]
        dataset = Dataset(schema, rows)
        mapping = TSSMapping(dataset)
        points = mapping.points
        split = max(1, len(points) // 2)
        members, candidates = points[:split], points[split:] or points[:1]
        results = []
        for kernel in KERNELS:
            checker = TDominanceChecker(mapping, kernel=kernel)
            store = checker.make_skyline_store()
            for member in members:
                store.append(member)
            verdicts = [
                checker.store_dominates_point(store, candidate)
                for candidate in candidates
            ]
            results.append(verdicts)
        _assert_all_match(results)
        # All agree with the scalar reference scan as well.
        checker = TDominanceChecker(mapping)
        reference = [
            checker.point_dominated_by_any(members, candidate)
            for candidate in candidates
        ]
        assert results[0] == reference

    @given(
        dag=random_dag_strategy(max_values=7),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_mbb_verdicts_match_reference_checker(self, dag, seed):
        rng = random.Random(seed)
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("p", dag)]
        )
        from repro.data.dataset import Dataset

        rows = [
            (rng.randint(0, 4), rng.choice(dag.values)) for _ in range(16)
        ]
        dataset = Dataset(schema, rows)
        mapping = TSSMapping(dataset)
        points = mapping.points
        cardinality = len(dag.values)
        boxes = []
        for _ in range(6):
            x = rng.randint(0, 4)
            low_ord = rng.randint(1, cardinality)
            high_ord = rng.randint(low_ord, cardinality)
            boxes.append(
                ((float(x), float(low_ord)), (float(x + 2), float(high_ord)))
            )
        results = []
        for kernel in KERNELS:
            checker = TDominanceChecker(mapping, kernel=kernel)
            store = checker.make_skyline_store()
            for member in points:
                store.append(member)
            results.append(
                [checker.store_dominates_mbb(store, low, high) for low, high in boxes]
            )
        _assert_all_match(results)
        checker = TDominanceChecker(mapping)
        reference = [
            checker.mbb_dominated_by_any(points, low, high) for low, high in boxes
        ]
        assert results[0] == reference


class TestBulkOpsAgreement:
    """The columnar extend / bulk-load / block-query surface agrees too."""

    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=25, deadline=None)
    def test_extend_equals_append_loop(self, dataset):
        schema = dataset.schema
        tables = RecordTables.from_schema(schema)
        to_rows = [schema.canonical_to_values(r.values) for r in dataset.records]
        code_rows = [
            tables.encode_po(schema.partial_values(r.values)) for r in dataset.records
        ]
        for kernel in KERNELS:
            looped = kernel.record_store(tables)
            for to_values, po_codes in zip(to_rows, code_rows):
                looped.append(to_values, po_codes)
            bulk = kernel.load_record_store(tables, to_rows, code_rows)
            assert len(bulk) == len(looped) == len(dataset)
            for to_values, po_codes in zip(to_rows, code_rows):
                assert bulk.any_dominates(to_values, po_codes) == looped.any_dominates(
                    to_values, po_codes
                )

    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=25, deadline=None)
    def test_columnar_block_queries_match_row_queries(self, dataset):
        schema = dataset.schema
        tables = RecordTables.from_schema(schema)
        encoded = [
            (
                schema.canonical_to_values(r.values),
                tables.encode_po(schema.partial_values(r.values)),
            )
            for r in dataset.records
        ]
        to_rows = [row[0] for row in encoded]
        code_rows = [row[1] for row in encoded]
        split = max(1, len(encoded) // 2)
        results = []
        for kernel in KERNELS:
            store = kernel.load_record_store(tables, to_rows[:split], code_rows[:split])
            results.append(
                (
                    store.block_dominated_columns(to_rows, code_rows),
                    kernel.record_block_dominated_columns(
                        tables, to_rows[:split], code_rows[:split], to_rows, code_rows
                    ),
                )
            )
        _assert_all_match(results)
        # The columnar forms agree with the row-pair forms they shadow.
        store = KERNELS[0].load_record_store(tables, to_rows[:split], code_rows[:split])
        assert results[0][0] == store.block_dominated_mask(encoded)
        assert results[0][1] == KERNELS[0].record_block_dominated_mask(
            tables, encoded[:split], encoded
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dims=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_vector_store_bulk_ops_match(self, seed, dims):
        rng = random.Random(seed)
        members = [tuple(rng.randint(0, 4) for _ in range(dims)) for _ in range(12)]
        targets = [tuple(rng.randint(0, 4) for _ in range(dims)) for _ in range(9)]
        masks = []
        for kernel in KERNELS:
            store = kernel.load_vector_store(dims, members)
            assert len(store) == len(members)
            masks.append(store.block_dominated_mask(targets))
        _assert_all_match(masks)
        assert masks[0] == [
            KERNELS[0].load_vector_store(dims, members).any_dominates(t) for t in targets
        ]

    @given(
        dag=random_dag_strategy(max_values=7),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_tdominance_bulk_ops_match(self, dag, seed):
        rng = random.Random(seed)
        encoding = encode_domain(dag)
        tables = TDominanceTables.from_encodings(1, [encoding])
        cardinality = len(dag.values)
        members_to = [(float(rng.randint(0, 4)),) for _ in range(10)]
        members_codes = [(rng.randrange(cardinality),) for _ in range(10)]
        targets_to = [(float(rng.randint(0, 4)),) for _ in range(8)]
        targets_codes = [(rng.randrange(cardinality),) for _ in range(8)]
        masks = []
        for kernel in KERNELS:
            store = kernel.load_tdominance_store(tables, members_to, members_codes)
            assert len(store) == len(members_to)
            masks.append(store.block_weakly_dominated(targets_to, targets_codes))
        _assert_all_match(masks)
        store = KERNELS[0].load_tdominance_store(tables, members_to, members_codes)
        assert masks[0] == [
            store.any_weakly_dominates(to_values, po_codes)
            for to_values, po_codes in zip(targets_to, targets_codes)
        ]


class TestStatelessOpsAgreement:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dims=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_pareto_mask_matches(self, seed, dims, rows):
        rng = random.Random(seed)
        block = [tuple(rng.randint(0, 4) for _ in range(dims)) for _ in range(rows)]
        _assert_all_match([kernel.pareto_mask(block) for kernel in KERNELS])

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=1, max_value=120),
        spread=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_mask_low_dimensional_fast_paths(self, seed, rows, spread):
        """The 1-D/2-D sorted fast paths agree with the reference, including
        heavy duplicate/tie blocks."""
        rng = random.Random(seed)
        for dims in (1, 2):
            block = [
                tuple(rng.randint(0, spread) for _ in range(dims)) for _ in range(rows)
            ]
            _assert_all_match(
                [kernel.pareto_mask(block) for kernel in KERNELS], context=dims
            )


class TestAlgorithmLevelAgreement:
    """End-to-end: whole skyline algorithms agree across backends."""

    @given(dataset=mixed_dataset_strategy(max_rows=25))
    @settings(max_examples=15, deadline=None)
    def test_stss_identical_across_backends(self, dataset):
        from repro.core.stss import stss_skyline

        results = [stss_skyline(dataset, kernel=kernel) for kernel in KERNELS]
        # Identical ids *in identical discovery order*, not just as sets.
        _assert_all_match([result.skyline_ids for result in results])
        # The compiled backend early-exits exactly like the reference, so its
        # dominance-check count can never exceed purepython's.  (The NumPy
        # backend is exempt: it charges whole blocks by design.)
        reference_checks = results[0].stats.dominance_checks
        for kernel, result in zip(KERNELS, results):
            if kernel.name == "jit":
                assert result.stats.dominance_checks <= reference_checks

    @given(dataset=mixed_dataset_strategy(max_rows=25))
    @settings(max_examples=15, deadline=None)
    def test_scan_algorithms_identical_across_backends(self, dataset):
        from repro.skyline.bnl import bnl_skyline
        from repro.skyline.less import less_skyline
        from repro.skyline.sfs import sfs_skyline

        for algorithm in (bnl_skyline, sfs_skyline, less_skyline):
            results = [algorithm(dataset, kernel=kernel) for kernel in KERNELS]
            _assert_all_match(
                [result.skyline_ids for result in results], context=algorithm.__name__
            )
            reference_checks = results[0].stats.dominance_checks
            for kernel, result in zip(KERNELS, results):
                if kernel.name == "jit":
                    assert result.stats.dominance_checks <= reference_checks


def test_tdominance_tables_match_encoding():
    """The closure bits equal pairwise t_prefers_or_equal verdicts."""
    from repro.order.lattice import lattice_domain

    encoding = encode_domain(lattice_domain(3, 1.0, seed=1))
    tables = TDominanceTables.from_encodings(1, [encoding])
    table = tables.attributes[0]
    for i, better in enumerate(table.values):
        for j, worse in enumerate(table.values):
            assert bool(table.closure[i] >> j & 1) == encoding.t_prefers_or_equal(
                better, worse
            )
