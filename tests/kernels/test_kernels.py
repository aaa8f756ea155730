"""Unit tests for the kernel registry, tables and reference backend."""

from __future__ import annotations

import pytest

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.exceptions import ExperimentError
from repro.kernels import (
    PurePythonKernel,
    RecordTables,
    available_kernels,
    get_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.order.builders import paper_example_dag
from repro.order.encoding import encode_domain
from repro.order.intervals import IntervalSet
from repro.skyline.base import SkylineStats


class TestRegistry:
    def test_purepython_always_available(self):
        assert "purepython" in available_kernels()
        assert isinstance(get_kernel("purepython"), PurePythonKernel)

    def test_aliases(self):
        assert get_kernel("python") is get_kernel("purepython")
        assert get_kernel("pure") is get_kernel("purepython")

    def test_unknown_name_rejected(self):
        with pytest.raises(ExperimentError):
            get_kernel("fortran")

    def test_resolve_accepts_instances_names_and_none(self):
        kernel = get_kernel("purepython")
        assert resolve_kernel(kernel) is kernel
        assert resolve_kernel("purepython") is kernel
        assert resolve_kernel(None).name in available_kernels()

    def test_default_override(self):
        try:
            set_default_kernel("purepython")
            assert get_kernel().name == "purepython"
        finally:
            set_default_kernel(None)

    def test_instances_are_cached(self):
        assert get_kernel("purepython") is get_kernel("purepython")


class TestJitRegistration:
    def test_jit_listed_only_with_numba(self):
        try:
            import numba  # noqa: F401

            have_numba = True
        except ImportError:
            have_numba = False
        try:
            import numpy  # noqa: F401

            have_numpy = True
        except ImportError:
            have_numpy = False
        assert ("jit" in available_kernels()) == (have_numba and have_numpy)

    def test_numba_alias(self):
        import warnings

        import repro.kernels as kernels

        kernels._instances.pop("jit", None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert get_kernel("numba") is get_kernel("jit")
        finally:
            kernels._instances.pop("jit", None)

    def test_missing_numba_falls_back_with_warning(self):
        """Requesting jit without numba degrades gracefully — once."""
        try:
            import numba  # noqa: F401

            pytest.skip("numba installed: the real backend is returned instead")
        except ImportError:
            pass
        import repro.kernels as kernels

        kernels._instances.pop("jit", None)
        try:
            with pytest.warns(RuntimeWarning, match=r"repro\[jit\]"):
                kernel = get_kernel("jit")
            # Best remaining backend, fully functional.
            assert kernel.name in ("numpy", "purepython")
            assert kernel.pareto_mask([(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)]) == [
                True,
                True,
                False,
            ]
            # Cached under the canonical name: no second warning.
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert get_kernel("jit") is kernel
        finally:
            kernels._instances.pop("jit", None)

    def test_warmup_default_is_noop(self):
        # Non-compiled backends report "nothing to warm".
        assert get_kernel("purepython").warmup() is False


class TestRecordTables:
    def test_matrix_matches_dag_preference(self):
        dag = paper_example_dag()
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("airline", dag)]
        )
        tables = RecordTables.from_schema(schema)
        table = tables.attributes[0]
        for i, better in enumerate(table.values):
            for j, worse in enumerate(table.values):
                expected = better == worse or dag.is_preferred(better, worse)
                assert bool(table.closure[i] >> j & 1) == expected

    def test_encode_po_roundtrip(self):
        dag = paper_example_dag()
        tables = RecordTables.from_encodings(0, [encode_domain(dag)])
        for value in dag.values:
            code = tables.encode_po((value,))[0]
            assert tables.attributes[0].values[code] == value


class TestCounters:
    def test_vector_store_charges_counter(self):
        kernel = get_kernel("purepython")
        store = kernel.vector_store(2)
        for vector in [(0, 1), (1, 0), (2, 2)]:
            store.append(vector)
        stats = SkylineStats()
        store.any_dominates((3, 3), counter=stats)
        assert stats.dominance_checks >= 1

    def test_record_store_compress(self):
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("p", paper_example_dag())]
        )
        tables = RecordTables.from_schema(schema)
        for kernel_name in available_kernels():
            store = get_kernel(kernel_name).record_store(tables)
            store.append((1.0,), (0,))
            store.append((2.0,), (0,))
            store.append((3.0,), (0,))
            store.compress([True, False, True])
            assert len(store) == 2
            # (2.0, same PO) was removed, so it is no longer dominated... but
            # (1.0,) still dominates everything weaker.
            assert store.any_dominates((4.0,), (0,))


class TestBoundingIntervals:
    def test_bounding_interval_of_set(self):
        interval_set = IntervalSet([(1, 2), (5, 9)])
        assert (
            interval_set.bounding_interval().low,
            interval_set.bounding_interval().high,
        ) == (1, 9)

    def test_kernel_helper_matches(self):
        sets = [IntervalSet([(1, 2), (4, 6)]), IntervalSet([(3, 3)])]
        intervals = get_kernel("purepython").bounding_intervals(sets)
        assert [(iv.low, iv.high) for iv in intervals] == [(1, 6), (3, 3)]
