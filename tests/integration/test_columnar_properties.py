"""Property suite: every frame-backed query path returns the brute-force skyline.

The columnar :class:`~repro.data.columns.EncodedFrame` is the only data
plane, so the oracle is :func:`~repro.skyline.bruteforce.brute_force_skyline`
itself.  For random mixed TO/PO datasets (PO-only schemas included), SFS,
LESS, sTSS, the sharded executor (1-4 shards) and the batch engine must
report exactly the brute-force skyline id-set — under the base preferences
and under a re-drawn dynamic preference — on **both** frame backends:

* ``numpy`` — NumPy-backed columns, every available kernel, default index;
* ``tuple`` — the tuple-backed columns a NumPy-free install runs on, forced
  by hiding NumPy from :mod:`repro.data.columns`, with the pure-Python
  kernel and the pointer index (what such an install resolves to).
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stss import stss_skyline
from repro.data.columns import EncodedFrame
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.kernels import available_kernels
from repro.parallel import ShardedExecutor
from repro.skyline.bruteforce import brute_force_skyline
from repro.skyline.less import less_skyline
from repro.skyline.sfs import sfs_skyline
from tests.conftest import mixed_dataset_strategy

KERNELS = available_kernels()

BACKENDS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif("numpy" not in KERNELS, reason="NumPy not installed"),
    ),
    "tuple",
]


@contextlib.contextmanager
def frame_backend(backend: str):
    """Run the body on one frame backend (the tuple one hides NumPy)."""
    if backend == "numpy":
        yield
        return
    import repro.data.columns as columns

    original = columns._numpy_or_none
    columns._numpy_or_none = lambda: None
    try:
        yield
    finally:
        columns._numpy_or_none = original


def _options(backend: str, draw_kernel: str) -> dict:
    """Kernel (and index) a run on ``backend`` resolves to."""
    if backend == "tuple":
        return {"kernel": "purepython", "index": "pointer"}
    return {"kernel": draw_kernel}


def _truth(dataset, overrides=None) -> frozenset[int]:
    if overrides:
        dataset = dataset.with_schema(
            dataset.schema.replace_partial_order(overrides), validate=False
        )
    return frozenset(brute_force_skyline(dataset).skyline_ids)


def _frame(dataset, backend: str) -> EncodedFrame:
    frame = EncodedFrame.from_dataset(dataset)
    assert frame.uses_numpy == (backend == "numpy")
    return frame


@pytest.mark.parametrize("backend", BACKENDS)
class TestFrameEqualsBruteForce:
    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=20, deadline=None)
    def test_scan_algorithms(self, backend, dataset, kernel):
        options = _options(backend, kernel)
        truth = _truth(dataset)
        with frame_backend(backend):
            frame = _frame(dataset, backend)
            for algorithm in (sfs_skyline, less_skyline):
                from_frame = algorithm(None, frame=frame, kernel=options["kernel"])
                from_dataset = algorithm(dataset, kernel=options["kernel"])
                assert frozenset(from_frame.skyline_ids) == truth, algorithm.__name__
                assert from_dataset.skyline_ids == from_frame.skyline_ids

    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_stss(self, backend, dataset, kernel, query_seed):
        options = _options(backend, kernel)
        overrides = random_query_preferences(dataset.schema, query_seed)
        with frame_backend(backend):
            frame = _frame(dataset, backend)
            base = stss_skyline(None, frame=frame, **options)
            dynamic = stss_skyline(
                None,
                frame=frame,
                schema=dataset.schema.replace_partial_order(overrides),
                **options,
            )
        assert frozenset(base.skyline_ids) == _truth(dataset)
        assert frozenset(dynamic.skyline_ids) == _truth(dataset, overrides)

    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
        num_shards=st.integers(min_value=1, max_value=4),
        partitioner=st.sampled_from(["round-robin", "po-group"]),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_sharded_executor(
        self, backend, dataset, kernel, num_shards, partitioner, query_seed
    ):
        options = _options(backend, kernel)
        overrides = random_query_preferences(dataset.schema, query_seed)
        with frame_backend(backend):
            executor = ShardedExecutor(
                dataset,
                num_shards=num_shards,
                workers=0,
                partitioner=partitioner,
                **options,
            )
            base = executor.query()
            dynamic = executor.query(overrides)
        assert base.skyline_set == _truth(dataset)
        assert dynamic.skyline_set == _truth(dataset, overrides)

    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
        num_shards=st.integers(min_value=1, max_value=4),
        prefilter=st.booleans(),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_batch_engine(
        self, backend, dataset, kernel, num_shards, prefilter, query_seed
    ):
        options = _options(backend, kernel)
        overrides = random_query_preferences(dataset.schema, query_seed)
        with frame_backend(backend):
            with BatchQueryEngine(
                dataset,
                workers=0,
                num_shards=num_shards if num_shards > 1 else None,
                prefilter=prefilter,
                **options,
            ) as engine:
                base = engine.run_query(BatchQuery("base"))
                dynamic = engine.run_query(BatchQuery("q", dag_overrides=overrides))
        assert base.skyline_set == _truth(dataset)
        assert dynamic.skyline_set == _truth(dataset, overrides)

    @given(
        dataset=mixed_dataset_strategy(max_rows=20),
        kernel=st.sampled_from(KERNELS),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_engine_mutations(self, backend, dataset, kernel, seed):
        """Inserts, deletes and a compaction keep the engine on the oracle."""
        import random

        from repro.data.dataset import Dataset

        rng = random.Random(seed)
        options = _options(backend, kernel)
        schema = dataset.schema
        live = {record.id: tuple(record.values) for record in dataset.records}
        new_rows = [
            tuple(rng.randint(0, 8) for _ in range(schema.num_total_order))
            + tuple(rng.choice(a.dag.values) for a in schema.partial_order_attributes)
            for _ in range(3)
        ]
        with frame_backend(backend):
            with BatchQueryEngine(dataset, compact_threshold=0, **options) as engine:
                for new_id, row in zip(engine.insert(new_rows), new_rows):
                    live[new_id] = row
                victims = rng.sample(sorted(live), k=2)
                for victim in engine.delete(victims):
                    del live[victim]
                merged = engine.run_query(BatchQuery("base")).skyline_ids
                engine.compact()
                compacted = engine.run_query(BatchQuery("base")).skyline_ids
        ordered_ids = sorted(live)
        truth = _truth(Dataset(schema, [live[i] for i in ordered_ids]))
        assert frozenset(merged) == {ordered_ids[row] for row in truth}
        assert compacted == merged


@pytest.mark.skipif("numpy" not in KERNELS, reason="needs a NumPy reference")
class TestFallbackFrameBackend:
    @given(dataset=mixed_dataset_strategy(max_rows=20))
    @settings(max_examples=10, deadline=None)
    def test_tuple_backend_agrees_with_numpy_backend(self, dataset):
        reference = sfs_skyline(dataset, frame=EncodedFrame.from_dataset(dataset))
        with frame_backend("tuple"):
            fallback_frame = _frame(dataset, "tuple")
            fallback = sfs_skyline(dataset, frame=fallback_frame, kernel="purepython")
        assert fallback.skyline_ids == reference.skyline_ids
