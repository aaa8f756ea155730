"""JIT kernel logic validated without numba: stub the compiler, run the loops.

The ``jit`` backend's ``@njit`` functions are deliberately written as plain
scalar loops that are *also valid Python*.  These tests install a no-op
``numba`` stub in ``sys.modules``, import :mod:`repro.kernels.jit_kernel`
against it, and drive every store surface side by side with the pure-Python
reference — asserting identical verdicts **and identical dominance-check
counts** (the fused loops early-exit at exactly the same positions as the
reference, unlike the NumPy backend which charges whole blocks).

When numba is actually installed the stub would shadow the real compiler, and
the compiled path is already exercised by the three-way matrix in
``test_kernel_agreement.py`` — so this module is skipped there.
"""

from __future__ import annotations

import importlib
import random
import sys
import types

import pytest

pytest.importorskip("numpy")

try:  # pragma: no cover - exercised only on numba-equipped machines
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

pytestmark = pytest.mark.skipif(
    HAVE_NUMBA,
    reason="real numba present: compiled path covered by the agreement matrix",
)

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.kernels.purepython import PurePythonKernel
from repro.kernels.tables import RecordTables, TDominanceTables
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import encode_domain
from repro.skyline.base import SkylineStats


def _stub_njit(*args, **kwargs):
    """Accept both ``@njit`` and ``@njit(cache=True)`` forms."""
    if args and callable(args[0]):
        return args[0]

    def decorate(fn):
        return fn

    return decorate


@pytest.fixture(scope="module")
def jit_kernel():
    """A JitKernel whose compiled functions run as plain Python."""
    stub = types.ModuleType("numba")
    stub.njit = _stub_njit
    saved_numba = sys.modules.get("numba")
    saved_module = sys.modules.get("repro.kernels.jit_kernel")
    sys.modules["numba"] = stub
    sys.modules.pop("repro.kernels.jit_kernel", None)
    try:
        module = importlib.import_module("repro.kernels.jit_kernel")
        yield module.JitKernel()
    finally:
        if saved_numba is None:
            sys.modules.pop("numba", None)
        else:  # pragma: no cover - only when numba is really installed
            sys.modules["numba"] = saved_numba
        if saved_module is None:
            sys.modules.pop("repro.kernels.jit_kernel", None)
        else:  # pragma: no cover
            sys.modules["repro.kernels.jit_kernel"] = saved_module


PURE = PurePythonKernel()


def _random_dag(rng: random.Random, size: int, density: float) -> PartialOrderDAG:
    values = [f"v{i}" for i in range(size)]
    edges = [
        (values[i], values[j])
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < density
    ]
    return PartialOrderDAG(values, edges)


def _paired_counters():
    return SkylineStats(), SkylineStats()


def _assert_counts(counters, context):
    assert counters[0].dominance_checks == counters[1].dominance_checks, context


class TestVectorStoreParity:
    def test_verdicts_and_check_counts(self, jit_kernel):
        rng = random.Random(11)
        for trial in range(25):
            dims = rng.randint(1, 4)
            rows = [
                tuple(float(rng.randint(0, 5)) for _ in range(dims))
                for _ in range(rng.randint(1, 12))
            ]
            stores = [k.load_vector_store(dims, rows) for k in (PURE, jit_kernel)]
            for _ in range(6):
                target = tuple(float(rng.randint(0, 5)) for _ in range(dims))
                counters = _paired_counters()
                verdicts = [
                    s.any_dominates(target, c) for s, c in zip(stores, counters)
                ]
                assert verdicts[0] == verdicts[1], trial
                _assert_counts(counters, (trial, "any_dominates"))
                for exclude in (False, True):
                    counters = _paired_counters()
                    weak = [
                        s.any_weakly_dominates(target, c, exclude_equal=exclude)
                        for s, c in zip(stores, counters)
                    ]
                    assert weak[0] == weak[1], (trial, exclude)
                    _assert_counts(counters, (trial, "weak", exclude))
            targets = [
                tuple(float(rng.randint(0, 5)) for _ in range(dims)) for _ in range(7)
            ]
            counters = _paired_counters()
            masks = [s.block_dominated_mask(targets, c) for s, c in zip(stores, counters)]
            assert list(masks[0]) == list(masks[1]), trial
            _assert_counts(counters, (trial, "block"))
            corners = [
                tuple(float(rng.randint(0, 3)) for _ in range(dims)) for _ in range(5)
            ]
            for exclude in (False, True):
                counters = _paired_counters()
                mbr = [
                    s.mbr_block_dominated(corners, c, exclude_equal=exclude)
                    for s, c in zip(stores, counters)
                ]
                assert list(mbr[0]) == list(mbr[1]), (trial, exclude)
                _assert_counts(counters, (trial, "mbr", exclude))

    def test_pareto_mask_matches_reference(self, jit_kernel):
        rng = random.Random(5)
        for dims in (1, 2, 3, 4):
            block = [
                tuple(float(rng.randint(0, 4)) for _ in range(dims)) for _ in range(40)
            ]
            assert jit_kernel.pareto_mask(block) == PURE.pareto_mask(block), dims


class TestRecordStoreParity:
    def test_verdicts_and_check_counts(self, jit_kernel):
        rng = random.Random(7)
        for trial in range(20):
            num_to = rng.randint(1, 2)
            num_po = rng.randint(1, 2)
            dags = [_random_dag(rng, rng.randint(2, 6), 0.4) for _ in range(num_po)]
            attributes = [TotalOrderAttribute(f"t{i}") for i in range(num_to)]
            attributes += [
                PartialOrderAttribute(f"p{i}", dag) for i, dag in enumerate(dags)
            ]
            tables = RecordTables.from_schema(Schema(attributes))

            def encode(rng=rng, tables=tables, dags=dags, num_to=num_to):
                to_values = tuple(float(rng.randint(0, 5)) for _ in range(num_to))
                codes = tables.encode_po(tuple(rng.choice(d.values) for d in dags))
                return to_values, codes

            members = [encode() for _ in range(rng.randint(1, 12))]
            stores = [
                k.load_record_store(
                    tables, [m[0] for m in members], [m[1] for m in members]
                )
                for k in (PURE, jit_kernel)
            ]
            targets = [encode() for _ in range(7)]
            for to_values, codes in targets:
                counters = _paired_counters()
                verdicts = [
                    s.any_dominates(to_values, codes, c)
                    for s, c in zip(stores, counters)
                ]
                assert verdicts[0] == verdicts[1], trial
                _assert_counts(counters, (trial, "any"))
                counters = _paired_counters()
                masks = [
                    s.dominance_masks(to_values, codes, c)
                    for s, c in zip(stores, counters)
                ]
                assert masks[0] == (masks[1][0], list(masks[1][1])), trial
                _assert_counts(counters, (trial, "masks"))
            counters = _paired_counters()
            block = [s.block_dominated_mask(targets, c) for s, c in zip(stores, counters)]
            assert list(block[0]) == list(block[1]), trial
            _assert_counts(counters, (trial, "block"))
            counters = _paired_counters()
            columns = [
                s.block_dominated_columns(
                    [t[0] for t in targets], [t[1] for t in targets], c
                )
                for s, c in zip(stores, counters)
            ]
            assert list(columns[0]) == list(columns[1]), trial
            _assert_counts(counters, (trial, "columns"))


class TestTDominanceStoreParity:
    def test_verdicts_and_check_counts(self, jit_kernel):
        rng = random.Random(3)
        for trial in range(20):
            num_to = rng.randint(1, 2)
            num_po = rng.randint(1, 2)
            dags = [_random_dag(rng, rng.randint(2, 6), 0.4) for _ in range(num_po)]
            encodings = [encode_domain(dag) for dag in dags]
            tables = TDominanceTables.from_encodings(num_to, encodings)

            def point(rng=rng, dags=dags, num_to=num_to):
                to_values = tuple(float(rng.randint(0, 5)) for _ in range(num_to))
                codes = tuple(rng.randrange(len(d.values)) for d in dags)
                return to_values, codes

            members = [point() for _ in range(rng.randint(1, 12))]
            stores = [
                k.load_tdominance_store(
                    tables, [m[0] for m in members], [m[1] for m in members]
                )
                for k in (PURE, jit_kernel)
            ]
            targets = [point() for _ in range(7)]
            for to_values, codes in targets:
                for start in (0, rng.randrange(len(members) + 1)):
                    counters = _paired_counters()
                    verdicts = [
                        s.any_weakly_dominates(to_values, codes, c, start=start)
                        for s, c in zip(stores, counters)
                    ]
                    assert verdicts[0] == verdicts[1], (trial, start)
                    _assert_counts(counters, (trial, "weak", start))
            counters = _paired_counters()
            block = [
                s.block_weakly_dominated(
                    [t[0] for t in targets], [t[1] for t in targets], c
                )
                for s, c in zip(stores, counters)
            ]
            assert list(block[0]) == list(block[1]), trial
            _assert_counts(counters, (trial, "block"))

            # MBB verdicts: random code ranges, charged per member scanned.
            boxes = []
            for to_values, codes in targets:
                highs = tuple(
                    rng.randrange(code, len(d.values)) for code, d in zip(codes, dags)
                )
                boxes.append((to_values, codes, highs))
            for to_values, lows, highs in boxes:
                for start in (0, rng.randrange(len(members) + 1)):
                    counters = _paired_counters()
                    verdicts = [
                        s.mbb_dominated(to_values, lows, highs, c, start=start)
                        for s, c in zip(stores, counters)
                    ]
                    assert verdicts[0] == verdicts[1], (trial, start)
                    _assert_counts(counters, (trial, "mbb", start))
            counters = _paired_counters()
            block = [
                s.mbb_block_dominated(*(list(column) for column in zip(*boxes)), c)
                for s, c in zip(stores, counters)
            ]
            assert list(block[0]) == list(block[1]), trial
            _assert_counts(counters, (trial, "mbb block"))


class TestWarmup:
    def test_warmup_touches_every_compiled_function(self, jit_kernel):
        assert jit_kernel.warmup() is True
        # Idempotent: a second call is a no-op but still reports success.
        assert jit_kernel.warmup() is True
