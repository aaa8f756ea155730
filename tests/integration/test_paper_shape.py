"""sTSS at the paper's own schema shape, on every kernel / index / TSS* path.

Most system suites use one PO attribute.  The paper's default query has two
TO and two PO attributes over sampled lattices (height 8, density 0.8); a
PO-only schema with heavily tied value combinations exercises the duplicate
grouping and PO-only MBBs.  On both, every combination of kernel backend,
spatial index and virtual-R-tree setting must return the brute-force
skyline, and the work counters that do not depend on how a kernel charges
(node expansions, points examined) must not depend on the kernel either.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema
from repro.data.workloads import WorkloadSpec
from repro.index.registry import available_indexes
from repro.kernels import available_kernels
from repro.order.lattice import lattice_domain
from repro.skyline import brute_force_skyline

KERNELS = [name for name in ("purepython", "numpy") if name in available_kernels()]
INDEXES = [name for name in ("flat", "pointer") if name in available_indexes()]


def _paper_default() -> Dataset:
    spec = WorkloadSpec(
        name="paper-shape",
        cardinality=300,
        num_total_order=2,
        num_partial_order=2,
        dag_height=8,
        dag_density=0.8,
        to_domain_size=200,
        seed=12,
    )
    return spec.build()[1]


def _po_only_with_ties() -> Dataset:
    dags = [lattice_domain(3, 1.0, seed=seed) for seed in (1, 2, 3)]
    schema = Schema([PartialOrderAttribute(f"po{i}", dag) for i, dag in enumerate(dags)])
    rng = random.Random(5)
    # Five values per attribute: 125 combinations for 300 rows.
    pools = [dag.values[:5] for dag in dags]
    rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(300)]
    return Dataset(schema, rows)


@pytest.fixture(scope="module", params=["2to-2po-h8", "0to-3po-ties"])
def dataset(request):
    return _paper_default() if request.param == "2to-2po-h8" else _po_only_with_ties()


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("use_virtual_rtree", [False, True])
def test_every_path_returns_the_brute_force_skyline(dataset, index, use_virtual_rtree):
    truth = sorted(brute_force_skyline(dataset).skyline_ids)
    counters = []
    for kernel in KERNELS:
        result = stss_skyline(
            dataset, kernel=kernel, index=index, use_virtual_rtree=use_virtual_rtree
        )
        assert sorted(result.skyline_ids) == truth, kernel
        counters.append((result.stats.nodes_expanded, result.stats.points_examined))
    for kernel, (a, b) in zip(KERNELS[1:], itertools.pairwise(counters)):
        assert a == b, kernel
