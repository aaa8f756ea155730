"""The reach-end MBB test against the paper's interval-set formulation.

``TDominanceTables.reach_end`` decides "is value ``c`` preferred-or-equal to
every code in ``[lo, hi]``" with one lookup; the paper decides the same by
covering the range's merged interval set (Section IV-B).  These tests pin the
two together on random DAGs — including domains whose ranges cross 64-bit
word boundaries and a paper-style sampled lattice — and check that every
kernel backend returns the same ``mbb_dominated`` / ``mbb_block_dominated``
verdicts and charges the same dominance checks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.kernels import TDominanceTables, available_kernels, get_kernel
from repro.order.builders import chain, random_dag
from repro.order.encoding import encode_domain
from repro.order.lattice import lattice_domain
from repro.skyline.base import SkylineStats
from tests.conftest import random_dag_strategy

try:
    import numpy
except ImportError:  # the reach-end table is NumPy-only; the rest is not
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="reach_end needs NumPy")

KERNELS = tuple(get_kernel(name) for name in available_kernels())

#: Codes around the 64-bit word boundaries, where a bitset range test breaks
#: first if a word index or shift is off by one.
BOUNDARY_CODES = (0, 1, 62, 63, 64, 65, 127, 128, 129)

DOMAINS = {
    "singleton": random_dag(1, seed=0),
    "random-64": random_dag(64, edge_probability=0.1, seed=64),
    "chain-65": chain([f"c{i}" for i in range(65)]),
    "random-65": random_dag(65, edge_probability=0.3, seed=65),
    "random-130": random_dag(130, edge_probability=0.05, seed=130),
    "chain-130": chain([f"c{i}" for i in range(130)]),
    "lattice-8-0.8": lattice_domain(8, 0.8, seed=3),
}


def _ranges(cardinality: int, rng: random.Random, extra: int = 120) -> list[tuple[int, int]]:
    """Every ``lo <= hi`` pair of boundary codes plus ``extra`` random pairs."""
    edges = [code for code in BOUNDARY_CODES if code < cardinality]
    pairs = {(lo, hi) for lo in edges for hi in edges if lo <= hi}
    for _ in range(extra):
        lo = rng.randrange(cardinality)
        pairs.add((lo, rng.randrange(lo, cardinality)))
    return sorted(pairs)


def _covers(encoding, code: int, lo: int, hi: int) -> bool:
    """Paper reference: the value's interval set covers the range's set."""
    value_set = encoding.interval_set(encoding.order[code])
    return value_set.covers(encoding.range_interval_set(lo + 1, hi + 1))


def _assert_closure_is_reachability(encoding) -> None:
    order = encoding.order
    for i, better in enumerate(order):
        for j, worse in enumerate(order):
            assert bool(encoding.closure[i] >> j & 1) == encoding.dag.is_preferred_or_equal(
                better, worse
            ), (better, worse)


def _assert_reach_end_matches_covers(encoding, ranges) -> None:
    (reach,) = TDominanceTables.from_encodings(0, [encoding]).reach_end
    n = encoding.cardinality
    assert reach.shape == (n, n) and reach.dtype == numpy.int32
    for lo, hi in ranges:
        range_set = encoding.range_interval_set(lo + 1, hi + 1)
        for code, value in enumerate(encoding.order):
            expected = encoding.interval_set(value).covers(range_set)
            assert (int(reach[code, lo]) > hi) == expected, (code, lo, hi)


def _all_ranges(n: int) -> list[tuple[int, int]]:
    return [(lo, hi) for lo in range(n) for hi in range(lo, n)]


@given(dag=random_dag_strategy(max_values=12))
@settings(max_examples=60, deadline=None)
def test_closure_is_reachability_on_random_dags(dag):
    _assert_closure_is_reachability(encode_domain(dag))


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_closure_is_reachability_across_word_boundaries(name):
    _assert_closure_is_reachability(encode_domain(DOMAINS[name]))


@needs_numpy
@given(dag=random_dag_strategy(max_values=12))
@settings(max_examples=60, deadline=None)
def test_reach_end_matches_covers_on_random_dags(dag):
    encoding = encode_domain(dag)
    _assert_reach_end_matches_covers(encoding, _all_ranges(encoding.cardinality))


@needs_numpy
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_reach_end_matches_covers_across_word_boundaries(name):
    encoding = encode_domain(DOMAINS[name])
    _assert_reach_end_matches_covers(
        encoding, _ranges(encoding.cardinality, random.Random(name))
    )


@pytest.mark.parametrize(
    "names",
    [
        ("singleton",),
        ("random-64", "chain-65"),
        ("chain-130", "random-65"),
        ("random-130", "lattice-8-0.8"),
    ],
)
def test_kernels_agree_on_mbb_verdicts_and_charges(names):
    rng = random.Random(",".join(names))
    encodings = [encode_domain(DOMAINS[name]) for name in names]
    num_to = 2
    tables = TDominanceTables.from_encodings(num_to, encodings)
    # Low codes and small TO values give members that do cover some boxes.
    members = [
        (
            tuple(float(rng.randint(0, 4)) for _ in range(num_to)),
            tuple(rng.randrange(min(8, e.cardinality)) for e in encodings),
        )
        for _ in range(40)
    ]
    boxes = []
    for _ in range(25):
        to_low = tuple(float(rng.randint(0, 6)) for _ in range(num_to))
        ranges = [rng.choice(_ranges(e.cardinality, rng, extra=4)) for e in encodings]
        boxes.append((to_low, [lo for lo, _ in ranges], [hi for _, hi in ranges]))

    def expected(box, start):
        to_low, lows, highs = box
        return any(
            all(a <= b for a, b in zip(to, to_low))
            and all(
                _covers(e, code, lo, hi)
                for e, code, lo, hi in zip(encodings, codes, lows, highs)
            )
            for to, codes in members[start:]
        )

    stores = [
        kernel.load_tdominance_store(
            tables, [m[0] for m in members], [m[1] for m in members]
        )
        for kernel in KERNELS
    ]
    for box in boxes:
        for start in (0, rng.randrange(len(members)), len(members)):
            want = expected(box, start)
            for kernel, store in zip(KERNELS, stores):
                stats = SkylineStats()
                assert store.mbb_dominated(*box, stats, start=start) == want, (
                    kernel.name,
                    box,
                    start,
                )
                assert stats.dominance_checks == len(members) - start, kernel.name
    columns = [list(column) for column in zip(*boxes)]
    want = [expected(box, 0) for box in boxes]
    for kernel, store in zip(KERNELS, stores):
        stats = SkylineStats()
        assert list(store.mbb_block_dominated(*columns, stats)) == want, kernel.name
        assert stats.dominance_checks == len(members) * len(boxes), kernel.name
