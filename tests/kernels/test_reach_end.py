"""The reach-end MBB test against the paper's interval-set formulation.

``TDominanceTables.reach_end`` decides "is value ``c`` preferred-or-equal to
every code in ``[lo, hi]``" with one lookup; the paper decides the same by
covering the range's merged interval set (Section IV-B).  These tests pin the
two together on random DAGs — including domains whose ranges cross 64-bit
word boundaries and a paper-style sampled lattice — and check that every
kernel backend returns the same ``mbb_dominated`` / ``mbb_block_dominated``
verdicts and charges the same dominance checks.  The NumPy store decides
leaf points from the same table (a point is the range ``[k, k]``) after
pruning members that cannot cover any target of a block; the point tests
run on blocks where that prune keeps no member, some, or every member.
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


def _prefers(encoding, better: int, worse: int) -> bool:
    return bool(encoding.closure[better] >> worse & 1)


#: (domains, TO columns): PO-only schemas and domains of 64/65/130 values.
POINT_CASES = [
    (("singleton",), 2),
    (("random-64",), 0),
    (("chain-65", "random-130"), 0),
    (("random-65", "chain-130"), 2),
    (("lattice-8-0.8", "random-64"), 1),
]


def _point_blocks(encodings, num_to, rng):
    """Members plus three target blocks for which the NumPy leaf prune keeps
    no member, some members, or every member.

    Members have TO values >= 1 and codes >= 1 (0 in a one-value domain).
    The prune keeps a member iff it is no worse than the block's maximum on
    every TO column and its code is no greater than the block's maximum
    code on every PO attribute.
    """

    def low_code(e):
        return min(1, e.cardinality - 1)

    def member():
        return (
            tuple(float(rng.randint(1, 4)) for _ in range(num_to)),
            tuple(rng.randint(low_code(e), min(8, e.cardinality - 1)) for e in encodings),
        )

    members = [member() for _ in range(38)]
    # One member every "some" block keeps, one it drops.
    members.append(((1.0,) * num_to, tuple(low_code(e) for e in encodings)))
    members.append(((4.0,) * num_to, tuple(min(8, e.cardinality - 1) for e in encodings)))
    rng.shuffle(members)

    def block(to_range, code_high, size=12):
        return [
            (
                tuple(float(rng.randint(*to_range)) for _ in range(num_to)),
                tuple(rng.randint(0, min(code_high, e.cardinality - 1)) for e in encodings),
            )
            for _ in range(size)
        ]

    none_kept = [((0.0,) * num_to, (0,) * len(encodings))] * 3
    some_kept = block((1, 2), 4) + [((1.0,) * num_to, tuple(low_code(e) for e in encodings))]
    every_kept = block((0, 6), 8) + [
        ((6.0,) * num_to, tuple(e.cardinality - 1 for e in encodings))
    ]
    return members, {"none": none_kept, "some": some_kept, "every": every_kept}


def _kept_by_prune(members, targets) -> int:
    to_max = [max(column) for column in zip(*(t[0] for t in targets))]
    code_max = [max(column) for column in zip(*(t[1] for t in targets))]
    return sum(
        all(a <= b for a, b in zip(to, to_max)) and all(c <= m for c, m in zip(codes, code_max))
        for to, codes in members
    )


@needs_numpy
@pytest.mark.parametrize("names,num_to", POINT_CASES)
def test_kernels_agree_on_pruned_point_blocks(names, num_to):
    """Block and single point tests, plus MBB tests over the same blocks,
    give the ground-truth verdicts on every backend.  MBB charges equal
    across backends; point charges are one per member per target on NumPy
    whatever the prune drops, and never more than that on the early-exiting
    backends."""
    rng = random.Random(f"{names}-{num_to}")
    encodings = [encode_domain(DOMAINS[name]) for name in names]
    tables = TDominanceTables.from_encodings(num_to, encodings)
    members, blocks = _point_blocks(encodings, num_to, rng)
    stores = [
        kernel.load_tdominance_store(tables, [m[0] for m in members], [m[1] for m in members])
        for kernel in KERNELS
    ]

    def dominated(target, start=0):
        to_values, codes = target
        return any(
            all(a <= b for a, b in zip(to, to_values))
            and all(_prefers(e, c, k) for e, c, k in zip(encodings, member_codes, codes))
            for to, member_codes in members[start:]
        )

    def box_dominated(to_low, lows, highs):
        return any(
            all(a <= b for a, b in zip(to, to_low))
            and all(
                all(_prefers(e, c, k) for k in range(lo, hi + 1))
                for e, c, lo, hi in zip(encodings, member_codes, lows, highs)
            )
            for to, member_codes in members
        )

    kept = {label: _kept_by_prune(members, targets) for label, targets in blocks.items()}
    assert kept == {"none": 0, "some": kept["some"], "every": len(members)}
    assert 0 < kept["some"] < len(members)

    for label, targets in blocks.items():
        to_rows = [t[0] for t in targets]
        code_rows = [t[1] for t in targets]
        want = [dominated(t) for t in targets]
        full_charge = len(members) * len(targets)
        for kernel, store in zip(KERNELS, stores):
            stats = SkylineStats()
            verdicts = store.block_weakly_dominated(to_rows, code_rows, stats)
            assert list(verdicts) == want, (kernel.name, label)
            if kernel.name == "numpy":
                assert stats.dominance_checks == full_charge, label
            else:
                assert stats.dominance_checks <= full_charge, (kernel.name, label)
            for target in targets:
                for start in (0, len(members) // 3, len(members)):
                    stats = SkylineStats()
                    verdict = store.any_weakly_dominates(*target, stats, start=start)
                    assert verdict == dominated(target, start), (kernel.name, label, start)
                    if kernel.name == "numpy":
                        assert stats.dominance_checks == len(members) - start
        # The same blocks as MBBs: each target's codes widened into ranges.
        highs = [
            tuple(min(k + rng.randint(0, 2), e.cardinality - 1) for e, k in zip(encodings, codes))
            for codes in code_rows
        ]
        want = [box_dominated(to, lo, hi) for to, lo, hi in zip(to_rows, code_rows, highs)]
        charges = set()
        for kernel, store in zip(KERNELS, stores):
            stats = SkylineStats()
            assert list(store.mbb_block_dominated(to_rows, code_rows, highs, stats)) == want
            charges.add(stats.dominance_checks)
            for to, lo, hi, expected in zip(to_rows, code_rows, highs, want):
                stats = SkylineStats()
                assert store.mbb_dominated(to, lo, hi, stats) == expected, kernel.name
                assert stats.dominance_checks == len(members)
        assert charges == {full_charge}
