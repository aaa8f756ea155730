"""Tests of the benchmark's skyline oracle against the program's brute force.

Run with ``python3 -m pytest perfbench/test_oracle.py -q`` from the repository
root.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import SkylineOracle, encode_rows  # noqa: E402

from repro.data.dataset import Dataset  # noqa: E402
from repro.data.schema import (  # noqa: E402
    PartialOrderAttribute,
    Schema,
    TotalOrderAttribute,
)
from repro.order.dag import PartialOrderDAG  # noqa: E402
from repro.order.lattice import lattice_domain  # noqa: E402
from repro.skyline.bruteforce import brute_force_skyline  # noqa: E402


def random_case(seed: int):
    """A small dataset with 0-3 TO and 1-3 PO attributes and many ties."""
    rng = random.Random(seed)
    num_to = rng.randint(0, 3)
    num_po = rng.randint(1, 3)
    attributes = [
        TotalOrderAttribute(f"t{i}", best=rng.choice(("min", "max")))
        for i in range(num_to)
    ]
    for i in range(num_po):
        if rng.random() < 0.5:
            dag = lattice_domain(rng.randint(1, 4), rng.choice((0.6, 1.0)), seed=seed * 7 + i)
        else:
            values = list(range(rng.randint(1, 6)))
            edges = [
                (a, b) for a in values for b in values if a < b and rng.random() < 0.4
            ]
            dag = PartialOrderDAG(values, edges)
        attributes.append(PartialOrderAttribute(f"p{i}", dag))
    rng.shuffle(attributes)
    schema = Schema(attributes)
    rows = []
    for _ in range(rng.randint(1, 40)):
        row = []
        for attribute in schema.attributes:
            if isinstance(attribute, TotalOrderAttribute):
                row.append(rng.randint(0, 3))  # a tiny domain forces TO ties
            else:
                row.append(rng.choice(attribute.dag.values))
        rows.append(tuple(row))
    dataset = Dataset(schema, rows)
    to, codes = encode_rows(schema, rows)
    domains = [a.dag.values for a in schema.partial_order_attributes]
    oracle = SkylineOracle(to, codes, [r.id for r in dataset.records], domains)
    closures = oracle.closures([a.dag for a in schema.partial_order_attributes])
    truth = sorted(brute_force_skyline(dataset).skyline_ids)
    return oracle, closures, truth, rng


@pytest.mark.parametrize("seed", range(60))
def test_oracle_skyline_equals_brute_force(seed):
    oracle, closures, truth, _ = random_case(seed)
    assert oracle.skyline_ids(closures) == truth
    assert oracle.check(truth, closures) is None


@pytest.mark.parametrize("seed", range(60))
def test_oracle_rejects_dropped_and_spurious_ids(seed):
    oracle, closures, truth, rng = random_case(seed)
    dropped = list(truth)
    dropped.pop(rng.randrange(len(dropped)))
    assert oracle.check(dropped, closures) is not None
    outside = sorted(set(int(i) for i in oracle.ids) - set(truth))
    if outside:
        spurious = truth + [rng.choice(outside)]
        assert oracle.check(spurious, closures) is not None
    assert oracle.check(truth + [truth[0]], closures) is not None


def test_oracle_respects_the_live_mask():
    oracle, closures, truth, _ = random_case(3)
    live = [True] * len(oracle.ids)
    live[truth[0]] = False
    assert oracle.check(truth, closures, live) is not None
    remaining = oracle.skyline_ids(closures, live)
    assert truth[0] not in remaining
    assert oracle.check(remaining, closures, live) is None
