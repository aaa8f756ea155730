"""Property suite: the flat index plane is indistinguishable from the pointer
tree (hypothesis).

For random datasets across 2-4 dimensions, every available dominance kernel
and the frame path on/off, a BBS-style traversal of the flat tree must
report the *identical* skyline id-set in the *identical* discovery order,
expand the same nodes (equal node reads), and spend equal dominance checks
under the early-exiting reference kernel — the columnar loop's cached block
verdicts may only ever *save* checks, never add any, so under the batched
NumPy kernel the count is equal-or-fewer.  (sTSS is the exception even for
the reference kernel: its batched child-MBB necessary-condition scan has no
early exit, so a cached prune saves the pop-time re-scan on every backend.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bbs_plus import bbs_plus_skyline
from repro.baselines.sdc import sdc_skyline
from repro.baselines.sdc_plus import sdc_plus_skyline
from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.index.pager import DiskSimulator
from repro.kernels import available_kernels
from repro.skyline.bbs import bbs_skyline
from tests.conftest import mixed_dataset_strategy

pytest.importorskip("numpy")

KERNELS = available_kernels()


@st.composite
def to_dataset_strategy(draw, max_rows: int = 60):
    """Random TO-only datasets across 2-4 dimensions (classical BBS input)."""
    dims = draw(st.integers(min_value=2, max_value=4))
    schema = Schema([TotalOrderAttribute(f"to{i}") for i in range(dims)])
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=8)) for _ in range(dims))
        for _ in range(num_rows)
    ]
    return Dataset(schema, rows)


def _assert_equivalent(pointer, flat, kernel, *, allow_fewer_checks):
    assert flat.skyline_ids == pointer.skyline_ids  # id-set AND discovery order
    assert flat.stats.nodes_expanded == pointer.stats.nodes_expanded
    assert flat.stats.points_examined == pointer.stats.points_examined
    if kernel == "purepython" or not allow_fewer_checks:
        assert flat.stats.dominance_checks == pointer.stats.dominance_checks
    else:
        assert flat.stats.dominance_checks <= pointer.stats.dominance_checks


class TestFlatEqualsPointerBBS:
    @given(dataset=to_dataset_strategy(), kernel=st.sampled_from(KERNELS))
    @settings(max_examples=40, deadline=None)
    def test_classical_bbs(self, dataset, kernel):
        disk_pointer, disk_flat = DiskSimulator(), DiskSimulator()
        pointer = bbs_skyline(dataset, kernel=kernel, index="pointer", disk=disk_pointer)
        flat = bbs_skyline(dataset, kernel=kernel, index="flat", disk=disk_flat)
        # The columnar loop caches block verdicts, which can only save the
        # batched kernel whole-store re-scans; the reference kernel's
        # early-exit charges compose exactly (prefix + suffix), so its
        # counts are strictly equal.
        _assert_equivalent(pointer, flat, kernel, allow_fewer_checks=True)
        assert disk_flat.stats.reads == disk_pointer.stats.reads

    @given(
        dataset=mixed_dataset_strategy(max_rows=40),
        kernel=st.sampled_from(KERNELS),
        use_frame=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_stss(self, dataset, kernel, use_frame):
        disk_pointer, disk_flat = DiskSimulator(), DiskSimulator()
        pointer = stss_skyline(
            dataset, kernel=kernel, index="pointer", use_frame=use_frame, disk=disk_pointer
        )
        flat = stss_skyline(
            dataset, kernel=kernel, index="flat", use_frame=use_frame, disk=disk_flat
        )
        assert flat.skyline_ids == pointer.skyline_ids
        assert flat.stats.nodes_expanded == pointer.stats.nodes_expanded
        assert flat.stats.points_examined == pointer.stats.points_examined
        # The flat path batches each expansion's child-MBB t-dominance tests
        # (`TDominanceWindow` / `mbb_block_dominated`); a child pruned by
        # that cached verdict skips the pop-time re-scan against members
        # appended since — and every kernel charges an MBB test for each
        # member scanned, so the saving applies to the reference kernel too.
        # Batched verdicts can only ever *save* checks, never add any.
        assert flat.stats.dominance_checks <= pointer.stats.dominance_checks
        assert disk_flat.stats.reads == disk_pointer.stats.reads

    @given(
        dataset=mixed_dataset_strategy(max_rows=30),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=25, deadline=None)
    def test_stss_with_virtual_point_index(self, dataset, kernel):
        pointer = stss_skyline(
            dataset, kernel=kernel, index="pointer", use_virtual_rtree=True
        )
        flat = stss_skyline(dataset, kernel=kernel, index="flat", use_virtual_rtree=True)
        # The array-backed virtual-point index answers the same Boolean
        # range queries, so verdicts — and the one-check-per-candidate
        # accounting — agree everywhere.
        _assert_equivalent(pointer, flat, kernel, allow_fewer_checks=False)

    @given(
        dataset=mixed_dataset_strategy(max_rows=30),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=25, deadline=None)
    def test_baselines(self, dataset, kernel):
        for algorithm in (bbs_plus_skyline, sdc_skyline, sdc_plus_skyline):
            pointer = algorithm(dataset, kernel=kernel, index="pointer")
            flat = algorithm(dataset, kernel=kernel, index="flat")
            assert flat.skyline_ids == pointer.skyline_ids, algorithm.__name__
            assert (
                flat.stats.nodes_expanded == pointer.stats.nodes_expanded
            ), algorithm.__name__
            if kernel == "purepython" or algorithm is sdc_plus_skyline:
                assert (
                    flat.stats.dominance_checks == pointer.stats.dominance_checks
                ), algorithm.__name__
            else:
                assert (
                    flat.stats.dominance_checks <= pointer.stats.dominance_checks
                ), algorithm.__name__
