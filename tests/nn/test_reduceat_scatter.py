"""The sorted-segment schedule behind the runtime's index-ordered scatter.

:func:`~repro.nn._scatter.build_segment_schedule` (stable argsort + segment
boundaries) is what :func:`~repro.nn._scatter.scatter_rows_sum_into` derives
its round-major schedule from.
"""

import numpy as np
import pytest

from repro.nn import _scatter
from repro.nn.data import build_edge_plan


@pytest.fixture()
def random_scatter():
    rng = np.random.default_rng(7)
    index = rng.integers(0, 50, size=400)
    data32 = rng.standard_normal((400, 8)).astype(np.float32)
    return index, data32


class TestSegmentSchedule:
    def test_schedule_fields(self, random_scatter):
        index, _ = random_scatter
        schedule = _scatter.build_segment_schedule(index)
        assert schedule.perm.shape == index.shape
        # Stable sort: within a bucket the original order is preserved.
        sorted_index = index[schedule.perm]
        assert (np.diff(sorted_index) >= 0).all()
        assert schedule.buckets.shape == schedule.starts.shape
        assert set(schedule.buckets.tolist()) == set(np.unique(index).tolist())

    def test_empty_index(self):
        schedule = _scatter.build_segment_schedule(np.zeros(0, dtype=np.int64))
        assert schedule.perm.size == 0 and schedule.starts.size == 0

    def test_single_bucket(self):
        schedule = _scatter.build_segment_schedule(np.zeros(5, dtype=np.int64))
        assert schedule.starts.tolist() == [0]
        assert schedule.buckets.tolist() == [0]

    def test_plan_memoises_segment_schedules(self):
        rng = np.random.default_rng(0)
        edge_index = rng.integers(0, 60, size=(2, 240))
        edge_type = rng.integers(0, 3, size=240)
        batch = np.sort(rng.integers(0, 4, size=60))
        plan = build_edge_plan(
            edge_index, edge_type, batch, 60, 4, 3, dtype=np.float32
        )
        first = plan.scatter_segments(0)
        assert plan.scatter_segments(0) is first
        pool_first = plan.pool_segments()
        assert plan.pool_segments() is pool_first

    def test_with_dtype_shares_segment_cache(self):
        rng = np.random.default_rng(1)
        edge_index = rng.integers(0, 20, size=(2, 40))
        edge_type = rng.integers(0, 3, size=40)
        batch = np.zeros(20, dtype=np.int64)
        plan64 = build_edge_plan(
            edge_index, edge_type, batch, 20, 1, 3, dtype=np.float64
        )
        schedule = plan64.scatter_segments(1)
        plan32 = plan64.with_dtype(np.dtype(np.float32))
        assert plan32.scatter_segments(1) is schedule
