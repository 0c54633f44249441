"""The deterministic process-pool map the experiment runners shard CV folds with."""

from repro.serve import parallel_map


def _square(value: int) -> int:
    return value * value


class TestParallelMap:
    def test_matches_serial_map(self):
        items = list(range(10))
        assert parallel_map(_square, items, num_workers=3) == [i * i for i in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [4], num_workers=8) == [16]
        assert parallel_map(_square, list(range(4)), num_workers=1) == [0, 1, 4, 9]
