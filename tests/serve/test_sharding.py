"""The deterministic consistent-hash sharding of the serving fleet."""

import subprocess
import sys

import pytest

from repro.serve import HashRing
from repro.serve.sharding import shared_ring


def _benchsuite_region_ids():
    from repro.benchsuite.registry import regions_by_application

    return [
        region.region_id
        for regions in regions_by_application().values()
        for region in regions
    ]


class TestHashRingMembership:
    def test_empty_ring_lookup_fails(self):
        with pytest.raises(LookupError):
            HashRing().node_for("gemm/kernel.0")

    def test_single_node_owns_everything(self):
        ring = HashRing([5])
        ids = _benchsuite_region_ids()
        assert ring.assignments(ids) == [5] * len(ids)


class TestHashRingDeterminism:
    def test_insertion_order_is_irrelevant(self):
        ids = _benchsuite_region_ids()
        forward = HashRing([0, 1, 2, 3])
        backward = HashRing([3, 2, 1, 0])
        assert forward.assignments(ids) == backward.assignments(ids)

    def test_rebuilt_ring_matches(self):
        ids = _benchsuite_region_ids()
        assert HashRing(range(3)).assignments(ids) == HashRing(range(3)).assignments(ids)
        # The routers' memoised ring routes like a fresh one, built once.
        assert shared_ring((0, 1, 2)).assignments(ids) == HashRing(range(3)).assignments(ids)
        assert shared_ring((0, 1, 2)) is shared_ring((0, 1, 2))

    def test_identical_across_processes(self):
        """The assignment must survive a fresh interpreter (no salted hash)."""
        ids = _benchsuite_region_ids()
        script = (
            "from repro.serve import HashRing\n"
            "from repro.benchsuite.registry import regions_by_application\n"
            "ids = [r.region_id for rs in regions_by_application().values() for r in rs]\n"
            "print(HashRing(range(3)).assignments(ids))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == str(HashRing(range(3)).assignments(ids))


class TestHashRingRemap:
    """The rings of two memberships that differ by one node route only
    ~1/N of the benchsuite's 68 regions differently."""

    EPSILON = 0.15  # 68 keys x 64 virtual nodes leaves real sampling variance

    @pytest.mark.parametrize("num_nodes", [2, 3, 4])
    def test_join_steals_about_one_fraction(self, num_nodes):
        ids = _benchsuite_region_ids()
        before = HashRing(range(num_nodes)).assignments(ids)
        after = HashRing(range(num_nodes + 1)).assignments(ids)
        moved = sum(a != b for a, b in zip(before, after))
        assert moved / len(ids) <= 1 / (num_nodes + 1) + self.EPSILON
        # Everything that moved went to the new node — survivors never trade.
        assert all(b == num_nodes for a, b in zip(before, after) if a != b)

    @pytest.mark.parametrize("num_nodes", [2, 3, 4])
    def test_leave_moves_only_the_lost_nodes_keys(self, num_nodes):
        ids = _benchsuite_region_ids()
        before = HashRing(range(num_nodes)).assignments(ids)
        after = HashRing(range(1, num_nodes)).assignments(ids)
        for previous, now in zip(before, after):
            if previous != 0:
                assert now == previous  # survivors keep every key (warm caches)
        moved = sum(a != b for a, b in zip(before, after))
        assert moved == before.count(0)
        assert moved / len(ids) <= 1 / num_nodes + self.EPSILON

    def test_rejoin_restores_the_original_assignment(self):
        ids = _benchsuite_region_ids()
        before = shared_ring((0, 1, 2)).assignments(ids)
        assert shared_ring((0, 2)).assignments(ids) != before
        # Rejoining restores the membership, so every key routes as before.
        assert shared_ring((0, 1, 2)).assignments(ids) == before


class TestHashRingPositions:
    def test_partitions_all_positions_in_order(self):
        ids = _benchsuite_region_ids()
        groups = HashRing(range(4)).positions(ids)
        flattened = sorted(p for members in groups.values() for p in members)
        assert flattened == list(range(len(ids)))
        for members in groups.values():
            assert members == sorted(members)

    def test_groups_follow_the_assignment(self):
        ids = _benchsuite_region_ids()
        ring = HashRing(range(3))
        assignments = ring.assignments(ids)
        for node, members in ring.positions(ids).items():
            assert all(assignments[p] == node for p in members)

    def test_every_node_gets_work_on_the_benchsuite(self):
        """64 points per node keep the 68-region suite spread over small fleets."""
        ids = _benchsuite_region_ids()
        for num_nodes in (2, 3, 4):
            groups = HashRing(range(num_nodes)).positions(ids)
            assert len(groups) == num_nodes
