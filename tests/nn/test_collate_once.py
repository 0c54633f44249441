"""Tests for collate-once batching in the graph data loader."""

import numpy as np
import pytest

from repro.nn.data import GraphDataLoader, GraphSample, collate_graphs
from repro.utils.caching import LRUCache


def _make_samples(count, rng, with_aux=True, with_targets=True, num_classes=4):
    samples = []
    for i in range(count):
        num_nodes = int(rng.integers(2, 9))
        num_edges = int(rng.integers(1, 3 * num_nodes))
        samples.append(
            GraphSample(
                token_ids=rng.integers(0, 11, size=num_nodes),
                node_types=rng.integers(0, 3, size=num_nodes),
                edge_index=rng.integers(0, num_nodes, size=(2, num_edges)),
                edge_type=rng.integers(0, 3, size=num_edges),
                label=int(rng.integers(0, num_classes)),
                aux_features=rng.normal(size=2) if with_aux else None,
                target_distribution=rng.random(num_classes) + 0.1 if with_targets else None,
                region_id=f"region/{i}",
            )
        )
    return samples


def _assert_batches_identical(a, b):
    assert (a.token_ids == b.token_ids).all()
    assert (a.node_types == b.node_types).all()
    assert (a.edge_index == b.edge_index).all()
    assert (a.edge_type == b.edge_type).all()
    assert (a.batch == b.batch).all()
    assert (a.labels == b.labels).all()
    assert a.num_graphs == b.num_graphs
    assert a.region_ids == b.region_ids
    if a.aux_features is None:
        assert b.aux_features is None
    else:
        assert (a.aux_features == b.aux_features).all()
    if a.target_distributions is None:
        assert b.target_distributions is None
    else:
        assert (a.target_distributions == b.target_distributions).all()


class TestCollateOnce:
    @pytest.mark.parametrize("with_aux,with_targets", [(True, True), (False, False)])
    def test_batches_bit_identical_to_per_epoch_collation(self, with_aux, with_targets):
        samples = _make_samples(23, np.random.default_rng(0), with_aux, with_targets)
        cached = GraphDataLoader(
            samples, batch_size=5, shuffle=True, rng=np.random.default_rng(1)
        )
        reference = GraphDataLoader(
            samples, batch_size=5, shuffle=True, rng=np.random.default_rng(1),
            cache_collate=False,
        )
        for _ in range(3):  # same RNG stream => identical epochs
            for fast, slow in zip(cached, reference):
                _assert_batches_identical(fast, slow)

    def test_shuffle_rng_stream_preserved(self):
        # The loader must consume the shuffle RNG exactly like the seed
        # implementation: one rng.shuffle(arange(n)) per epoch.
        samples = _make_samples(9, np.random.default_rng(3))
        loader = GraphDataLoader(samples, batch_size=4, shuffle=True, rng=np.random.default_rng(7))
        epochs = [[tuple(b.region_ids) for b in loader] for _ in range(2)]
        rng = np.random.default_rng(7)
        for epoch in range(2):
            order = np.arange(len(samples))
            rng.shuffle(order)
            expected = [
                tuple(samples[i].region_id for i in order[start : start + 4])
                for start in range(0, len(order), 4)
            ]
            assert epochs[epoch] == expected

    def test_unshuffled_loader_rebuilds_dataset_order_each_epoch(self):
        samples = _make_samples(10, np.random.default_rng(2))
        loader = GraphDataLoader(samples, batch_size=4, shuffle=False)
        expected = [
            tuple(s.region_id for s in samples[start : start + 4])
            for start in range(0, len(samples), 4)
        ]
        first_epoch = list(loader)
        second_epoch = list(loader)
        assert [tuple(b.region_ids) for b in first_epoch] == expected
        for a, b in zip(first_epoch, second_epoch):
            # Each epoch gathers fresh batches (nothing pins a batch or its
            # EdgePlans between epochs) with identical contents.
            assert a is not b
            _assert_batches_identical(a, b)

    def test_shuffled_epoch_visits_every_sample_once(self):
        samples = _make_samples(11, np.random.default_rng(5))
        loader = GraphDataLoader(
            samples, batch_size=4, shuffle=True, rng=np.random.default_rng(8)
        )
        assert len(loader) == 3
        epochs = []
        for _ in range(3):
            batches = list(loader)
            assert [b.num_graphs for b in batches] == [4, 4, 3]
            visited = [rid for b in batches for rid in b.region_ids]
            assert sorted(visited) == sorted(s.region_id for s in samples)
            epochs.append(tuple(visited))
        # Sample order is reshuffled across epochs.
        assert len(set(epochs)) > 1

    def test_inconsistent_aux_rejected(self):
        rng = np.random.default_rng(4)
        samples = _make_samples(3, rng, with_aux=True)
        samples[1].aux_features = None
        loader = GraphDataLoader(samples, batch_size=3, shuffle=False)
        with pytest.raises(ValueError):
            next(iter(loader))

    def test_collate_rejects_empty(self):
        with pytest.raises(ValueError):
            collate_graphs([])

    @pytest.mark.parametrize("shuffle", ["samples", "batches"])
    def test_invalid_shuffle_value_rejected(self, shuffle):
        samples = _make_samples(4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shuffle must be"):
            GraphDataLoader(samples, batch_size=2, shuffle=shuffle)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_hit_miss_counters_and_clear(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("x") is None
        cache.put("x", 42)
        assert cache.get("x") == 42
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
