"""Batched multi-region serving: ``PnPTuner.predict_sweep_many``.

The contract under test: batching R regions through one collated encoder
pass and one dense-head product returns exactly the results of R serial
``predict_sweep`` calls — byte-identical at float64 and float32 — while
running the GNN once, filling the same embedding cache, and reusing warm
entries.  Also covers the (structure key, dtype) cache keys: a region
resubmitted under a known id with a changed structure must re-encode
instead of serving the stale embedding.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner

CAPS = [40.0, 50.0, 60.0, 70.0, 85.0]


@contextlib.contextmanager
def counted_encoder(tuner):
    """Count encoder passes (graphs per pass) on the tuner's serving path.

    Serving runs through the compiled inference program, so the counter
    wraps ``program.encode_pooled`` — the single encoder entry point for
    predict/predict_sweep/predict_sweep_many.
    """
    calls = []
    program = tuner.compile_inference()
    original = program.encode_pooled
    program.encode_pooled = (
        lambda batch: (calls.append(batch.num_graphs), original(batch))[1]
    )
    try:
        yield calls
    finally:
        program.encode_pooled = original


@pytest.fixture(scope="module")
def fleet_tuner(small_database, small_builder):
    config = ModelConfig(
        vocabulary_size=len(small_builder.vocabulary),
        num_classes=small_database.search_space.num_omp_configurations,
        aux_dim=1,
        seed=0,
    )
    tuner = PnPTuner(
        system="haswell",
        objective="time",
        model_config=config,
        training_config=TrainingConfig(epochs=2, seed=0),
        database=small_database,
        seed=0,
    )
    tuner.builder = small_builder
    tuner.fit(tuner.build_training_samples())
    return tuner


@pytest.fixture(scope="module")
def suite_regions(small_builder):
    return small_builder.regions()


class TestBatchedEquivalence:
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_byte_identical_to_serial_predict_sweep(
        self, fleet_tuner, suite_regions, dtype
    ):
        fleet_tuner._embedding_cache.clear()
        batched = fleet_tuner.predict_sweep_many(suite_regions, CAPS, dtype=dtype)
        fleet_tuner._embedding_cache.clear()
        serial = [
            fleet_tuner.predict_sweep(region, CAPS, dtype=dtype)
            for region in suite_regions
        ]
        assert batched == serial

    def test_batched_embeddings_byte_identical_to_serial(
        self, fleet_tuner, suite_regions
    ):
        fleet_tuner._embedding_cache.clear()
        fleet_tuner.predict_sweep_many(suite_regions, CAPS)
        keys = [
            fleet_tuner._embedding_key(region, fleet_tuner.model)
            for region in suite_regions
        ]
        batched_rows = [fleet_tuner._embedding_cache.get(key).copy() for key in keys]
        fleet_tuner._embedding_cache.clear()
        for region in suite_regions:
            fleet_tuner.predict_sweep(region, CAPS)
        serial_rows = [fleet_tuner._embedding_cache.get(key) for key in keys]
        for batched, serial in zip(batched_rows, serial_rows):
            assert (batched == serial).all()

    def test_runs_encoder_once_for_all_regions(self, fleet_tuner, suite_regions):
        fleet_tuner._embedding_cache.clear()
        with counted_encoder(fleet_tuner) as calls:
            fleet_tuner.predict_sweep_many(suite_regions, CAPS)
        assert calls == [len(suite_regions)]

    def test_warm_cache_skips_encoding(self, fleet_tuner, suite_regions):
        fleet_tuner._embedding_cache.clear()
        first = fleet_tuner.predict_sweep_many(suite_regions, CAPS)
        with counted_encoder(fleet_tuner) as calls:
            second = fleet_tuner.predict_sweep_many(suite_regions, CAPS)
        assert calls == []
        assert second == first

    def test_mixed_warm_and_cold_regions(self, fleet_tuner, suite_regions):
        fleet_tuner._embedding_cache.clear()
        warm = suite_regions[:3]
        fleet_tuner.predict_sweep_many(warm, CAPS)
        with counted_encoder(fleet_tuner) as calls:
            results = fleet_tuner.predict_sweep_many(suite_regions, CAPS)
        # Only the cold regions hit the encoder, in one batch.
        assert calls == [len(suite_regions) - len(warm)]
        fleet_tuner._embedding_cache.clear()
        serial = [fleet_tuner.predict_sweep(r, CAPS) for r in suite_regions]
        assert results == serial

    def test_duplicate_regions_encoded_once(self, fleet_tuner, suite_regions):
        fleet_tuner._embedding_cache.clear()
        region = suite_regions[0]
        with counted_encoder(fleet_tuner) as calls:
            results = fleet_tuner.predict_sweep_many([region, region, region], CAPS)
        assert calls == [1]
        assert results[0] == results[1] == results[2]

    def test_float32_results_match_serial_float32(self, fleet_tuner, suite_regions):
        fleet_tuner._embedding_cache.clear()
        batched = fleet_tuner.predict_sweep_many(
            suite_regions[:4], CAPS, dtype="float32"
        )
        program = fleet_tuner._programs["float32"]
        for region, swept in zip(suite_regions[:4], batched):
            cached = fleet_tuner._embedding_cache.get(
                fleet_tuner._embedding_key(region, program)
            )
            assert cached is not None and cached.dtype == np.float32
            assert [r.power_cap for r in swept] == CAPS

    def test_empty_inputs(self, fleet_tuner, suite_regions):
        assert fleet_tuner.predict_sweep_many([], CAPS) == []
        assert fleet_tuner.predict_sweep_many(suite_regions[:2], []) == [[], []]

    def test_requires_time_objective(self, small_database, small_builder):
        tuner = PnPTuner(
            system="haswell",
            objective="edp",
            training_config=TrainingConfig(epochs=1, optimizer="adam", seed=0),
            database=small_database,
            seed=0,
        )
        tuner.builder = small_builder
        tuner.fit(tuner.build_training_samples())
        with pytest.raises(ValueError):
            tuner.predict_sweep_many(small_builder.regions()[:2], CAPS)


class TestFingerprintedCache:
    """Regression tests for the embedding-cache staleness fix."""

    def _modified(self, region):
        """Same id, different characteristics → different generated graph."""
        return replace(
            region,
            nest_depth=region.nest_depth + 1,
            condition_density=min(1.0, region.condition_density + 0.4),
            calls_external_math=not region.calls_external_math,
        )

    def test_changed_region_misses_the_cache(self, fleet_tuner, suite_regions):
        region = suite_regions[0]
        fleet_tuner._embedding_cache.clear()
        fleet_tuner.predict_sweep(region, CAPS)
        modified = self._modified(region)
        assert modified.region_id == region.region_id
        assert modified.fingerprint() != region.fingerprint()
        with counted_encoder(fleet_tuner) as calls:
            fleet_tuner.predict_sweep(modified, CAPS)
        # The stale embedding must NOT be served: the modified region
        # re-encodes and both variants coexist under distinct keys.
        assert calls == [1]
        program = fleet_tuner._programs["float64"]
        old_key = fleet_tuner._embedding_key(region, program)
        new_key = fleet_tuner._embedding_key(modified, program)
        old_row = fleet_tuner._embedding_cache.get(old_key)
        new_row = fleet_tuner._embedding_cache.get(new_key)
        assert old_row is not None and new_row is not None
        assert not (old_row == new_row).all()
        # Restore the session-scoped builder's graph of the suite region.
        fleet_tuner.builder.inference_sample(region, power_cap=60.0)

    def test_builder_rebuilds_graph_for_changed_region(self, fleet_tuner, suite_regions):
        region = suite_regions[1]
        builder = fleet_tuner.builder
        original_graph = builder.region_graphs()[region.region_id]
        modified = self._modified(region)
        sample = builder.inference_sample(modified, power_cap=60.0)
        rebuilt = builder.region_graphs()[region.region_id]
        assert rebuilt is not original_graph
        assert builder._suite_state[region.region_id].key == builder.structure_key(modified)
        # Inference leaves the database registration as it was.
        assert builder.database.region(region.region_id) == region
        assert sample.sample.region_id == region.region_id
        # Re-submitting the same characteristics reuses the rebuilt graph.
        again = builder.inference_sample(modified, power_cap=60.0)
        assert builder.region_graphs()[region.region_id] is rebuilt
        assert (again.sample.token_ids == sample.sample.token_ids).all()
        # Restore the session-scoped builder for the remaining tests.
        builder.inference_sample(region, power_cap=60.0)
        assert builder._suite_state[region.region_id].key == builder.structure_key(region)
        assert builder.database.region(region.region_id) == region

    def test_reregistration_drops_stale_measurements(self, fleet_tuner, suite_regions):
        region = suite_regions[2]
        database = fleet_tuner.builder.database
        config = database.search_space.default_configuration
        stale = database.measure(region.region_id, config, 60.0)
        assert database.measure(region.region_id, config, 60.0) is stale  # cached
        modified = self._modified(region)
        database.add_region(modified)
        fresh = database.measure(region.region_id, config, 60.0)
        # Executions measured against the old characteristics must not be
        # served for the new ones.
        assert fresh is not stale
        # Restore the original registration (and purge the modified results).
        database.add_region(region)

    def test_fingerprint_stability_and_sensitivity(self, suite_regions):
        region = suite_regions[0]
        assert region.fingerprint() == region.fingerprint()
        twin = replace(region)
        assert twin.fingerprint() == region.fingerprint()
        assert self._modified(region).fingerprint() != region.fingerprint()
