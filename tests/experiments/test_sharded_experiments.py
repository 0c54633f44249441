"""Experiment plumbing: region sweeps sharded over a fleet.

Sharding is a wall-clock decision only — it must return exactly the
selections of the serial loop.
"""

import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.experiments.common import (
    experiment_builder,
    sharded_performance_selections,
)
from repro.experiments.profiles import smoke_profile
from repro.serve import LocalFleet


@pytest.fixture(scope="module")
def profile():
    return smoke_profile()


@pytest.fixture(scope="module")
def builder(profile):
    return experiment_builder("haswell", profile)


class TestShardedRegionLoop:
    def test_selections_identical_to_serial_sweep(self, builder, profile):
        database = builder.database
        config = ModelConfig(
            vocabulary_size=len(builder.vocabulary),
            num_classes=database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=0,
        )
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=config,
            training_config=TrainingConfig(epochs=2, seed=0),
            database=database,
            seed=0,
        )
        tuner.builder = builder
        tuner.fit(tuner.build_training_samples())
        regions = builder.regions()
        caps = [45.0, 65.0, 85.0]
        sharded = sharded_performance_selections(tuner, regions, caps, num_workers=2)
        expected = {}
        for region in regions:
            for result in tuner.predict_sweep(region, caps):
                expected[(region.region_id, float(result.power_cap))] = result.config
        assert sharded == expected

    def test_fleet_routing_identical_to_serial_sweep(self, builder, profile):
        database = builder.database
        config = ModelConfig(
            vocabulary_size=len(builder.vocabulary),
            num_classes=database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=0,
        )
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=config,
            training_config=TrainingConfig(epochs=2, seed=0),
            database=database,
            seed=0,
        )
        tuner.builder = builder
        tuner.fit(tuner.build_training_samples())
        regions = builder.regions()
        caps = [45.0, 65.0, 85.0]
        expected = {}
        for region in regions:
            for result in tuner.predict_sweep(region, caps):
                expected[(region.region_id, float(result.power_cap))] = result.config
        with LocalFleet(tuner, num_nodes=2) as fleet:
            selections = sharded_performance_selections(tuner, regions, caps, fleet=fleet)
        assert selections == expected
