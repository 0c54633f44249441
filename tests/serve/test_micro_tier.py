"""The distilled micro tier through the serving stack, end to end.

Registering a tuner *with* a distilled blob upgrades every replica — TCP
node, fleet fallback — to a
:class:`~repro.serve.predictor.TieredPredictor`: in-family regions are
served by the dense micro tier (tier counters prove it), out-of-family
regions fall back to the GNN path byte-identically, and rolling weight
updates can keep, replace or drop the micro tier fleet-wide.
"""

import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.distill.generate import perturb_out_of_family
from repro.distill.student import StudentConfig, distill
from repro.serve import LocalFleet, TieredPredictor

CAPS = [40.0, 85.0]


@pytest.fixture(scope="module")
def fitted_tuner(small_database, small_builder):
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
def distilled_blob(fitted_tuner, small_regions_by_app):
    model = distill(
        fitted_tuner,
        regions_by_app=small_regions_by_app,
        config=StudentConfig(per_region=2, epochs=60, seed=0),
    )
    return model.to_blob()


@pytest.fixture(scope="module")
def tiered_reference(fitted_tuner, distilled_blob):
    """The in-process tiered predictor every remote answer must match."""
    from repro.distill.student import DistilledModel
    from repro.serve.predictor import tiered_predictor

    return tiered_predictor(fitted_tuner, DistilledModel.from_blob(distilled_blob))


class TestFleetMicroTier:
    @pytest.fixture(scope="class")
    def fleet(self, fitted_tuner, distilled_blob):
        with LocalFleet(fitted_tuner, num_nodes=2, distilled=distilled_blob) as local:
            yield local

    def test_nodes_serve_the_tiered_path(
        self, fleet, tiered_reference, small_builder
    ):
        regions = small_builder.regions()
        assert fleet.sweep(regions, CAPS) == tiered_reference.predict_sweep_many(
            regions, CAPS
        )

    def test_tier_counters_surface_in_node_stats(self, fleet, small_builder):
        regions = small_builder.regions()
        fleet.sweep(regions, CAPS)
        stats = fleet.stats()
        assert all("tier" in node for node in stats.values())
        assert all(
            node["tier"]["micro_families"] == 4 for node in stats.values()
        )
        assert sum(node["tier"]["micro_hits"] for node in stats.values()) >= len(
            regions
        )

    def test_out_of_family_matches_the_tuner(
        self, fleet, fitted_tuner, small_builder
    ):
        outside = perturb_out_of_family(small_builder.regions()[0])
        served = fleet.sweep([outside], CAPS)[0]
        fitted_tuner._embedding_cache.clear()
        assert served == fitted_tuner.predict_sweep(outside, CAPS)

    def test_clear_sheds_both_tiers_and_serving_resumes(
        self, fleet, small_builder
    ):
        regions = small_builder.regions()
        before = fleet.sweep(regions, CAPS)
        fleet.clear_caches()
        assert fleet.sweep(regions, CAPS) == before

    def test_local_fallback_predictor_is_tiered(self, fleet, small_builder):
        predictor = fleet.client.local_fallback_predictor()
        assert isinstance(predictor, TieredPredictor)
        region = small_builder.regions()[0]
        assert predictor.predict_sweep(region, CAPS) == (
            fleet.sweep([region], CAPS)[0]
        )


class TestRollingUpdates:
    def test_update_keeps_replaces_and_drops_the_micro_tier(
        self, fitted_tuner, distilled_blob, small_builder
    ):
        region = small_builder.regions()[0]
        with LocalFleet(
            fitted_tuner, num_nodes=1, distilled=distilled_blob
        ) as fleet:
            fleet.sweep([region], CAPS)
            # Default roll keeps the registered blob.
            fleet.client.update_weights(fitted_tuner)
            stats = fleet.stats()
            assert all(
                node["tier"]["micro_families"] == 4 for node in stats.values()
            )
            # An explicit None drops the micro tier fleet-wide.
            fleet.client.update_weights(fitted_tuner, distilled=None)
            stats = fleet.stats()
            assert all(
                node["tier"]["micro_families"] == 0 for node in stats.values()
            )
            # And a GNN-only fleet still answers correctly.
            served = fleet.sweep([region], CAPS)[0]
        fitted_tuner._embedding_cache.clear()
        assert served == fitted_tuner.predict_sweep(region, CAPS)

    def test_gnn_only_fleet_reports_zero_tier(self, fitted_tuner, small_builder):
        with LocalFleet(fitted_tuner, num_nodes=1) as fleet:
            fleet.sweep(small_builder.regions()[:1], CAPS)
            stats = fleet.stats()
        for node in stats.values():
            assert node["tier"] == {
                "micro_hits": 0,
                "fallbacks": 0,
                "micro_families": 0,
            }
