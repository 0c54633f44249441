"""Trust-gate routing: in-family → student, out-of-family → GNN, byte for byte.

The serving guarantee is asymmetric by design: regions inside a family's
calibrated feature ranges are served by the micro tier (fast, within the
embedding tolerance of the teacher), while anything outside — perturbed
features, unknown applications — must fall back to the full GNN path and
be **byte-identical** to calling the tuner directly.
"""

import dataclasses

import pytest

from repro.distill.generate import perturb_out_of_family
from repro.distill.runtime import MicroRuntime
from repro.serve.predictor import GNNPredictor, TieredPredictor, tiered_predictor

CAPS = [60.0, 95.0]


@pytest.fixture()
def tiered(teacher_tuner, distilled_model):
    return tiered_predictor(teacher_tuner, distilled_model)


def _all_regions(full_regions_by_app):
    return [r for rs in full_regions_by_app.values() for r in rs]


class TestGate:
    def test_every_benchsuite_region_is_trusted(
        self, full_regions_by_app, tiered
    ):
        for region in _all_regions(full_regions_by_app):
            assert tiered.micro.trusted(region), region.region_id

    def test_out_of_family_perturbation_is_untrusted(
        self, full_regions_by_app, tiered
    ):
        for region in _all_regions(full_regions_by_app):
            assert not tiered.micro.trusted(perturb_out_of_family(region))

    def test_unknown_application_is_untrusted(self, full_regions_by_app, tiered):
        region = _all_regions(full_regions_by_app)[0]
        stranger = dataclasses.replace(region, application="never-distilled")
        assert not tiered.micro.trusted(stranger)

    def test_max_error_budget_excludes_families(
        self, teacher_tuner, distilled_model
    ):
        strict = dataclasses.replace(
            distilled_model,
            config=dataclasses.replace(distilled_model.config, max_error=0.0),
        )
        runtime = MicroRuntime(strict, teacher_tuner)
        assert runtime.families() == []


class TestRouting:
    def test_in_family_routes_to_micro_tier(self, full_regions_by_app, tiered):
        region = _all_regions(full_regions_by_app)[0]
        expected = tiered.micro.predict_sweep(region, CAPS)
        assert tiered.predict_sweep(region, CAPS) == expected
        stats = tiered.tier_stats()
        assert stats["micro_hits"] == 1
        assert stats["fallbacks"] == 0
        assert stats["micro_families"] == 30

    def test_out_of_family_is_byte_identical_to_tuner(
        self, teacher_tuner, full_regions_by_app, tiered
    ):
        for region in _all_regions(full_regions_by_app)[:5]:
            outside = perturb_out_of_family(region)
            assert tiered.predict_sweep(outside, CAPS) == (
                teacher_tuner.predict_sweep(outside, CAPS)
            )
        assert tiered.tier_stats()["fallbacks"] == 5
        assert tiered.tier_stats()["micro_hits"] == 0

    def test_mixed_batch_partitions_by_trust(
        self, teacher_tuner, full_regions_by_app, tiered
    ):
        regions = _all_regions(full_regions_by_app)[:4]
        outside = [perturb_out_of_family(region) for region in regions[:2]]
        batch = [regions[0], outside[0], regions[1], outside[1]]
        results = tiered.predict_sweep_many(batch, CAPS)
        assert len(results) == len(batch)
        # Untrusted rows match the tuner exactly, in their batch positions.
        assert results[1] == teacher_tuner.predict_sweep(outside[0], CAPS)
        assert results[3] == teacher_tuner.predict_sweep(outside[1], CAPS)
        # Trusted rows match the micro tier.
        assert results[0] == tiered.micro.predict_sweep(regions[0], CAPS)
        assert results[2] == tiered.micro.predict_sweep(regions[1], CAPS)
        stats = tiered.tier_stats()
        # Only the router ticks counters; the direct micro re-sweeps above
        # bypass it, so exactly the batch's 2 + 2 rows are tallied.
        assert stats["micro_hits"] == 2
        assert stats["fallbacks"] == 2

    def test_mixed_batch_checks_the_gate_once_per_region(
        self, full_regions_by_app, tiered, monkeypatch
    ):
        regions = _all_regions(full_regions_by_app)[:4]
        batch = [
            regions[0],
            perturb_out_of_family(regions[1]),
            regions[2],
            perturb_out_of_family(regions[3]),
        ]
        checked = []
        gate = MicroRuntime.trusted

        def counting(runtime, region):
            checked.append(region)
            return gate(runtime, region)

        monkeypatch.setattr(MicroRuntime, "trusted", counting)
        tiered.predict_sweep_many(batch, CAPS)
        assert [id(region) for region in checked] == [id(region) for region in batch]

    def test_reset_tier_stats(self, full_regions_by_app, tiered):
        region = _all_regions(full_regions_by_app)[0]
        tiered.predict_sweep(region, CAPS)
        tiered.reset_tier_stats()
        stats = tiered.tier_stats()
        assert stats["micro_hits"] == 0 and stats["fallbacks"] == 0

    def test_factory_wires_the_standard_stack(self, tiered):
        assert isinstance(tiered, TieredPredictor)
        assert isinstance(tiered.micro, MicroRuntime)
        assert isinstance(tiered.fallback, GNNPredictor)
