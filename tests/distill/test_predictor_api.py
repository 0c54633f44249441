"""Predictor conformance, run against both implementations.

One canonical signature family — ``predict_sweep_many(regions, caps, *,
dtype=, deadline=)``, with ``predict_sweep`` and ``predict`` derived from it
by the ``Predictor`` base class — implemented by the GNN path and the
tiered router over the micro tier.  These tests drive each implementation
through the same battery: base-class membership, deadline semantics, dtype
overrides, and single-cap/sweep consistency.  The tiered router runs the
battery twice, once per tier: on a region its trust gate admits (the micro
tier answers) and on an out-of-family region (the GNN fallback answers).
"""

import pytest

from repro.distill.generate import perturb_out_of_family
from repro.distill.runtime import MicroRuntime
from repro.serve.predictor import (
    DeadlineExceeded,
    GNNPredictor,
    Predictor,
    TieredPredictor,
    tiered_predictor,
)

CAPS = [60.0, 95.0]


@pytest.fixture(scope="module")
def predictors(teacher_tuner, distilled_model):
    return {
        "gnn": GNNPredictor(teacher_tuner),
        "tiered": tiered_predictor(teacher_tuner, distilled_model),
    }


@pytest.fixture(scope="module")
def region(full_regions_by_app):
    return next(iter(full_regions_by_app.values()))[0]


@pytest.fixture(scope="module")
def served(predictors, region):
    """Case name -> (predictor, the region it answers in that case)."""
    tiered = predictors["tiered"]
    outside = perturb_out_of_family(region)
    # Each tiered case must take the tier it is named for.
    assert tiered.micro.trusted(region)
    assert not tiered.micro.trusted(outside)
    return {
        "gnn": (predictors["gnn"], region),
        "tiered": (tiered, region),
        "fallback": (tiered, outside),
    }


NAMES = ["gnn", "tiered"]
# The predictors above, plus the tiered router answering through its fallback.
CASES = NAMES + ["fallback"]


class TestProtocolMembership:
    @pytest.mark.parametrize("name", NAMES)
    def test_runtime_checkable_instance(self, predictors, name):
        assert isinstance(predictors[name], Predictor)

    def test_classes_cover_the_three_tiers(self, predictors):
        assert isinstance(predictors["gnn"], GNNPredictor)
        assert isinstance(predictors["tiered"], TieredPredictor)
        assert isinstance(predictors["tiered"].micro, MicroRuntime)


class TestSignatures:
    @pytest.mark.parametrize("name", CASES)
    def test_predict_matches_single_cap_sweep(self, served, name):
        predictor, region = served[name]
        assert predictor.predict(region, CAPS[0]) == (
            predictor.predict_sweep(region, [CAPS[0]])[0]
        )

    @pytest.mark.parametrize("name", CASES)
    def test_sweep_many_matches_per_region_sweeps(self, served, name):
        predictor, region = served[name]
        assert predictor.predict_sweep_many([region, region], CAPS) == [
            predictor.predict_sweep(region, CAPS),
            predictor.predict_sweep(region, CAPS),
        ]

    @pytest.mark.parametrize("name", CASES)
    def test_dtype_override_is_accepted(self, served, name):
        predictor, region = served[name]
        results = predictor.predict_sweep(region, CAPS, dtype="float32")
        assert len(results) == len(CAPS)

    def test_gnn_predictor_is_the_tuner_path(self, predictors, teacher_tuner, region):
        assert predictors["gnn"].predict_sweep(region, CAPS) == (
            teacher_tuner.predict_sweep(region, CAPS)
        )
        assert predictors["gnn"].predict_sweep(region, CAPS, dtype="float32") == (
            teacher_tuner.predict_sweep(region, CAPS, dtype="float32")
        )


class TestDeadlines:
    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_deadline_fails_fast(self, served, name, budget):
        predictor, region = served[name]
        with pytest.raises(DeadlineExceeded):
            predictor.predict(region, CAPS[0], deadline=budget)
        with pytest.raises(DeadlineExceeded):
            predictor.predict_sweep(region, CAPS, deadline=budget)
        with pytest.raises(DeadlineExceeded):
            predictor.predict_sweep_many([region], CAPS, deadline=budget)

    @pytest.mark.parametrize("name", CASES)
    def test_generous_deadline_succeeds(self, served, name):
        predictor, region = served[name]
        results = predictor.predict_sweep(region, CAPS, deadline=60.0)
        assert len(results) == len(CAPS)

    def test_deadline_is_keyword_only(self, predictors, region):
        with pytest.raises(TypeError):
            predictors["gnn"].predict_sweep(region, CAPS, None, 60.0)
