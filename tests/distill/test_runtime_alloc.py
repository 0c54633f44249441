"""The micro tier's warm path: zero numpy allocations, shared cache accounting,
and answers that follow the host tuner's current weights.

Same probes the GNN zero-alloc suite uses (``tests/nn/test_zero_alloc_inference``):
the tracemalloc *peak* over one warm predict stays under a small ceiling
(numpy array allocations are kilobytes; bookkeeping is bytes), and a
numpy-data-domain snapshot diff across many warm predicts retains **zero**
array blocks.  On top of that, the runtime's buffers must be visible to —
and shed by — the host tuner's cache controls, so a serving node's
``"clear"`` covers both tiers.  And the head the runtime scores with is the
tuner's current one: weights rebound on ``tuner.model`` reach the very next
micro answer.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.tuner import PnPTuner
from repro.distill.runtime import MicroRuntime
from repro.serve.predictor import tiered_predictor

#: Peak ceiling for one warm micro predict: generous against Python-object
#: noise (result lists, TuningResult dataclasses) yet far below a single
#: pooled-embedding array (128 × 8 bytes) plus workspace reallocation.
PEAK_CEILING_BYTES = 16_384

CAPS = [60.0, 95.0]


@pytest.fixture()
def runtime(teacher_tuner, distilled_model):
    return MicroRuntime(distilled_model, teacher_tuner)


@pytest.fixture(scope="module")
def region(full_regions_by_app):
    return next(iter(full_regions_by_app.values()))[0]


def _warm_predict_peak_bytes(runtime, region) -> int:
    """Tracemalloc peak over one warm single-region predict (all domains)."""
    runtime.predict_sweep(region, [CAPS[0]])  # ensure buffers are bound
    tracemalloc.start()
    runtime.predict_sweep(region, [CAPS[0]])
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    runtime.predict_sweep(region, [CAPS[0]])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - before


def _retained_numpy_blocks(runtime, region, repeats: int = 32) -> int:
    """Net numpy-data-domain blocks retained across ``repeats`` warm predicts."""
    runtime.predict_sweep(region, [CAPS[0]])
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(repeats):
        runtime.predict_sweep(region, [CAPS[0]])
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    domain = (tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),)
    stats = snapshot.filter_traces(domain).compare_to(
        base.filter_traces(domain), "lineno"
    )
    return sum(max(stat.count_diff, 0) for stat in stats)


class TestZeroAllocation:
    def test_warm_predict_stays_under_peak_ceiling(self, runtime, region):
        peak = _warm_predict_peak_bytes(runtime, region)
        assert peak < PEAK_CEILING_BYTES, (
            f"warm micro predict peaked at {peak} bytes"
        )

    def test_warm_predict_retains_no_numpy_blocks(self, runtime, region):
        assert _retained_numpy_blocks(runtime, region) == 0

    def test_warm_sweep_retains_no_numpy_blocks(self, runtime, region):
        runtime.predict_sweep(region, CAPS)
        tracemalloc.start()
        base = tracemalloc.take_snapshot()
        for _ in range(32):
            runtime.predict_sweep(region, CAPS)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        domain = (tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),)
        stats = snapshot.filter_traces(domain).compare_to(
            base.filter_traces(domain), "lineno"
        )
        assert sum(max(stat.count_diff, 0) for stat in stats) == 0


class TestCacheAccounting:
    def test_micro_buffers_show_up_in_tuner_stats(
        self, teacher_tuner, runtime, region
    ):
        runtime.predict_sweep(region, [CAPS[0]])
        stats = teacher_tuner.inference_cache_stats()
        assert stats["micro_runtimes"] >= 1
        assert stats["micro_programs"] >= 1
        assert stats["micro_workspaces"] >= 1
        assert stats["micro_bytes"] > 0

    def test_clear_inference_buffers_sheds_the_micro_tier(
        self, teacher_tuner, runtime, region
    ):
        runtime.predict_sweep(region, [CAPS[0]])
        teacher_tuner.clear_inference_buffers()
        micro = runtime.buffer_stats()
        assert micro["micro_programs"] == 0
        assert micro["micro_workspaces"] == 0
        assert micro["micro_bytes"] == 0

    def test_cleared_runtime_serves_again(self, runtime, region):
        before = runtime.predict_sweep(region, CAPS)
        runtime.clear_buffers()
        assert runtime.predict_sweep(region, CAPS) == before

    def test_dynamic_tuner_cannot_host_the_micro_tier(self, distilled_model):
        class _Dynamic:
            include_counters = True

        with pytest.raises(ValueError, match="static features"):
            MicroRuntime(distilled_model, _Dynamic())

    def test_tiered_predictor_buffers_are_shed_too(
        self, teacher_tuner, distilled_model, region
    ):
        tiered = tiered_predictor(teacher_tuner, distilled_model)
        tiered.predict(region, CAPS[0])
        teacher_tuner.clear_inference_buffers()
        assert tiered.micro.buffer_stats()["micro_bytes"] == 0
        # And the path still serves identically after the shed.
        assert tiered.predict(region, CAPS[0]) == tiered.micro.predict_sweep(
            region, [CAPS[0]]
        )[0]


class TestWeightRebinding:
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_answers_follow_weights_rebound_on_the_model(
        self, teacher_tuner, distilled_model, region, dtype
    ):
        # A private copy of the teacher: the rebinding must not reach the
        # session fixture.
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=teacher_tuner.model_config,
            training_config=teacher_tuner.training_config,
            database=teacher_tuner.database,
            seed=0,
        )
        tuner.builder = teacher_tuner.builder
        tuner.load_state_dict(teacher_tuner.state_dict())
        runtime = MicroRuntime(distilled_model, tuner)
        assert runtime.trusted(region)
        before = runtime.predict_sweep(region, CAPS, dtype=dtype)
        # Rebind the head behind the tuner's back.  Rolling the last layer's
        # columns by one moves every label up by one.
        last = f"head.layers.item{len(tuner.model.head.layers) - 1}"
        state = tuner.model.state_dict()
        state[f"{last}.weight"] = np.roll(state[f"{last}.weight"], 1, axis=1)
        state[f"{last}.bias"] = np.roll(state[f"{last}.bias"], 1)
        tuner.model.load_state_dict(state)
        after = runtime.predict_sweep(region, CAPS, dtype=dtype)
        fresh = MicroRuntime(distilled_model, tuner)
        assert after == fresh.predict_sweep(region, CAPS, dtype=dtype)
        assert [r.label for r in after] != [r.label for r in before]
