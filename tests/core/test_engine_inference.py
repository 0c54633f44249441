"""Equivalence and caching tests for split encoder/head inference.

Covers the engine's inference contract:

* plan-driven encoding is bit-identical to the naive reference encoder;
* ``predict_sweep`` selects exactly the labels of per-candidate reference
  predictions and runs the GNN at most once per region (LRU embedding cache);
* grouped ``predict_labels`` agrees with the seed's chunk-collate loop;
* collate-once training reproduces the seed training history exactly.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import ModelConfig, PnPModel, _GnnEncoder
from repro.core.training import TrainingConfig, predict_labels, train_model
from repro.core.tuner import PnPTuner
from repro.distill.generate import teacher_embeddings
from repro.nn import _scatter
from repro.nn.data import GraphDataLoader, collate_graphs
from repro.nn.inference import InferenceProgram


@pytest.fixture(scope="module")
def fitted_time_tuner(small_database, small_builder, small_regions_by_app):
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
def perf_samples(small_builder):
    return small_builder.performance_samples()


class TestEncodeHeadSplit:
    def test_planned_encoding_bit_identical_to_naive(self, fitted_time_tuner, perf_samples):
        model = fitted_time_tuner.model
        batch = collate_graphs([s.sample for s in perf_samples[:8]])
        planned = model.encode_pooled(batch)
        try:
            _GnnEncoder.use_edge_plan = False
            with _scatter.reference_kernels():
                naive = model.encode_pooled(batch)
        finally:
            _GnnEncoder.use_edge_plan = True
        assert (planned == naive).all()

    def test_forward_equals_encode_then_head(self, fitted_time_tuner, perf_samples):
        model = fitted_time_tuner.model
        model.eval()
        batch = collate_graphs([s.sample for s in perf_samples[:6]])
        from repro.nn.tensor import no_grad

        with no_grad():
            full = model(batch).data
            split = model.head(model.encode(batch), batch.aux_features).data
        assert (full == split).all()

    def test_predict_from_pooled_matches_predict(self, fitted_time_tuner, perf_samples):
        model = fitted_time_tuner.model
        batch = collate_graphs([s.sample for s in perf_samples[:6]])
        direct = model.predict(batch)
        via_split = model.predict_from_pooled(model.encode_pooled(batch), batch.aux_features)
        assert (direct == via_split).all()


class TestPredictSweep:
    def test_matches_per_candidate_reference_predictions(
        self, fitted_time_tuner, small_regions_by_app
    ):
        tuner = fitted_time_tuner
        for app, caps in (
            ("gemm", [40.0, 50.0, 60.0, 70.0, 85.0]),
            ("trisolv", [40.0, 55.0, 70.0, 85.0]),
        ):
            region = small_regions_by_app[app][0]
            tuner._embedding_cache.clear()
            swept = tuner.predict_sweep(region, caps)
            assert [r.power_cap for r in swept] == caps
            # Reference: one full Module forward per candidate, with naive
            # kernels and no edge plan.
            batches = [
                collate_graphs([tuner.builder.inference_sample(region, power_cap=cap).sample])
                for cap in caps
            ]
            try:
                _GnnEncoder.use_edge_plan = False
                with _scatter.reference_kernels():
                    reference_labels = [int(tuner.model.predict(b)[0]) for b in batches]
            finally:
                _GnnEncoder.use_edge_plan = True
            assert [r.label for r in swept] == reference_labels
        tuner._embedding_cache.clear()

    def test_runs_encoder_once_per_region(self, fitted_time_tuner, small_regions_by_app):
        region = small_regions_by_app["atax"][0]
        calls = []
        # Serving is routed through the compiled inference program; count
        # encoder passes there (the Module encoder is no longer on the path).
        program = fitted_time_tuner.compile_inference()
        original = program.encode_pooled
        fitted_time_tuner._embedding_cache.clear()
        program.encode_pooled = lambda batch: (calls.append(1), original(batch))[1]
        try:
            fitted_time_tuner.predict_sweep(region, [40.0, 60.0, 85.0])
            fitted_time_tuner.predict_sweep(region, [45.0, 55.0])
            fitted_time_tuner.predict(region, power_cap=70.0)
        finally:
            program.encode_pooled = original
            fitted_time_tuner._embedding_cache.clear()
        assert len(calls) == 1

    def test_fit_invalidates_embedding_cache(self, small_database, small_builder):
        config = ModelConfig(
            vocabulary_size=len(small_builder.vocabulary),
            num_classes=small_database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=1,
        )
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=config,
            training_config=TrainingConfig(epochs=1, seed=1),
            database=small_database,
            seed=1,
        )
        tuner.builder = small_builder
        samples = tuner.build_training_samples()
        tuner.fit(samples)
        region = small_builder.regions()[0]
        tuner.predict(region, power_cap=60.0)
        assert len(tuner._embedding_cache) == 1
        tuner.fit(samples)
        assert len(tuner._embedding_cache) == 0

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
            tuner.predict_sweep(small_builder.regions()[0], [40.0, 60.0])

    def test_empty_cap_list(self, fitted_time_tuner, small_regions_by_app):
        assert fitted_time_tuner.predict_sweep(small_regions_by_app["gemm"][0], []) == []


class TestInferenceProgramRouting:
    """Serving goes through cached compiled programs, invalidated with the
    weights; the point-predict warm path reuses the fingerprint-keyed
    embedding cache without rebuilding inference samples."""

    def _edp_tuner(self, small_database, small_builder, seed=0):
        tuner = PnPTuner(
            system="haswell",
            objective="edp",
            training_config=TrainingConfig(epochs=1, optimizer="adam", seed=seed),
            database=small_database,
            seed=seed,
        )
        tuner.builder = small_builder
        tuner.fit(tuner.build_training_samples())
        return tuner

    def test_program_cached_and_reused(self, fitted_time_tuner, small_regions_by_app):
        region = small_regions_by_app["gemm"][0]
        fitted_time_tuner.predict_sweep(region, [40.0, 60.0])
        program = fitted_time_tuner._programs["float64"]
        fitted_time_tuner.predict_sweep(region, [45.0])
        assert fitted_time_tuner._programs["float64"] is program
        assert fitted_time_tuner.compile_inference() is program

    def test_fit_invalidates_program_cache(self, small_database, small_builder):
        tuner = self._edp_tuner(small_database, small_builder)
        region = small_builder.regions()[0]
        tuner.predict(region)
        assert "float64" in tuner._programs
        tuner.fit(tuner.build_training_samples())
        assert tuner._programs == {}

    def test_load_state_dict_invalidates_program_cache(
        self, fitted_time_tuner, small_regions_by_app
    ):
        region = small_regions_by_app["gemm"][0]
        fitted_time_tuner.predict_sweep(region, [40.0])
        stale = fitted_time_tuner._programs["float64"]
        fitted_time_tuner.load_state_dict(fitted_time_tuner.state_dict())
        assert fitted_time_tuner._programs == {}
        fitted_time_tuner.predict_sweep(region, [40.0])
        assert fitted_time_tuner._programs["float64"] is not stale

    def test_direct_model_reload_flushes_serving_caches(
        self, fitted_time_tuner, small_regions_by_app
    ):
        region = small_regions_by_app["atax"][0]
        swept = fitted_time_tuner.predict_sweep(region, [40.0, 60.0])
        fitted_time_tuner.predict_sweep(region, [40.0], dtype="float32")
        stale = fitted_time_tuner._programs["float64"]
        assert len(fitted_time_tuner._embedding_cache) > 0
        # A reload that bypasses the tuner must flush every weights-derived
        # cache on the next query: embeddings, cast models and programs —
        # not just recompile the program (a cached embedding computed with
        # the old encoder must never feed the new head).
        fitted_time_tuner.model.load_state_dict(fitted_time_tuner.model.state_dict())
        again = fitted_time_tuner.predict_sweep(region, [40.0, 60.0])
        assert fitted_time_tuner._programs["float64"] is not stale
        assert "float32" not in fitted_time_tuner._cast_models
        assert [r.label for r in again] == [r.label for r in swept]
        fitted_time_tuner._embedding_cache.clear()

    def test_float32_sweep_compiles_float32_program(
        self, fitted_time_tuner, small_regions_by_app
    ):
        region = small_regions_by_app["gemm"][0]
        fitted_time_tuner.predict_sweep(region, [40.0], dtype="float32")
        program = fitted_time_tuner._programs["float32"]
        assert program.dtype == np.float32

    def test_warm_predict_skips_sample_construction(
        self, small_database, small_builder
    ):
        tuner = self._edp_tuner(small_database, small_builder, seed=2)
        region = small_builder.regions()[1]
        cold = tuner.predict(region)
        calls = []
        original = tuner.builder.inference_sample

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        tuner.builder.inference_sample = counting
        try:
            warm = tuner.predict(region)
        finally:
            tuner.builder.inference_sample = original
        assert calls == []
        assert warm == cold

    def test_changed_region_rebuilds_sample_on_predict(
        self, small_database, small_builder
    ):
        tuner = self._edp_tuner(small_database, small_builder, seed=3)
        region = small_builder.regions()[2]
        tuner.predict(region)
        from dataclasses import replace as dc_replace

        modified = dc_replace(region, nest_depth=region.nest_depth + 1)
        assert modified.fingerprint() != region.fingerprint()
        calls = []
        original = tuner.builder.inference_sample

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        tuner.builder.inference_sample = counting
        try:
            tuner.predict(modified)
        finally:
            tuner.builder.inference_sample = original
        assert calls == [1]
        # Restore the session-scoped builder/database registration.
        tuner.builder.inference_sample(region, power_cap=60.0)

    def test_training_marks_program_stale(self, small_database, small_builder):
        config = ModelConfig(
            vocabulary_size=len(small_builder.vocabulary),
            num_classes=small_database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=4,
        )
        model = PnPModel(config)
        program = model.compile_inference()
        assert not program.stale()
        train_model(
            model, small_builder.performance_samples()[:16], TrainingConfig(epochs=1, seed=4)
        )
        # The optimizer rebound every parameter array: the pre-training
        # program must report stale so caches recompile.
        assert program.stale()

    def test_counters_predict_rebuilds_sample_on_warm_cache(
        self, small_database, small_builder
    ):
        """The dynamic (counters) variant must not pair a cached embedding
        with counters profiled for a different registration of the id."""
        tuner = PnPTuner(
            system="haswell",
            objective="edp",
            include_counters=True,
            training_config=TrainingConfig(epochs=1, optimizer="adam", seed=5),
            database=small_database,
            seed=5,
        )
        tuner.builder = small_builder
        tuner.fit(tuner.build_training_samples())
        region = small_builder.regions()[0]
        cold = tuner.predict(region)
        calls = []
        original = tuner.builder.inference_sample

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        tuner.builder.inference_sample = counting
        try:
            warm = tuner.predict(region)
        finally:
            tuner.builder.inference_sample = original
        # Warm in the embedding cache, but the sample (and its counters) is
        # rebuilt so the aux row always matches this region version.
        assert calls == [1]
        assert warm == cold

    def test_experiment_labels_run_the_program(
        self, fitted_time_tuner, perf_samples, monkeypatch
    ):
        calls = []
        original = InferenceProgram.encode_pooled

        def counting(program, batch):
            calls.append(batch.num_graphs)
            return original(program, batch)

        monkeypatch.setattr(InferenceProgram, "encode_pooled", counting)
        labels = predict_labels(fitted_time_tuner.model, perf_samples[:8])
        # The experiments' path runs the compiled runtime, encoding each of
        # the samples' distinct graphs once.
        distinct = len({s.region_id for s in perf_samples[:8]})
        assert sum(calls) == distinct
        assert len(labels) == 8

    def test_teacher_embeddings_run_the_serving_program(
        self, fitted_time_tuner, small_regions_by_app
    ):
        tuner = fitted_time_tuner
        regions = small_regions_by_app["gemm"] + small_regions_by_app["atax"]
        embeddings = teacher_embeddings(tuner, regions, batch_size=2)
        # Distillation targets equal the Module encoder's at float64...
        cap = float(min(tuner.search_space.power_caps))
        batch = collate_graphs(
            [tuner.builder.inference_sample(r, power_cap=cap).sample for r in regions]
        )
        assert (embeddings == tuner.model.encode_pooled(batch)).all()
        # ...and come from the tuner's cached program at the requested dtype.
        embeddings32 = teacher_embeddings(tuner, regions, dtype="float32")
        assert embeddings32.dtype == np.float32
        assert tuner._programs["float32"] is tuner.compile_inference("float32")

    def test_teacher_embeddings_require_a_fitted_tuner(
        self, small_database, small_builder, small_regions_by_app
    ):
        tuner = PnPTuner(
            system="haswell", objective="time", database=small_database, seed=0
        )
        tuner.builder = small_builder
        with pytest.raises(RuntimeError, match="before fit"):
            teacher_embeddings(tuner, small_regions_by_app["gemm"])


class TestGroupedPredictLabels:
    def test_matches_seed_chunked_prediction(self, fitted_time_tuner, perf_samples):
        model = fitted_time_tuner.model
        grouped = predict_labels(model, perf_samples)
        # The seed implementation: collate 32-sample chunks in order and run
        # the full model on each.
        chunked = np.empty(len(perf_samples), dtype=np.int64)
        for start in range(0, len(perf_samples), 32):
            chunk = perf_samples[start : start + 32]
            chunked[start : start + len(chunk)] = model.predict(
                collate_graphs([s.sample for s in chunk])
            )
        assert (grouped == chunked).all()

    def test_empty_input(self, fitted_time_tuner):
        assert predict_labels(fitted_time_tuner.model, []).size == 0

    def test_follows_the_models_current_weights(self, fitted_time_tuner, perf_samples):
        # Every call compiles from the weights the model holds at that moment.
        fitted = fitted_time_tuner.model
        model = PnPModel(fitted_time_tuner.model_config)
        untrained = predict_labels(model, perf_samples)
        model.load_state_dict(fitted.state_dict())
        reloaded = predict_labels(model, perf_samples)
        assert (reloaded == predict_labels(fitted, perf_samples)).all()
        assert (reloaded != untrained).any()

    def test_float32_labels_match_reference_kernel_module(
        self, fitted_time_tuner, perf_samples
    ):
        model = PnPModel(fitted_time_tuner.model_config)
        model.load_state_dict(fitted_time_tuner.model.state_dict())
        model.astype("float32")
        labels = predict_labels(model, perf_samples)
        with _scatter.reference_kernels():
            reference = np.concatenate(
                [
                    model.predict(collate_graphs([s.sample for s in perf_samples[i : i + 32]]))
                    for i in range(0, len(perf_samples), 32)
                ]
            )
        assert (labels == reference).all()

    def test_region_id_shared_by_different_graphs_rejected(self, fitted_time_tuner, perf_samples):
        first = perf_samples[0]
        other = next(s for s in perf_samples if s.region_id != first.region_id)
        impostor = copy.copy(other.sample)
        impostor.region_id = first.sample.region_id
        mixed = [first, replace(other, sample=impostor, region_id=first.region_id)]
        with pytest.raises(ValueError, match="wrap different graphs"):
            predict_labels(fitted_time_tuner.model, mixed)

    def test_inconsistent_aux_rejected(self, fitted_time_tuner, perf_samples):
        bare = copy.copy(perf_samples[1].sample)
        bare.aux_features = None
        mixed = [perf_samples[0], replace(perf_samples[1], sample=bare)]
        with pytest.raises(ValueError, match="consistently"):
            predict_labels(fitted_time_tuner.model, mixed)


class TestCollateOnceTrainingDeterminism:
    def test_training_history_bit_identical_to_seed_path(self, small_builder, small_database):
        samples = small_builder.performance_samples()[:24]
        config = ModelConfig(
            vocabulary_size=len(small_builder.vocabulary),
            num_classes=small_database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=3,
        )
        training = TrainingConfig(epochs=3, seed=3)

        def run_seed_path():
            model = PnPModel(config)
            original_init = GraphDataLoader.__init__

            def per_epoch_collate(loader, data, **kwargs):
                kwargs["cache_collate"] = False
                original_init(loader, data, **kwargs)

            GraphDataLoader.__init__ = per_epoch_collate
            try:
                _GnnEncoder.use_edge_plan = False
                with _scatter.reference_kernels():
                    history = train_model(model, samples, training)
            finally:
                GraphDataLoader.__init__ = original_init
                _GnnEncoder.use_edge_plan = True
            return history, model

        engine_model = PnPModel(config)
        engine_history = train_model(engine_model, samples, training)
        seed_history, seed_model = run_seed_path()

        assert engine_history.losses == seed_history.losses
        assert engine_history.accuracies == seed_history.accuracies
        engine_state = engine_model.state_dict()
        seed_state = seed_model.state_dict()
        assert all((engine_state[k] == seed_state[k]).all() for k in engine_state)


class TestPrecisionKnobs:
    """dtype= knobs on PnPModel / train_model / predict_sweep."""

    TOL = dict(rtol=5e-4, atol=5e-4)

    def _config(self, small_builder, small_database, **overrides):
        from dataclasses import replace

        base = ModelConfig(
            vocabulary_size=len(small_builder.vocabulary),
            num_classes=small_database.search_space.num_omp_configurations,
            aux_dim=1,
            seed=0,
        )
        return replace(base, **overrides) if overrides else base

    def test_float32_model_trains_and_tracks_float64(self, small_builder, small_database):
        samples = small_builder.performance_samples()[:24]
        training = TrainingConfig(epochs=2, seed=0)
        config64 = self._config(small_builder, small_database)
        config32 = self._config(small_builder, small_database, dtype="float32")
        history64 = train_model(PnPModel(config64), samples, training)
        model32 = PnPModel(config32)
        history32 = train_model(model32, samples, training)
        assert model32.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in model32.parameters())
        np.testing.assert_allclose(history32.losses, history64.losses, **self.TOL)

    def test_training_config_dtype_casts_the_model(self, small_builder, small_database):
        samples = small_builder.performance_samples()[:16]
        model = PnPModel(self._config(small_builder, small_database))
        assert model.dtype == np.float64
        train_model(model, samples, TrainingConfig(epochs=1, seed=0, dtype="float32"))
        assert model.dtype == np.float32

    def test_predict_sweep_dtype_override(self, fitted_time_tuner, small_regions_by_app):
        region = small_regions_by_app["gemm"][0]
        caps = [40.0, 50.0, 60.0, 70.0, 85.0]
        fitted_time_tuner._embedding_cache.clear()
        swept64 = fitted_time_tuner.predict_sweep(region, caps)
        swept32 = fitted_time_tuner.predict_sweep(region, caps, dtype="float32")
        assert [r.power_cap for r in swept32] == caps
        # The cast model serves at float32 end to end...
        cast = fitted_time_tuner._cast_models["float32"]
        assert cast.dtype == np.float32
        cached = fitted_time_tuner._embedding_cache.get(
            (region.region_id, region.fingerprint(), "float32")
        )
        assert cached is not None and cached.dtype == np.float32
        # ...from weights that are exact rounded twins of the fitted model's.
        state64 = fitted_time_tuner.model.state_dict()
        for name, value in cast.state_dict().items():
            assert np.array_equal(value, state64[name].astype(np.float32))
        # Label disagreements can only come from near-ties; logits must agree.
        pooled64 = fitted_time_tuner._embedding_cache.get(
            (region.region_id, region.fingerprint(), "float64")
        )
        np.testing.assert_allclose(
            cached, pooled64.astype(np.float32), rtol=1e-4, atol=1e-4
        )
        labels_agree = [a.label == b.label for a, b in zip(swept64, swept32)]
        assert sum(labels_agree) >= len(caps) - 1

    def test_cast_model_reused_and_invalidated(
        self, small_database, small_builder, small_regions_by_app
    ):
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=self._config(small_builder, small_database),
            training_config=TrainingConfig(epochs=1, seed=0),
            database=small_database,
            seed=0,
        )
        tuner.builder = small_builder
        samples = tuner.build_training_samples()
        tuner.fit(samples)
        region = small_regions_by_app["gemm"][0]
        tuner.predict_sweep(region, [40.0, 60.0], dtype="float32")
        first_cast = tuner._cast_models["float32"]
        tuner.predict_sweep(region, [45.0], dtype="float32")
        assert tuner._cast_models["float32"] is first_cast
        tuner.fit(samples)
        assert tuner._cast_models == {}

    def test_tuner_dtype_argument_builds_float32_model(self, small_database, small_builder):
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=self._config(small_builder, small_database),
            training_config=TrainingConfig(epochs=1, seed=0),
            database=small_database,
            seed=0,
            dtype="float32",
        )
        assert tuner.model.dtype == np.float32
        assert tuner.model_config.dtype == "float32"

    def test_sweep_with_model_dtype_skips_cast(self, fitted_time_tuner, small_regions_by_app):
        region = small_regions_by_app["atax"][0]
        fitted_time_tuner.predict_sweep(region, [40.0], dtype="float64")
        assert "float64" not in fitted_time_tuner._cast_models


class TestInferenceBufferAccounting:
    def test_stats_populate_after_sweeps(self, fitted_time_tuner, small_regions_by_app):
        fitted_time_tuner._embedding_cache.clear()  # a cold sweep
        regions = [rs[0] for rs in small_regions_by_app.values()]
        fitted_time_tuner.predict_sweep_many(regions, [40.0, 60.0])
        stats = fitted_time_tuner.inference_cache_stats()
        assert stats["programs"] >= 1
        # The tuner keeps no batch past the call, so the batch's plan and
        # the arena bound to it are gone (arena sizes of a live plan:
        # tests/nn/test_zero_alloc_inference.py::TestMemoryPlan).
        assert stats["bound_plans"] == 0
        assert stats["arena_bytes"] == 0
        assert stats["head_workspaces"] >= 1
        assert stats["head_bytes"] > 0

    def test_clear_sheds_buffers_and_keeps_predictions(
        self, fitted_time_tuner, small_regions_by_app
    ):
        region = small_regions_by_app["gemm"][0]
        caps = [40.0, 60.0]
        before = [p.label for p in fitted_time_tuner.predict_sweep(region, caps)]
        program = fitted_time_tuner.compile_inference()
        fitted_time_tuner.clear_inference_buffers()
        stats = fitted_time_tuner.inference_cache_stats()
        assert stats["programs"] >= 1  # compiled programs survive the clear
        assert fitted_time_tuner.compile_inference() is program
        assert stats["arena_bytes"] == 0
        assert stats["head_workspaces"] == 0
        fitted_time_tuner._embedding_cache.clear()
        after = [p.label for p in fitted_time_tuner.predict_sweep(region, caps)]
        assert after == before
