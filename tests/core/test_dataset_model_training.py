"""Tests for dataset construction, the PnP model, training, and transfer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.dataset import DatasetBuilder, TuningScenario
from repro.core.model import ModelConfig, PnPModel
from repro.core.training import (
    GroupedApplicationKFold,
    LeaveOneApplicationOut,
    TrainingConfig,
    predict_labels,
    run_cross_validation,
    train_model,
)
from repro.core.transfer import extract_gnn_weights, freeze_gnn_parameters, transfer_gnn_weights
from repro.nn import functional as F
from repro.nn.data import collate_graphs
from repro.nn.losses import CrossEntropyLoss


def tiny_model_config(builder, scenario=TuningScenario.PERFORMANCE, include_counters=False, num_classes=None):
    space = builder.search_space
    if num_classes is None:
        num_classes = (
            space.num_omp_configurations
            if scenario == TuningScenario.PERFORMANCE
            else space.num_joint_configurations
        )
    return ModelConfig(
        vocabulary_size=len(builder.vocabulary),
        num_classes=num_classes,
        aux_dim=builder.aux_feature_dim(scenario, include_counters),
        embedding_dim=16,
        hidden_dim=16,
        dense_hidden_dim=32,
        num_rgcn_layers=2,
        seed=0,
    )


class TestDatasetBuilder:
    def test_performance_samples_shape(self, small_builder):
        samples = small_builder.performance_samples(include_counters=False)
        regions = small_builder.regions()
        caps = small_builder.search_space.power_caps
        assert len(samples) == len(regions) * len(caps)
        sample = samples[0]
        assert sample.scenario == TuningScenario.PERFORMANCE
        assert sample.power_cap in caps
        assert 0 <= sample.label < small_builder.search_space.num_omp_configurations
        assert sample.sample.aux_features.shape == (1,)
        assert sample.sample.target_distribution is not None
        assert sample.sample.target_distribution.shape == (127,)

    def test_dynamic_variant_has_counter_features(self, small_builder):
        samples = small_builder.performance_samples(include_counters=True)
        assert samples[0].sample.aux_features.shape == (6,)

    def test_soft_target_peaks_at_label(self, small_builder):
        samples = small_builder.performance_samples(include_counters=False)
        for sample in samples[:10]:
            assert int(np.argmax(sample.sample.target_distribution)) == sample.label

    def test_edp_samples_shape(self, small_builder):
        samples = small_builder.edp_samples()
        assert len(samples) == len(small_builder.regions())
        assert all(s.power_cap is None for s in samples)
        assert all(
            0 <= s.label < small_builder.search_space.num_joint_configurations for s in samples
        )
        assert samples[0].sample.target_distribution.shape == (508,)

    def test_soft_targets_can_be_disabled(self, small_database, small_regions_by_app):
        builder = DatasetBuilder(
            small_database, regions_by_app=small_regions_by_app, soft_target_temperature=None
        )
        samples = builder.performance_samples(power_caps=[40.0])
        assert samples[0].sample.target_distribution is None

    def test_region_graphs_cover_all_regions(self, small_builder):
        graphs = small_builder.region_graphs()
        assert set(graphs) == {r.region_id for r in small_builder.regions()}

    def test_inference_sample_for_known_and_new_power_cap(self, small_builder):
        region = small_builder.regions()[0]
        sample = small_builder.inference_sample(region, power_cap=60.0)
        assert sample.label == -1
        with pytest.raises(ValueError):
            small_builder.inference_sample(region, power_cap=None)


class TestPnPModel:
    def test_forward_and_predict_shapes(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        batch = collate_graphs([s.sample for s in samples[:5]])
        model = PnPModel(tiny_model_config(small_builder))
        logits = model(batch)
        assert logits.shape == (5, 127)
        predictions = model.predict(batch)
        assert predictions.shape == (5,)
        probabilities = model.predict_proba(batch)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5))

    def test_table2_structure(self, small_builder):
        model = PnPModel(tiny_model_config(small_builder))
        description = model.describe()
        assert description["dense_layers"] == 3
        assert "leaky_relu (GNN)" in description["activations"][0]
        # GNN encoder parameters are addressable by prefix (transfer learning).
        assert any(name.startswith("gnn.") for name in model.state_dict())
        assert any(name.startswith("head.") for name in model.state_dict())

    def test_missing_aux_features_rejected(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        bare = [s.sample for s in samples[:2]]
        for sample in bare:
            sample.aux_features = None
        batch = collate_graphs(bare)
        model = PnPModel(tiny_model_config(small_builder))
        with pytest.raises(ValueError):
            model(batch)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ModelConfig(vocabulary_size=0, num_classes=5)
        with pytest.raises(ValueError):
            ModelConfig(vocabulary_size=10, num_classes=5, num_rgcn_layers=0)


class TestTraining:
    def test_loss_decreases(self, small_builder):
        samples = small_builder.performance_samples(include_counters=False)
        model = PnPModel(tiny_model_config(small_builder))
        history = train_model(model, samples, TrainingConfig(epochs=4, learning_rate=3e-3, seed=0))
        assert len(history.losses) == 4
        assert history.losses[-1] < history.losses[0]

    def test_training_is_seed_deterministic(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        config = TrainingConfig(epochs=2, seed=5)
        model_a = PnPModel(tiny_model_config(small_builder))
        model_b = PnPModel(tiny_model_config(small_builder))
        train_model(model_a, samples, config)
        train_model(model_b, samples, config)
        np.testing.assert_allclose(
            predict_labels(model_a, samples), predict_labels(model_b, samples)
        )

    def test_soft_targets_drive_the_loss_when_present(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        config = replace(tiny_model_config(small_builder), dropout=0.0)
        history = train_model(
            PnPModel(config),
            samples,
            TrainingConfig(epochs=1, batch_size=len(samples), seed=0),
        )
        # One batch per epoch: the recorded loss is the untrained model's.
        batch = collate_graphs([s.sample for s in samples])
        assert batch.target_distributions is not None
        logits = PnPModel(config)(batch)
        soft = F.soft_cross_entropy(logits, batch.target_distributions).item()
        hard = CrossEntropyLoss()(logits, batch.labels).item()
        assert history.losses[0] == pytest.approx(soft, rel=1e-9)
        assert history.losses[0] != pytest.approx(hard, rel=1e-3)

    def test_empty_dataset_rejected(self, small_builder):
        model = PnPModel(tiny_model_config(small_builder))
        with pytest.raises(ValueError):
            train_model(model, [], TrainingConfig(epochs=1))

    def test_splitters_partition_by_application(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        loocv = LeaveOneApplicationOut()
        folds = list(loocv.split(samples))
        assert len(folds) == len(small_builder.applications())
        for app, train, validation in folds:
            assert all(s.application != app for s in train)
            assert all(s.application == app for s in validation)
            assert len(train) + len(validation) == len(samples)

        grouped = GroupedApplicationKFold(2)
        grouped_folds = list(grouped.split(samples))
        covered = [s.region_id for _, _, val in grouped_folds for s in val]
        assert sorted(covered) == sorted(s.region_id for s in samples)

    def test_run_cross_validation_outputs_all_points(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0, 85.0])
        predictions = run_cross_validation(
            samples,
            model_factory=lambda: PnPModel(tiny_model_config(small_builder)),
            training_config=TrainingConfig(epochs=1, seed=0),
            splitter=GroupedApplicationKFold(2),
        )
        assert len(predictions) == len(samples)
        assert all(0 <= label < 127 for label in predictions.values())


class TestTransfer:
    def test_gnn_weight_roundtrip_preserves_encoder(self, small_builder):
        source = PnPModel(tiny_model_config(small_builder))
        target = PnPModel(tiny_model_config(small_builder, num_classes=64))
        weights = extract_gnn_weights(source)
        loaded = transfer_gnn_weights(weights, target)
        assert loaded == len(weights) > 0
        for name, value in extract_gnn_weights(target).items():
            np.testing.assert_array_equal(value, weights[name])

    def test_transfer_rejects_empty_source(self, small_builder):
        target = PnPModel(tiny_model_config(small_builder))
        with pytest.raises(KeyError):
            transfer_gnn_weights({"head.layers.item0.weight": np.zeros((1, 1))}, target)

    def test_freezing_keeps_gnn_fixed_during_training(self, small_builder):
        samples = small_builder.performance_samples(power_caps=[40.0])
        model = PnPModel(tiny_model_config(small_builder))
        frozen_before = extract_gnn_weights(model)
        dense_params = freeze_gnn_parameters(model)
        assert len(dense_params) > 0
        train_model(model, samples, TrainingConfig(epochs=1, seed=0), parameters=dense_params)
        frozen_after = extract_gnn_weights(model)
        for name in frozen_before:
            np.testing.assert_array_equal(frozen_before[name], frozen_after[name])
