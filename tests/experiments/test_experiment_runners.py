"""Integration tests of the experiment runners (smoke profile).

These exercise the same code paths as the benchmark harness on a 4-application
subset so that figure regeneration failures are caught by ``pytest tests/``
long before the (much longer) benchmark run.
"""

import pytest

from repro.experiments import (
    fast_profile,
    full_profile,
    run_motivating_example,
    run_power_constrained,
    run_transfer_study,
    smoke_profile,
)
from repro.experiments.power_constrained import DEFAULT, PNP_STATIC
from repro.experiments.reporting import format_per_application_series, format_summary, format_table


class TestProfiles:
    def test_profile_factories(self):
        assert full_profile().loocv is True
        assert fast_profile().loocv is False
        smoke = smoke_profile()
        assert smoke.applications is not None and len(smoke.applications) == 4

    def test_with_overrides(self):
        profile = fast_profile().with_overrides(epochs=3, applications=("gemm",))
        assert profile.epochs == 3 and profile.applications == ("gemm",)
        # The original is unchanged (profiles are frozen).
        assert fast_profile().epochs != 3 or fast_profile().applications is None

    def test_model_and_training_config_derivation(self):
        profile = smoke_profile()
        model_config = profile.model_config(vocabulary_size=100, num_classes=127, aux_dim=1)
        assert model_config.num_rgcn_layers == profile.num_rgcn_layers
        training = profile.training_config("adam")
        assert training.optimizer == "adam"
        assert training.epochs == profile.epochs

    def test_training_config_threads_loop_parameters(self):
        profile = smoke_profile().with_overrides(batch_size=8, learning_rate=0.01, seed=5)
        training = profile.training_config()
        assert training.optimizer == "adamw"
        assert (training.batch_size, training.learning_rate, training.seed) == (8, 0.01, 5)
        with pytest.raises(ValueError):
            profile.with_overrides(batch_size=0).training_config()


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["x", 1.23456], ["yy", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text and "yy" in text

    def test_format_per_application_series_handles_missing(self):
        text = format_per_application_series(
            {"tuner": {"app1": 0.5}}, applications=["app1", "app2"]
        )
        assert "app2" in text and "nan" in text

    def test_format_summary(self):
        assert "metric" in format_summary({"x": 1})


class TestMotivatingExample:
    def test_structure_matches_section1(self):
        result = run_motivating_example("haswell")
        caps = sorted(result.best_speedups)
        assert caps == [40.0, 60.0, 70.0, 85.0]
        speedups = [result.best_speedups[c][1] for c in caps]
        # Deep caps leave the most room for improvement over the default.
        assert speedups[0] == max(speedups)
        assert all(s >= 1.0 for s in speedups)
        assert result.best_edp_greenup > 1.0
        text = result.format()
        assert "min EDP" in text and "40W" in text


@pytest.fixture(scope="module")
def smoke_power_result():
    return run_power_constrained("haswell", smoke_profile())


class TestPowerConstrainedRunner:
    def test_contains_expected_tuners(self, smoke_power_result):
        assert DEFAULT in smoke_power_result.records
        assert PNP_STATIC in smoke_power_result.records
        assert "BLISS" in smoke_power_result.records
        assert "OpenTuner" in smoke_power_result.records

    def test_record_counts(self, smoke_power_result):
        from repro.benchsuite.registry import regions_by_application

        profile = smoke_profile()
        num_regions = sum(
            len(regions)
            for name, regions in regions_by_application().items()
            if name in profile.applications
        )
        for records in smoke_power_result.records.values():
            assert len(records) == num_regions * 4

    def test_default_speedup_is_one(self, smoke_power_result):
        for cap, value in smoke_power_result.geomean_speedups(DEFAULT).items():
            assert value == pytest.approx(1.0, abs=1e-6)

    def test_normalized_speedups_at_most_one(self, smoke_power_result):
        for records in smoke_power_result.records.values():
            for record in records:
                assert record.normalized_speedup <= 1.0 + 1e-9

    def test_figure_and_summary_render(self, smoke_power_result):
        figure = smoke_power_result.format_figure(40.0)
        assert "gemm" in figure and "LULESH" in figure
        summary = smoke_power_result.summary()
        assert any("BLISS" in key for key in summary)


class TestTransferStudy:
    def test_transfer_is_faster_and_sane(self):
        profile = smoke_profile().with_overrides(epochs=3)
        result = run_transfer_study("haswell", "skylake", profile)
        assert result.transfer_training_seconds < result.scratch_training_seconds
        assert 0.0 < result.transfer_geomean_normalized <= 1.0
        assert 0.0 < result.scratch_geomean_normalized <= 1.0
        assert "training speedup" in result.summary()
