"""Tests for the measurement database (oracle sweeps, labels, caching)."""

from dataclasses import replace

import pytest

from repro.core.measurements import MeasurementDatabase, get_measurement_database
from repro.core.search_space import SearchSpace
from repro.hw.machine import Machine
from repro.benchsuite.registry import get_region
from repro.openmp.config import OpenMPConfig, ScheduleKind
from repro.openmp.region import ImbalancePattern


class TestMeasurementDatabase:
    def test_rejects_mismatched_machine_and_space(self):
        machine = Machine.named("haswell")
        with pytest.raises(ValueError):
            MeasurementDatabase(machine, SearchSpace("skylake"), [get_region("gemm/kernel_gemm")])

    def test_measure_caches_trial_zero(self, small_database):
        config = small_database.search_space.default_configuration
        before = small_database.execution_count
        a = small_database.measure("gemm/kernel_gemm", config, 60.0)
        mid = small_database.execution_count
        b = small_database.measure("gemm/kernel_gemm", config, 60.0)
        after = small_database.execution_count
        assert a.time_s == b.time_s
        assert mid == before + 1 or mid == before  # may already be cached by other tests
        assert after == mid

    def test_repeated_trials_are_not_cached(self, small_database):
        config = small_database.search_space.default_configuration
        t1 = small_database.measure("gemm/kernel_gemm", config, 60.0, trial=1)
        t2 = small_database.measure("gemm/kernel_gemm", config, 60.0, trial=2)
        assert t1.time_s != t2.time_s

    def test_unknown_region_raises(self, small_database):
        with pytest.raises(KeyError):
            small_database.measure("unknown/kernel", small_database.search_space.default_configuration, 60.0)

    def test_best_by_time_beats_or_ties_default(self, small_database):
        for region_id in small_database.region_ids:
            for cap in small_database.search_space.power_caps:
                _, best = small_database.best_by_time(region_id, cap)
                default = small_database.default_result(region_id, cap)
                assert best.time_s <= default.time_s * 1.0001

    def test_best_by_edp_is_global_minimum(self, small_database):
        region_id = "trisolv/kernel_trisolv"
        cap, config, result = small_database.best_by_edp(region_id)
        assert cap in small_database.search_space.power_caps
        # Check against a few arbitrary points.
        for other_cap in small_database.search_space.power_caps:
            default = small_database.default_result(region_id, other_cap)
            assert result.edp <= default.edp * 1.0001

    def test_labels_are_consistent_with_best(self, small_database):
        space = small_database.search_space
        region_id = "atax/kernel_atax"
        label = small_database.label_by_time(region_id, 40.0)
        best_config, _ = small_database.best_by_time(region_id, 40.0)
        assert space.config_from_index(label) == best_config

        edp_label = small_database.label_by_edp(region_id)
        cap, config, _ = small_database.best_by_edp(region_id)
        assert space.joint_from_index(edp_label) == (cap, config)

    def test_sweep_region_covers_all_candidates(self, small_database):
        results = small_database.sweep_region("gemm/kernel_gemm", 70.0)
        assert len(results) == small_database.search_space.num_omp_configurations

    def test_add_region(self, small_database):
        region = get_region("mvt/kernel_mvt")
        small_database.add_region(region)
        assert "mvt/kernel_mvt" in small_database.region_ids
        result = small_database.default_result("mvt/kernel_mvt", 85.0)
        assert result.time_s > 0

    def test_reregistered_region_measures_like_a_fresh_database(self):
        # The engine memoises schedules across caps; a known id re-registered
        # with changed characteristics must not be served the old schedule.
        region = get_region("gemm/kernel_gemm")
        changed = replace(
            region,
            iterations=region.iterations // 50,
            iteration_cost_cv=0.8,
            imbalance_pattern=ImbalancePattern.LINEAR,
        )
        config = OpenMPConfig(8, ScheduleKind.DYNAMIC, 64)

        def database(regions):
            machine = Machine.named("haswell", seed=0)
            return MeasurementDatabase(machine, SearchSpace("haswell"), regions)

        reregistered = database([region])
        reregistered.measure(region.region_id, config, 60.0)
        reregistered.add_region(changed)
        fresh = database([changed])
        assert reregistered.measure(region.region_id, config, 60.0) == fresh.measure(
            region.region_id, config, 60.0
        )


class TestSharedDatabaseFactory:
    def test_same_key_returns_same_instance(self):
        regions = [get_region("gemm/kernel_gemm")]
        a = get_measurement_database("haswell", regions=regions, seed=123)
        b = get_measurement_database("haswell", regions=regions, seed=123)
        assert a is b

    def test_extra_regions_are_added_to_existing_instance(self):
        a = get_measurement_database("haswell", regions=[get_region("gemm/kernel_gemm")], seed=321)
        b = get_measurement_database("haswell", regions=[get_region("atax/kernel_atax")], seed=321)
        assert a is b
        assert "atax/kernel_atax" in a.region_ids
