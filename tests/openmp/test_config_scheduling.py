"""Tests for OpenMP configurations and the loop-scheduling simulator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.registry import all_regions, get_region
from repro.core.measurements import MeasurementDatabase
from repro.core.search_space import SearchSpace
from repro.hw.machine import Machine
from repro.openmp import execution
from repro.openmp.config import OpenMPConfig, ScheduleKind, default_config
from repro.openmp.region import ImbalancePattern, RegionCharacteristics
from repro.openmp.scheduling import (
    ScheduleOutcome,
    _chunk_costs,
    _chunk_layout,
    _cumulative_costs,
    simulate_schedule,
)

SUITE_REGIONS = {region.region_id: region for region in all_regions()}


def make_region(**overrides):
    base = dict(
        region_id="test/kernel",
        application="test",
        iterations=10_000,
        flops_per_iteration=10.0,
        int_ops_per_iteration=5.0,
        memory_bytes_per_iteration=16.0,
        working_set_bytes=1 << 20,
        reuse_factor=0.5,
    )
    base.update(overrides)
    return RegionCharacteristics(**base)


def reference_schedule(region, config, seed=0):
    """The per-chunk loops ``simulate_schedule`` must match bit for bit.

    Static chunks are added to ``loads[index % threads]`` one by one; each
    dynamic or guided chunk goes to ``loads.argmin()``, the first
    least-loaded thread.  The cost sample is rebuilt, bypassing the memo.
    """
    threads = max(1, config.num_threads)
    iterations = region.iterations
    chunk = config.effective_chunk(iterations)
    num_chunks, sizes = _chunk_layout(config.schedule, iterations, chunk, threads)
    chunk_cost = _chunk_costs(sizes, _cumulative_costs.__wrapped__(region, seed), iterations)
    loads = np.zeros(threads)
    if config.schedule == ScheduleKind.STATIC:
        for index, cost in enumerate(chunk_cost):
            loads[index % threads] += cost
        dispatches = 0
    else:
        for cost in chunk_cost:
            loads[int(loads.argmin())] += cost
        dispatches = num_chunks
    total = loads.sum()
    imbalance = 1.0 if total <= 0 else float(loads.max() / (total / threads))
    return ScheduleOutcome(
        imbalance_factor=max(imbalance, 1.0),
        num_dispatches=dispatches,
        num_chunks=num_chunks,
        chunk_size=chunk,
    )


class TestOpenMPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpenMPConfig(0, ScheduleKind.STATIC, 8)
        with pytest.raises(ValueError):
            OpenMPConfig(4, ScheduleKind.STATIC, 0)

    def test_labels_and_tuples_roundtrip(self):
        config = OpenMPConfig(8, ScheduleKind.DYNAMIC, 64)
        assert config.label() == "t8-dynamic-c64"
        assert OpenMPConfig.from_tuple(config.as_tuple()) == config
        default = default_config(32)
        assert default.label() == "t32-static-cdef"
        assert OpenMPConfig.from_tuple(default.as_tuple()) == default

    def test_effective_chunk(self):
        assert OpenMPConfig(4, ScheduleKind.STATIC, None).effective_chunk(100) == 25
        assert OpenMPConfig(4, ScheduleKind.DYNAMIC, None).effective_chunk(100) == 1
        assert OpenMPConfig(4, ScheduleKind.DYNAMIC, 512).effective_chunk(100) == 100

    def test_schedule_from_string(self):
        assert ScheduleKind.from_string(" GUIDED ") == ScheduleKind.GUIDED
        with pytest.raises(ValueError):
            ScheduleKind.from_string("auto")

    def test_default_config_validation(self):
        with pytest.raises(ValueError):
            default_config(0)


class TestScheduleSimulation:
    def test_uniform_static_is_balanced(self):
        # Only chunk-quantisation imbalance remains (10,000 iterations in 64-
        # iteration chunks over 8 threads -> at most one extra chunk per thread).
        outcome = simulate_schedule(make_region(), OpenMPConfig(8, ScheduleKind.STATIC, 64))
        assert outcome.imbalance_factor == pytest.approx(1.0, abs=0.06)
        assert outcome.num_dispatches == 0

    def test_linear_imbalance_hurts_static_block_schedules(self):
        region = make_region(iteration_cost_cv=0.5, imbalance_pattern=ImbalancePattern.LINEAR)
        # Default static: one contiguous block per thread -> strong imbalance.
        static = simulate_schedule(region, OpenMPConfig(8, ScheduleKind.STATIC, None))
        dynamic = simulate_schedule(region, OpenMPConfig(8, ScheduleKind.DYNAMIC, 8))
        assert static.imbalance_factor > 1.2
        assert dynamic.imbalance_factor < static.imbalance_factor

    def test_dynamic_dispatch_count_matches_chunks(self):
        region = make_region(iterations=1000)
        outcome = simulate_schedule(region, OpenMPConfig(4, ScheduleKind.DYNAMIC, 10))
        assert outcome.num_chunks == 100
        assert outcome.num_dispatches == 100

    def test_huge_iteration_counts_are_aggregated_but_counted(self):
        region = make_region(iterations=5_000_000)
        outcome = simulate_schedule(region, OpenMPConfig(16, ScheduleKind.DYNAMIC, 1))
        assert outcome.num_dispatches == 5_000_000
        assert outcome.imbalance_factor >= 1.0

    def test_guided_produces_fewer_chunks_than_dynamic(self):
        region = make_region(iterations=100_000)
        guided = simulate_schedule(region, OpenMPConfig(8, ScheduleKind.GUIDED, 8))
        dynamic = simulate_schedule(region, OpenMPConfig(8, ScheduleKind.DYNAMIC, 8))
        assert guided.num_chunks < dynamic.num_chunks

    def test_deterministic_for_random_pattern(self):
        region = make_region(iteration_cost_cv=0.4, imbalance_pattern=ImbalancePattern.RANDOM)
        config = OpenMPConfig(8, ScheduleKind.STATIC, 32)
        a = simulate_schedule(region, config, seed=1)
        b = simulate_schedule(region, config, seed=1)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(
        threads=st.sampled_from([1, 2, 4, 8, 16, 32]),
        schedule=st.sampled_from(list(ScheduleKind)),
        chunk=st.sampled_from([1, 8, 32, 64, 128, 256, 512]),
        iterations=st.integers(min_value=64, max_value=2_000_000),
        cv=st.floats(min_value=0.0, max_value=1.0),
        pattern=st.sampled_from(list(ImbalancePattern)),
    )
    def test_invariants(self, threads, schedule, chunk, iterations, cv, pattern):
        region = make_region(iterations=iterations, iteration_cost_cv=cv, imbalance_pattern=pattern)
        config = OpenMPConfig(threads, schedule, chunk)
        outcome = simulate_schedule(region, config)
        assert outcome == reference_schedule(region, config)
        assert outcome.imbalance_factor >= 1.0
        # A single thread is always perfectly "balanced".
        if threads == 1:
            assert outcome.imbalance_factor == pytest.approx(1.0, abs=1e-6)
        assert outcome.num_chunks >= 1
        if schedule == ScheduleKind.STATIC:
            assert outcome.num_dispatches == 0
        else:
            assert outcome.num_dispatches == outcome.num_chunks
        assert outcome.chunk_size >= 1

    @settings(max_examples=100, deadline=None)
    @given(
        iterations=st.integers(min_value=1, max_value=50_000_000),
        chunk=st.integers(min_value=1, max_value=512),
        threads=st.integers(min_value=1, max_value=64),
    )
    def test_guided_layout_matches_float_ceiling(self, iterations, chunk, threads):
        sizes, remaining = [], iterations
        while remaining > 0:
            size = min(max(chunk, int(np.ceil(remaining / threads))), remaining)
            sizes.append(size)
            remaining -= size
        num_chunks, layout = _chunk_layout(ScheduleKind.GUIDED, iterations, chunk, threads)
        assert num_chunks == len(sizes)
        assert layout.tolist() == sizes


class TestScheduleExactness:
    """The fast scheduler equals the per-chunk reference loops exactly."""

    @pytest.mark.parametrize("region_id", sorted(SUITE_REGIONS))
    def test_suite_regions_match_reference(self, region_id):
        region = SUITE_REGIONS[region_id]
        for threads, schedule, chunk in itertools.product(
            [1, 8, 32], list(ScheduleKind), [None, 1, 256]
        ):
            config = OpenMPConfig(threads, schedule, chunk)
            expected = reference_schedule(region, config)
            assert simulate_schedule(region, config) == expected, config.label()

    def test_database_sweep_matches_reference(self, small_regions_by_app, monkeypatch):
        regions = [region for group in small_regions_by_app.values() for region in group]

        def sweep():
            database = MeasurementDatabase(
                Machine.named("haswell", seed=0), SearchSpace("haswell"), regions
            )
            return [
                result
                for region in regions
                for cap in database.search_space.power_caps
                for result in database.sweep_region(region.region_id, cap)
            ]

        fast = sweep()
        monkeypatch.setattr(execution, "simulate_schedule", reference_schedule)
        reference = sweep()
        assert len(fast) == len(regions) * 4 * 127
        assert fast == reference


class TestRegionCharacteristics:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_region(iterations=0)
        with pytest.raises(ValueError):
            make_region(reuse_factor=0.0)
        with pytest.raises(ValueError):
            make_region(serial_fraction=1.0)
        with pytest.raises(ValueError):
            make_region(flops_per_iteration=0.0, int_ops_per_iteration=0.0)

    def test_derived_quantities(self):
        region = make_region(serial_fraction=0.2)
        assert region.ops_per_iteration() == pytest.approx(12.5)
        assert region.parallel_ops() == pytest.approx(125_000.0)
        assert region.serial_ops() == pytest.approx(region.parallel_ops() * 0.25)
        assert region.total_ops() == pytest.approx(region.parallel_ops() + region.serial_ops())
        assert region.arithmetic_intensity() == pytest.approx(10.0 / 16.0)

    def test_dram_traffic_fraction_monotone_in_working_set(self):
        small = make_region(working_set_bytes=1 << 20).dram_traffic_fraction(20 * 2**20)
        large = make_region(working_set_bytes=1 << 30).dram_traffic_fraction(20 * 2**20)
        assert 0.0 < small < large <= 1.0

    def test_with_iterations_copy(self):
        region = make_region()
        scaled = region.with_iterations(123)
        assert scaled.iterations == 123 and region.iterations == 10_000

    def test_real_suite_region_lookup(self):
        region = get_region("trisolv/kernel_trisolv")
        assert region.application == "trisolv"
        assert region.summary()["iterations"] > 0
