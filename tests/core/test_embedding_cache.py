"""LRU eviction: the tuner's embedding cache, its compiled programs, and the
builder's bounded memo of never-seen structures.

The tuner holds two weight-derived caches: the pooled-embedding LRU (keyed
by graph structure and dtype) and the compiled programs, one per serving
dtype (``_programs``).  They have different lifecycles — evicting an
embedding must never invalidate a program (which would force a full weight
re-cast and lowering on the next sweep), while a weight change
(``fit``/``load_state_dict``) must clear both.

Serving memory is bounded by the working set: the builder keeps at most
``NOVEL_REGION_CACHE_SIZE`` never-seen structures and registers no region in
the measurement database, a sweep keeps no batch (nor its arena) past its
return, and an evicted region answers exactly as before.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.core.dataset as dataset
from repro.benchsuite.registry import all_regions
from repro.core.dataset import DatasetBuilder, TuningScenario
from repro.core.measurements import MeasurementDatabase
from repro.core.model import ModelConfig
from repro.core.search_space import SearchSpace
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.distill import perturb_region
from repro.hw.machine import Machine
from repro.utils.caching import LRUCache
from repro.utils.rng import new_rng

CAPS = [45.0, 65.0]


@pytest.fixture()
def tuner(small_database, small_builder):
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
        training_config=TrainingConfig(epochs=1, seed=0),
        database=small_database,
        seed=0,
    )
    tuner.builder = small_builder
    tuner.fit(tuner.build_training_samples())
    return tuner


def _program_arrays(program):
    """The weight arrays a compiled program serves, in lowering order."""
    return [
        getattr(step, name)
        for step in program.encoder_steps + program.head.steps
        for name in ("table", "weight", "root", "bias")
        if getattr(step, name, None) is not None
    ]


class TestEvictionProgramInterplay:
    def test_evicting_float64_embedding_keeps_float32_program(
        self, tuner, small_regions_by_app
    ):
        # Tiny cache so real queries drive evictions.
        tuner._embedding_cache = LRUCache(maxsize=2)
        regions = small_regions_by_app["gemm"] + small_regions_by_app["atax"]
        first = regions[0]
        tuner.predict_sweep(first, CAPS, dtype="float32")
        program = tuner._programs["float32"]
        # Fill the cache with other (float64) regions until the float32
        # embedding of `first` has been evicted.
        for region in regions[:3]:
            tuner.predict_sweep(region, CAPS)
        assert tuner._embedding_key(first, program) not in tuner._embedding_cache
        # The float32 program must survive the eviction and be reused as-is.
        assert tuner._programs["float32"] is program
        swept = tuner.predict_sweep(first, CAPS, dtype="float32")
        assert tuner._programs["float32"] is program
        assert [r.power_cap for r in swept] == CAPS

    def test_eviction_only_reencodes_it_does_not_recompile(
        self, tuner, small_regions_by_app
    ):
        tuner._embedding_cache = LRUCache(maxsize=1)
        region_a = small_regions_by_app["gemm"][0]
        region_b = small_regions_by_app["atax"][0]
        tuner.predict_sweep(region_a, CAPS, dtype="float32")
        program = tuner._programs["float32"]
        values_before = [array.copy() for array in _program_arrays(program)]
        # Alternate regions through a 1-entry cache: every query evicts the
        # other's embedding, but the cast weights never change.
        for _ in range(2):
            tuner.predict_sweep(region_b, CAPS, dtype="float32")
            tuner.predict_sweep(region_a, CAPS, dtype="float32")
        assert tuner._programs["float32"] is program
        for array, value in zip(_program_arrays(program), values_before):
            assert (array == value).all()

    def test_evicted_embedding_is_recomputed_identically(self, tuner, small_regions_by_app):
        tuner._embedding_cache = LRUCache(maxsize=1)
        region_a = small_regions_by_app["gemm"][0]
        region_b = small_regions_by_app["atax"][0]
        tuner.predict_sweep(region_a, CAPS)
        key = tuner._embedding_key(region_a, tuner._programs["float64"])
        first = tuner._embedding_cache.get(key).copy()
        tuner.predict_sweep(region_b, CAPS)  # evicts region_a
        assert key not in tuner._embedding_cache
        tuner.predict_sweep(region_a, CAPS)
        assert (tuner._embedding_cache.get(key) == first).all()

    def test_load_state_dict_clears_embeddings_and_programs(
        self, tuner, small_regions_by_app
    ):
        region = small_regions_by_app["gemm"][0]
        tuner.predict_sweep(region, CAPS)
        tuner.predict_sweep(region, CAPS, dtype="float32")
        assert len(tuner._embedding_cache) == 2
        assert set(tuner._programs) == {"float64", "float32"}
        stale = tuner._programs["float32"]
        tuner.load_state_dict(tuner.state_dict())
        assert len(tuner._embedding_cache) == 0
        assert tuner._programs == {}
        # The next float32 sweep compiles a fresh cast from the new weights.
        tuner.predict_sweep(region, CAPS, dtype="float32")
        assert tuner._programs["float32"] is not stale
        regions = small_regions_by_app["gemm"] + small_regions_by_app["atax"]
        fresh = tuner.predict_sweep_many(regions, CAPS)
        assert fresh == [tuner.predict_sweep(r, CAPS) for r in regions]

    def test_fit_clears_embeddings_and_programs(self, tuner, small_regions_by_app):
        region = small_regions_by_app["gemm"][0]
        samples = tuner.build_training_samples()
        tuner.predict_sweep(region, CAPS, dtype="float32")
        assert len(tuner._embedding_cache) >= 1 and "float32" in tuner._programs
        tuner.fit(samples)
        assert len(tuner._embedding_cache) == 0
        assert tuner._programs == {}


@pytest.fixture(scope="module")
def private_database(small_regions_by_app):
    """A database of its own: these tests register never-seen regions."""
    regions = [r for rs in small_regions_by_app.values() for r in rs]
    return MeasurementDatabase(
        Machine.named("haswell", seed=0), SearchSpace("haswell"), regions
    )


@pytest.fixture(scope="module", params=[False, True], ids=["static", "counters"])
def novel_tuner(request, private_database, small_regions_by_app):
    builder = DatasetBuilder(
        private_database, regions_by_app=small_regions_by_app, seed=0
    )
    config = ModelConfig(
        vocabulary_size=len(builder.vocabulary),
        num_classes=private_database.search_space.num_omp_configurations,
        aux_dim=builder.aux_feature_dim(TuningScenario.PERFORMANCE, request.param),
        seed=0,
    )
    tuner = PnPTuner(
        system="haswell",
        objective="time",
        include_counters=request.param,
        model_config=config,
        training_config=TrainingConfig(epochs=1, seed=0),
        database=private_database,
        seed=0,
    )
    tuner.builder = builder
    return tuner.fit(tuner.build_training_samples())


def _fresh_builder(tuner) -> DatasetBuilder:
    """Give ``tuner`` a new builder, sized by the current capacity constant."""
    tuner.builder = DatasetBuilder(
        tuner.database, regions_by_app=tuner.builder.regions_by_app, seed=0
    )
    return tuner.builder


def _novel_regions(suite, count: int, first_index: int):
    """``count`` never-seen variants of suite regions, ids unique per index."""
    rng = np.random.default_rng(first_index)
    return [
        perturb_region(suite[i % len(suite)], rng, index=first_index + i)
        for i in range(count)
    ]


class TestBoundedNovelState:
    def test_builder_keeps_at_most_capacity_novel_regions(
        self, novel_tuner, monkeypatch
    ):
        monkeypatch.setattr(dataset, "NOVEL_REGION_CACHE_SIZE", 3)
        builder = _fresh_builder(novel_tuner)
        suite_ids = {region.region_id for region in builder.regions()}
        regions = _novel_regions(builder.regions(), 12, first_index=0)
        for start in range(0, len(regions), 4):
            novel_tuner.predict_sweep_many(regions[start : start + 4], CAPS)
        novel_ids = {region.region_id for region in regions}
        # Every per-region container the builder holds, whatever its name.
        for name, container in vars(builder).items():
            if isinstance(container, LRUCache):
                container = container._entries
            if isinstance(container, dict):
                assert len(novel_ids.intersection(container)) <= 3, name
        assert set(builder.region_graphs()) == suite_ids

    def test_failed_first_query_keeps_no_partial_state(self, novel_tuner):
        builder = novel_tuner.builder
        (region,) = _novel_regions(builder.regions(), 1, first_index=300)
        with pytest.raises(ValueError, match="power_cap"):
            builder.inference_sample(region)
        sample = builder.inference_sample(region, power_cap=CAPS[0]).sample
        fresh = _fresh_builder(novel_tuner).inference_sample(region, power_cap=CAPS[0])
        assert pickle.dumps(sample) == pickle.dumps(fresh.sample)

    def test_cold_sweeps_keep_no_arena(self, novel_tuner):
        regions = _novel_regions(novel_tuner.builder.regions(), 16, first_index=100)
        for dtype, share in (("float64", regions[:8]), ("float32", regions[8:])):
            for start in range(0, len(share), 4):
                batch = share[start : start + 4]
                novel_tuner.predict_sweep_many(batch, CAPS, dtype=dtype)
                stats = novel_tuner.inference_cache_stats()
                assert stats["bound_plans"] == 0
                assert stats["arena_bytes"] == 0

    def test_evicted_region_answers_byte_identically(self, novel_tuner, monkeypatch):
        monkeypatch.setattr(dataset, "NOVEL_REGION_CACHE_SIZE", 2)
        builder = _fresh_builder(novel_tuner)
        monkeypatch.setattr(novel_tuner, "_embedding_cache", LRUCache(maxsize=2))
        region, *others = _novel_regions(builder.regions(), 4, first_index=200)
        for dtype in ("float64", "float32"):
            first = novel_tuner.predict_sweep_many([region], CAPS, dtype=dtype)
            novel_tuner.predict_sweep_many(others, CAPS, dtype=dtype)
            # Evicted from both caches: the next query rebuilds everything.
            assert builder.structure_key(region) not in builder._novel_samples
            program = novel_tuner._programs[dtype]
            key = novel_tuner._embedding_key(region, program)
            assert key not in novel_tuner._embedding_cache
            again = novel_tuner.predict_sweep_many([region], CAPS, dtype=dtype)
            assert pickle.dumps(again) == pickle.dumps(first)


def _same_structure_twin(builder, region):
    """A never-registered region with ``region``'s structure key, another
    id and a 64x working set: the same graph, other PAPI counters."""
    key = builder.structure_key(region)
    return next(
        twin
        for twin in (
            replace(
                region,
                region_id=f"{region.region_id}~twin{k}",
                working_set_bytes=region.working_set_bytes * 64,
            )
            for k in range(64)
        )
        if builder.structure_key(twin) == key
    )


class TestStructureMemo:
    def test_memo_hit_on_unregistered_region_answers_like_a_fresh_tuner(
        self, novel_tuner
    ):
        builder = novel_tuner.builder
        (region,) = _novel_regions(builder.regions(), 1, first_index=400)
        twin = _same_structure_twin(builder, region)
        novel_tuner.predict_sweep_many([region], CAPS)
        cache = novel_tuner._embedding_cache
        hits, samples = cache.hits, len(builder._novel_samples)
        served = novel_tuner.predict_sweep_many([twin], CAPS)
        # Answered from the cached embedding: no graph built, no encode.
        assert cache.hits == hits + 1
        assert len(builder._novel_samples) == samples
        assert twin.region_id not in novel_tuner.database.region_ids
        fresh = PnPTuner(
            system="haswell",
            objective="time",
            include_counters=novel_tuner.include_counters,
            model_config=novel_tuner.model_config,
            database=novel_tuner.database,
            seed=0,
        )
        fresh.builder = DatasetBuilder(
            novel_tuner.database, regions_by_app=builder.regions_by_app, seed=0
        )
        fresh.load_state_dict(novel_tuner.state_dict())
        expected = fresh.predict_sweep_many([twin], CAPS)
        assert pickle.dumps(served) == pickle.dumps(expected)

    def test_novel_stream_registers_no_region(self):
        """A 120-call ``tune_novel``-style stream leaves the database holding
        exactly the suite's 68 regions."""
        suite = all_regions()
        database = MeasurementDatabase(
            Machine.named("haswell", seed=0), SearchSpace("haswell"), suite
        )
        builder = DatasetBuilder(database, seed=0)
        config = ModelConfig(
            vocabulary_size=len(builder.vocabulary),
            num_classes=database.search_space.num_omp_configurations,
            aux_dim=1,
            embedding_dim=8,
            hidden_dim=8,
            dense_hidden_dim=16,
            num_rgcn_layers=1,
            seed=0,
        )
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            model_config=config,
            training_config=TrainingConfig(epochs=1, seed=0),
            database=database,
            seed=0,
        )
        tuner.builder = builder
        # Labels for one application only: training cost is beside the point.
        gemm = DatasetBuilder(
            database, regions_by_app={"gemm": builder.regions_by_app["gemm"]}, seed=0
        )
        tuner.fit(gemm.performance_samples())
        caps = list(database.search_space.power_caps)
        rng = new_rng(0, "tune_novel-style stream")
        for call in range(120):
            batch = [
                perturb_region(suite[rng.integers(len(suite))], rng, index=call * 16 + i)
                for i in range(16)
            ]
            tuner.predict_sweep_many(batch, caps)
        assert len(database.region_ids) == 68
        assert set(database.region_ids) == {region.region_id for region in suite}
        assert len(builder._novel_samples) <= dataset.NOVEL_REGION_CACHE_SIZE
