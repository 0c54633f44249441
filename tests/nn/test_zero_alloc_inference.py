"""The zero-allocation serving hot path (index-ordered scatter + arena plan).

The contract under test: a warm ``predict`` through the compiled
:class:`InferenceProgram` allocates no numpy array — every intermediate
lands in the memory plan's arena slabs or a head workspace — while its
scatter kernel stays bit-identical to ``np.add.at`` at float64 and float32
(and to the autograd path's bincount kernel at float64).

Allocation is asserted through the tracemalloc *peak* of a single warm
call: transient buffers are freed before any snapshot could see them, so
the peak is the only sound external probe.  The warm path's residual is a
few hundred bytes of Python view objects per kernel step; one whole-array
temporary at suite-region scale is tens of KB, so the ceiling separates
the two by an order of magnitude (a canary test keeps the probe honest).
A numpy data-domain snapshot diff additionally guards against buffers
*retained* across calls (leaks).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.benchsuite.codegen import generate_application_module, region_function_name
from repro.benchsuite.registry import regions_by_application
from repro.core.model import ModelConfig, PnPModel
from repro.graphs.encoder import GraphEncoder
from repro.graphs.programl import build_flow_graph
from repro.graphs.vocabulary import build_default_vocabulary
from repro.ir.outline import extract_outlined_regions
from repro.nn import inference
from repro.nn._scatter import (
    ScatterWorkspace,
    build_segment_schedule,
    scatter_rows_sum,
    scatter_rows_sum_into,
)
from repro.nn.data import collate_graphs

NUM_CLASSES = 7

#: Tracemalloc-peak ceiling for one warm single-region predict: well above
#: the ~5 KB Python view-object churn, well below the smallest whole-array
#: temporary a reintroduced numpy fallback would buffer at region scale.
PEAK_CEILING_BYTES = 16_384

#: The batched (all-regions) forward loops over ~68 pooling segments and
#: more relation blocks, so its view churn is larger; still an order of
#: magnitude under the smallest batched-array temporary (~500 KB).
BATCHED_PEAK_CEILING_BYTES = 65_536


@pytest.fixture(scope="module")
def vocabulary():
    return build_default_vocabulary()


@pytest.fixture(scope="module")
def suite_samples(vocabulary):
    """One structural graph sample per benchsuite region (all 68 shapes)."""
    encoder = GraphEncoder(vocabulary)
    rng = np.random.default_rng(0)
    samples = []
    for app, regions in regions_by_application().items():
        module = generate_application_module(app, list(regions), seed=0)
        outlined = extract_outlined_regions(module)
        for region in regions:
            graph = build_flow_graph(
                outlined[region_function_name(region)], name=region.region_id
            )
            samples.append(
                encoder.encode(
                    graph,
                    label=-1,
                    aux_features=rng.random(1),
                    region_id=region.region_id,
                )
            )
    return samples


def _model(vocabulary, dtype: str, seed: int = 0) -> PnPModel:
    config = ModelConfig(
        vocabulary_size=len(vocabulary),
        num_classes=NUM_CLASSES,
        aux_dim=1,
        seed=seed,
        dtype=dtype,
    )
    model = PnPModel(config)
    model.eval()
    return model


def _warm_predict_peak_bytes(program, batch) -> int:
    """Tracemalloc peak over one warm ``predict`` (all domains)."""
    gc.collect()
    tracemalloc.start()
    program.predict(batch)  # warm under tracing
    gc.collect()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    program.predict(batch)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - before


def _numpy_blocks_retained(program, batches, reps: int = 3) -> int:
    """Net numpy data-domain blocks retained across warm predicts."""
    for batch in batches:
        program.predict(batch)
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(reps):
        for batch in batches:
            program.predict(batch)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    domain = (tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),)
    stats = snapshot.filter_traces(domain).compare_to(
        base.filter_traces(domain), "lineno"
    )
    return sum(max(stat.count_diff, 0) for stat in stats)


class TestZeroAllocationWarmPredict:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_region_shape_stays_under_peak_ceiling(
        self, vocabulary, suite_samples, dtype
    ):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        for sample in suite_samples:
            batch = collate_graphs([sample])
            peak = _warm_predict_peak_bytes(program, batch)
            assert peak < PEAK_CEILING_BYTES, (
                f"{sample.region_id}: warm predict peaked at {peak} bytes"
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batched_predict_stays_under_peak_ceiling(
        self, vocabulary, suite_samples, dtype
    ):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        batch = collate_graphs(suite_samples)
        peak = _warm_predict_peak_bytes(program, batch)
        assert peak < BATCHED_PEAK_CEILING_BYTES

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_no_numpy_blocks_retained(self, vocabulary, suite_samples, dtype):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        batches = [collate_graphs([s]) for s in suite_samples[:8]]
        batches.append(collate_graphs(suite_samples))
        assert _numpy_blocks_retained(program, batches) == 0

    def test_peak_probe_detects_allocating_backend(
        self, vocabulary, suite_samples, monkeypatch
    ):
        """Canary: the same probe sees an allocating scatter's temporaries."""
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        biggest = max(
            suite_samples, key=lambda s: collate_graphs([s]).node_types.shape[0]
        )
        batch = collate_graphs([biggest])
        lean = _warm_predict_peak_bytes(program, batch)

        def allocating_scatter(out, data, index, segments=None, workspace=None):
            out[...] = scatter_rows_sum(data, index, out.shape[0])
            return out

        monkeypatch.setattr(inference, "scatter_rows_sum_into", allocating_scatter)
        fat = _warm_predict_peak_bytes(model.compile_inference(), batch)
        assert fat > 4 * max(lean, 1)
        assert fat > PEAK_CEILING_BYTES  # a real temporary trips the ceiling


def _random_cases(rng):
    # (num_rows, dim_size, channels) spanning both sub-kernels: many short
    # segments (rounds path), few long segments (reduce path), singletons,
    # a single bucket, and the empty scatter.
    shapes = [
        (0, 5, 4),
        (1, 1, 3),
        (7, 3, 8),
        (100, 100, 16),
        (257, 1, 32),
        (1000, 7, 8),
        (5000, 4000, 32),
        (300, 2, 64),
    ]
    for num_rows, dim_size, channels in shapes:
        if num_rows:
            index = rng.integers(0, dim_size, size=num_rows).astype(np.intp)
        else:
            index = np.empty(0, dtype=np.intp)
        yield index, dim_size, channels


class TestBackendEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("presorted", [False, True])
    def test_scatter_into_bitwise_matches_add_at(self, dtype, presorted):
        rng = np.random.default_rng(0)
        for index, dim_size, channels in _random_cases(rng):
            if presorted:
                index = np.sort(index)
            data = rng.standard_normal((index.size, channels)).astype(dtype)
            segments = build_segment_schedule(index)
            reference = np.zeros((dim_size, channels), dtype=dtype)
            np.add.at(reference, index, data)
            out = np.full((dim_size, channels), np.nan, dtype=dtype)
            result = scatter_rows_sum_into(out, data, index, segments=segments)
            assert result is out
            assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_caller_workspace_matches_auto_workspace(self, dtype):
        rng = np.random.default_rng(1)
        index = rng.integers(0, 50, size=400).astype(np.intp)
        data = rng.standard_normal((400, 16)).astype(dtype)
        segments = build_segment_schedule(index)
        auto = np.empty((50, 16), dtype=dtype)
        scatter_rows_sum_into(auto, data, index, segments=segments)
        workspace = ScatterWorkspace.for_rounds(segments.rounds(), 16, dtype)
        owned = np.empty((50, 16), dtype=dtype)
        scatter_rows_sum_into(owned, data, index, segments=segments, workspace=workspace)
        assert owned.tobytes() == auto.tobytes()

    def test_float64_bitwise_identical_across_all_backends(self):
        rng = np.random.default_rng(3)
        index = rng.integers(0, 80, size=600).astype(np.intp)
        data = rng.standard_normal((600, 12))
        reference = np.zeros((80, 12))
        np.add.at(reference, index, data)
        out = np.empty((80, 12))
        scatter_rows_sum_into(out, data, index, segments=build_segment_schedule(index))
        bincount = scatter_rows_sum(data, index, 80)
        assert bincount.tobytes() == out.tobytes() == reference.tobytes()

    def test_non_float_and_1d_fall_back_to_add_at(self):
        rng = np.random.default_rng(4)
        index = rng.integers(0, 10, size=100).astype(np.intp)
        ints = rng.integers(0, 100, size=(100, 4)).astype(np.int64)
        segments = build_segment_schedule(index)
        reference = np.zeros((10, 4), dtype=np.int64)
        np.add.at(reference, index, ints)
        out = np.empty((10, 4), dtype=np.int64)
        scatter_rows_sum_into(out, ints, index, segments=segments)
        assert (out == reference).all()
        flat = rng.standard_normal(100)
        ref1d = np.zeros(10)
        np.add.at(ref1d, index, flat)
        out1d = np.empty(10)
        scatter_rows_sum_into(out1d, flat, index)
        assert out1d.tobytes() == ref1d.tobytes()


class TestSchedules:
    def test_workspace_shape_has_pad_row(self):
        index = np.array([0, 0, 1, 2, 2, 2], dtype=np.intp)
        rounds = build_segment_schedule(index).rounds()
        workspace = ScatterWorkspace.for_rounds(rounds, 5, np.float32)
        assert workspace.gathered.shape == (rounds.num_rows + 1, 5)
        assert workspace.nbytes == workspace.gathered.nbytes

    def test_take_index_is_memoised_per_dim_size(self):
        index = np.array([3, 1, 1, 4], dtype=np.intp)
        rounds = build_segment_schedule(index).rounds()
        first = rounds.take_index(6)
        assert first is rounds.take_index(6)
        assert first is not rounds.take_index(7)
        # Buckets point at their segment slot; missing rows at the pad row.
        assert first[1] != rounds.num_segments
        assert first[0] == rounds.num_segments

    def test_presorted_flag(self):
        sorted_index = np.array([0, 0, 1, 3], dtype=np.intp)
        shuffled = np.array([3, 0, 1, 0], dtype=np.intp)
        assert build_segment_schedule(sorted_index).presorted
        assert not build_segment_schedule(shuffled).presorted
        assert build_segment_schedule(np.empty(0, dtype=np.intp)).presorted


class TestMemoryPlan:
    def test_arena_packs_buffers_into_fewer_slabs(self, vocabulary, suite_samples):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:4])  # keep the plan alive:
        program.predict(batch)  # _bound weak-keys on the batch's EdgePlan
        stats = program.buffer_stats()
        assert stats["bound_plans"] == 1
        assert 0 < stats["arena_slabs"] < stats["arena_buffers"]
        assert stats["arena_bytes"] > 0
        assert stats["head_workspaces"] >= 1
        assert stats["head_bytes"] > 0

    def test_clear_buffers_sheds_arenas_and_keeps_results(
        self, vocabulary, suite_samples
    ):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch = collate_graphs([suite_samples[0]])
        before = np.array(program.forward_logits(batch))
        program.clear_buffers()
        stats = program.buffer_stats()
        assert stats["bound_plans"] == 0
        assert stats["arena_bytes"] == 0
        assert stats["head_workspaces"] == 0
        assert np.array_equal(np.array(program.forward_logits(batch)), before)
