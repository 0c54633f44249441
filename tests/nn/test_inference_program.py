"""The autograd-free compiled inference runtime (:mod:`repro.nn.inference`).

The contract under test: ``PnPModel.compile_inference()`` lowers the model
to a flat raw-ndarray program whose outputs are **bit-identical** to the
``Module`` forward — at float64 to the default ``Module``, at float32 to the
``Module`` under :func:`~repro.nn._scatter.reference_kernels` (the program
scatters in index order like ``np.add.at``; the default ``Module``'s
bincount sums float32 through float64) — for every benchsuite region shape
and for batched and single-graph inputs.  ``compile_inference("float32")``
on a float64 model equals the program of a float32 copy of that model,
per-plan buffers are reused safely across interleaved batch sizes, and a
recompiled program follows new weights.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro.benchsuite.codegen import generate_application_module, region_function_name
from repro.benchsuite.registry import regions_by_application
from repro.core.model import ModelConfig, PnPModel
from repro.graphs.encoder import GraphEncoder
from repro.graphs.programl import build_flow_graph
from repro.graphs.vocabulary import build_default_vocabulary
from repro.ir.outline import extract_outlined_regions
from repro.nn._scatter import reference_kernels
from repro.nn.data import collate_graphs
from repro.nn.tensor import Tensor, no_grad

NUM_CLASSES = 7


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


def _module_kernels(dtype: str):
    """Scatter kernels of the ``Module`` run the program must equal bit for bit."""
    return reference_kernels() if dtype == "float32" else contextlib.nullcontext()


class TestBitIdenticalToModule:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_region_shape_single_graph(self, vocabulary, suite_samples, dtype):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        for sample in suite_samples:
            batch = collate_graphs([sample])
            with _module_kernels(dtype):
                module_pooled = model.encode_pooled(batch)
            program_pooled = program.encode_pooled(batch)
            assert program_pooled.dtype == np.dtype(dtype)
            assert module_pooled.tobytes() == program_pooled.tobytes(), sample.region_id

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batched_suite_logits_and_labels(self, vocabulary, suite_samples, dtype):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        for size in (2, 7, len(suite_samples)):
            batch = collate_graphs(suite_samples[:size])
            with no_grad(), _module_kernels(dtype):
                module_logits = model(batch).data
                module_labels = model.predict(batch)
            assert module_logits.tobytes() == program.forward_logits(batch).tobytes()
            assert np.array_equal(module_labels, program.predict(batch))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_head_matches_predict_from_pooled(self, vocabulary, suite_samples, dtype):
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:12])
        pooled = model.encode_pooled(batch)
        rows = np.repeat(pooled, 3, axis=0)
        aux = np.linspace(0.0, 1.0, rows.shape[0])[:, None]
        assert np.array_equal(
            model.predict_from_pooled(rows, aux),
            program.predict_from_pooled(rows, aux),
        )
        with no_grad():
            module_logits = model.head(Tensor(rows, dtype=model.dtype), aux).data
        assert module_logits.tobytes() == program.head_logits(rows, aux).tobytes()

    def test_float32_program_of_float64_model_equals_float32_twins(
        self, vocabulary, suite_samples
    ):
        model = _model(vocabulary, "float64")
        # The reference: a model built at float32 and loaded with the float64
        # weights (Module.load_state_dict rounds each one once).
        cast = PnPModel(replace(model.config, dtype="float32"))
        cast.load_state_dict(model.state_dict())
        program = model.compile_inference("float32")
        reference = cast.compile_inference()
        assert program.dtype == np.float32
        for sample in suite_samples:
            batch = collate_graphs([sample])
            pooled = program.encode_pooled(batch)
            expected = reference.encode_pooled(batch)
            assert pooled.tobytes() == expected.tobytes(), sample.region_id
            logits = program.head_logits(pooled, batch.aux_features).tobytes()
            expected_logits = reference.head_logits(expected, batch.aux_features)
            assert logits == expected_logits.tobytes(), sample.region_id


class TestBufferReuse:
    def test_interleaved_batch_sizes_are_safe(self, vocabulary, suite_samples):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batches = [
            collate_graphs(suite_samples[:1]),
            collate_graphs(suite_samples[:5]),
            collate_graphs(suite_samples[3:4]),
            collate_graphs(suite_samples[:16]),
        ]
        expected = [model.encode_pooled(batch) for batch in batches]
        # Interleave repeatedly: every call must reproduce its own batch's
        # result even though buffers are reused per plan.
        for _ in range(3):
            for batch, want in zip(batches, expected):
                got = program.encode_pooled(batch)
                assert want.tobytes() == got.tobytes()
        assert program.num_bound_plans == len(batches)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_cold_encode_builds_no_flat_bins(self, vocabulary, suite_samples, dtype):
        """Binding a fresh plan never builds the bincount kernel's flat
        (bucket, channel) bins: the runtime scatters in index order."""
        model = _model(vocabulary, dtype)
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:4])
        program.encode_pooled(batch)
        plan = batch.edge_plan(model.config.num_relations, dtype=program.dtype)
        assert program.num_bound_plans == 1
        assert plan._flat_cache == {}

    def test_returned_embedding_is_decoupled_from_buffers(
        self, vocabulary, suite_samples
    ):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch_a = collate_graphs(suite_samples[:2])
        batch_b = collate_graphs(suite_samples[2:4])
        first = program.encode_pooled(batch_a)
        snapshot = first.copy()
        program.encode_pooled(batch_b)
        program.encode_pooled(batch_a)  # rerun over batch_a's own buffers
        assert np.array_equal(first, snapshot)

    def test_bound_plans_released_with_their_batches(self, vocabulary, suite_samples):
        """Buffers die with their plan: the bound thunks must not pin the
        WeakKeyDictionary entry (a long-lived server would otherwise leak a
        buffer pool per fleet composition ever served)."""
        import gc

        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:4])
        program.encode_pooled(batch)
        assert program.num_bound_plans == 1
        del batch
        gc.collect()
        assert program.num_bound_plans == 0

    def test_same_dtype_plans_do_not_share_buffers(self, vocabulary, suite_samples):
        """Two same-shaped batches still bind independent pools (per plan)."""
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch_a = collate_graphs(suite_samples[:3])
        batch_b = collate_graphs(suite_samples[3:6])
        a = program.encode_pooled(batch_a)
        b = program.encode_pooled(batch_b)
        assert program.num_bound_plans == 2
        assert a.tobytes() == model.encode_pooled(batch_a).tobytes()
        assert b.tobytes() == model.encode_pooled(batch_b).tobytes()


class TestProgramStructure:
    def test_flat_step_listing(self, vocabulary):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        listing = program.describe()
        # embedding sum (2 steps) + per layer (conv + activation) + pool + head
        layers = model.config.num_rgcn_layers
        assert len(listing) == 2 + 2 * layers + 1 + 1
        assert listing[0] == "embed = gather(token_ids)"
        assert listing[-2].startswith("pooled = mean_pool(")
        assert listing[-1].startswith("logits = dense_head(")

    def test_plan_arity_mismatch_raises(self, vocabulary, suite_samples):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:2])
        plan = batch.edge_plan(model.config.num_relations + 1)
        from repro.nn.inference import _BoundEncoder

        with pytest.raises(ValueError):
            _BoundEncoder(program.encoder_steps, plan, program.dtype)

    def test_wrong_dtype_plan_raises(self, vocabulary, suite_samples):
        model = _model(vocabulary, "float64")
        program = model.compile_inference()
        batch = collate_graphs(suite_samples[:2])
        plan = batch.edge_plan(model.config.num_relations, dtype=np.float32)
        from repro.nn.inference import _BoundEncoder

        with pytest.raises(ValueError):
            _BoundEncoder(program.encoder_steps, plan, np.dtype(np.float64))


class TestStaleness:
    """A program keeps the arrays it was compiled from; a recompile follows
    new weights.  (The tuner's one staleness check, which recompiles for
    every way of rebinding the weights, is tested in
    ``tests/core/test_engine_inference.py``.)"""

    def test_recompiled_program_follows_new_weights(self, vocabulary, suite_samples):
        model = _model(vocabulary, "float64")
        stale_program = model.compile_inference()
        batch = collate_graphs(suite_samples[:3])
        before = stale_program.encode_pooled(batch)
        twin = _model(vocabulary, "float64", seed=5)
        model.load_state_dict(twin.state_dict())
        fresh_program = model.compile_inference()
        after = fresh_program.encode_pooled(batch)
        assert after.tobytes() == model.encode_pooled(batch).tobytes()
        assert before.tobytes() != after.tobytes()
