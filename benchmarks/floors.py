"""Timing floors: each fast path must keep beating the path it replaced.

Eight ratios, each of a fast path against a reference kept in-tree:

* ``forward``, ``train_epoch``, ``cap_sweep`` — the engine against the
  seed implementation (:class:`_ReferenceMode`): one batched GNN forward,
  a full ``train_model`` run, and a 12-cap power-cap sweep over 8 regions
  (``predict_sweep`` against one full forward per candidate).
* ``sweep_many`` — one ``predict_sweep_many`` batch against 16 serial
  ``predict_sweep`` calls on a cold 16-region sweep.
* ``inference_runtime`` — the compiled ``InferenceProgram`` against the
  ``Module`` forward it lowers, on the compute of that cold sweep.
* ``scatter_mp_float32`` — one planned ``RGCNConv`` layer over a
  200k-edge graph at float32 against float64.
* ``scatter_mp_kernel`` — that layer's relation scatters at float32: the
  compiled runtime's ``scatter_rows_sum_into`` against the allocating
  bincount ``scatter_rows_sum`` that autograd runs.
* ``micromodel`` — one warm distilled micro-tier predict against the GNN's
  novel-region path (graph build, collate, encode, head).

A ratio is the reference's best time over the fast path's, both taken
over interleaved rounds so that load drift hits both sides;
``scatter_mp_float32`` and ``micromodel`` take the median of per-round
ratios instead.  The float32 layer is memory-bound and swings with the load
neighbours put on the memory bus, which moves a best-of ratio by more than
the float32 margin over the floor; a micro-tier call is so short that a
slow spell of the host covering only one side moved a ratio of separately
timed sides by up to 2x.  Before timing, ``cap_sweep``,
``sweep_many`` and ``inference_runtime`` check that both sides give the
same answers.  The run prints one line per floor and exits 1 when any
ratio falls below its floor::

    python -m benchmarks.floors

The byte-identity and allocation gates of these paths are deterministic,
so they are tier-1 tests rather than checks here.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Tuple

import numpy as np

from repro.benchsuite.registry import regions_by_application
from repro.core.dataset import DatasetBuilder
from repro.core.measurements import get_measurement_database
from repro.core.model import ModelConfig, PnPModel, _GnnEncoder
from repro.core.training import TrainingConfig, train_model
from repro.core.tuner import PnPTuner
from repro.distill import MicroRuntime, StudentConfig, distill
from repro.nn import _scatter, precision
from repro.nn._scatter import ScatterWorkspace, scatter_rows_sum, scatter_rows_sum_into
from repro.nn.data import GraphDataLoader, build_edge_plan, collate_graphs
from repro.nn.rgcn import RGCNConv
from repro.nn.tensor import Tensor, no_grad

# Deliberately looser than the measured ratios, so that a floor flags a
# fast path losing its edge, not scheduler noise.  ``sweep_many``: both
# sides run the compiled runtime, which removed most of the per-region
# overhead batching used to amortise, so batching wins ≈1.2x on one core
# (one collated plan, one set of BLAS launches) and more where BLAS
# threads.  ``scatter_mp_float32``: a kernel change that re-introduces a
# float64 round trip loses the float32 edge.  ``scatter_mp_kernel``: the
# compiled runtime's kernel must not fall behind the one autograd uses.
# ``micromodel``: if a dense micro predict is no longer clearly faster than
# running the GNN on a fresh region, the tier is dead weight (a warm
# embedding-cache hit is not what the micro tier replaces).
FLOORS = {
    "forward": 1.1,
    "train_epoch": 1.2,
    "cap_sweep": 2.0,
    "sweep_many": 1.1,
    "inference_runtime": 1.1,
    "scatter_mp_float32": 1.15,
    "scatter_mp_kernel": 1.0,
    "micromodel": 2.0,
}

NUM_APPS = 4
EPOCHS = 3
NUM_CAPS = 12
SERVE_REGIONS = 16


def _best_times(
    first: Callable[[], object], second: Callable[[], object], rounds: int
) -> Tuple[float, float]:
    """Best time of each function over ``rounds`` alternating rounds."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, run in enumerate((first, second)):
            start = time.perf_counter()
            run()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def _median_ratio(
    reference: Callable[[], object],
    fast: Callable[[], object],
    rounds: int,
    reference_calls: int = 1,
    fast_calls: int = 1,
) -> float:
    """Median over ``rounds`` of the reference's time per call over the fast
    path's.

    Each round times both back to back, ``*_calls`` calls each, alternating
    which runs first.
    """
    ratios = []
    for index in range(rounds):
        per_call = {}
        sides = ((reference, reference_calls), (fast, fast_calls))
        for side, calls in sides if index % 2 == 0 else sides[::-1]:
            start = time.perf_counter()
            for _ in range(calls):
                side()
            per_call[side] = (time.perf_counter() - start) / calls
        ratios.append(per_call[reference] / per_call[fast])
    return statistics.median(ratios)


class _ReferenceMode:
    """Run a block exactly like the seed: naive kernels, no plans/caching."""

    def __enter__(self) -> "_ReferenceMode":
        self._kernels = _scatter.reference_kernels()
        self._kernels.__enter__()
        self._use_plan = _GnnEncoder.use_edge_plan
        _GnnEncoder.use_edge_plan = False
        self._loader_init = GraphDataLoader.__init__

        def per_epoch_collate_init(loader, samples, **kwargs):
            kwargs["cache_collate"] = False
            self._loader_init(loader, samples, **kwargs)

        GraphDataLoader.__init__ = per_epoch_collate_init
        return self

    def __exit__(self, *exc) -> None:
        GraphDataLoader.__init__ = self._loader_init
        _GnnEncoder.use_edge_plan = self._use_plan
        self._kernels.__exit__(*exc)


def forward(samples, config) -> float:
    """One batched forward pass, with the batch's plan warm across rounds.

    That is the regime of every repeated-batch consumer: the 4-layer stack
    within one pass, repeated label batches.
    """
    batch = collate_graphs([s.sample for s in samples[:64]])
    model = PnPModel(config)
    model.eval()

    def engine() -> None:
        model.encode_pooled(batch)

    def reference() -> None:
        with _ReferenceMode():
            model.encode_pooled(batch)

    engine()  # warm allocator/BLAS and build the plan before timing
    reference()
    engine_s, reference_s = _best_times(engine, reference, rounds=4)
    return reference_s / engine_s


def train_epoch(samples, config) -> float:
    """Full training runs; the two sides' histories are bit-identical."""
    training = TrainingConfig(epochs=EPOCHS, seed=0)

    def engine() -> None:
        train_model(PnPModel(config), samples, training)

    def reference() -> None:
        with _ReferenceMode():
            train_model(PnPModel(config), samples, training)

    engine_s, reference_s = _best_times(engine, reference, rounds=2)
    return reference_s / engine_s


def cap_sweep(tuner, caps) -> float:
    """Per-region power-cap sweep: ``predict_sweep`` vs one forward per cap.

    The reference is the seed's per-candidate path: build the region's
    inference sample at the cap, collate it and run one full ``Module``
    forward, with the embedding cache cleared for each (region, cap).
    """
    regions = tuner.builder.regions()[:8]

    def engine() -> None:
        tuner._embedding_cache.clear()
        for region in regions:
            tuner.predict_sweep(region, caps)

    def reference_label(region, cap) -> int:
        tuner._embedding_cache.clear()  # the seed re-encoded per cap
        sample = tuner.builder.inference_sample(region, power_cap=cap)
        return int(tuner.model.predict(collate_graphs([sample.sample]))[0])

    def reference() -> None:
        with _ReferenceMode():
            for region in regions:
                for cap in caps:
                    reference_label(region, cap)

    engine_labels = [
        [result.label for result in tuner.predict_sweep(region, caps)]
        for region in regions
    ]
    with _ReferenceMode():
        reference_labels = [
            [reference_label(region, cap) for cap in caps] for region in regions
        ]
    if engine_labels != reference_labels:
        raise AssertionError("predict_sweep disagrees with the reference sweep")
    engine_s, reference_s = _best_times(engine, reference, rounds=2)
    return reference_s / engine_s


def sweep_many(tuner, regions, caps) -> float:
    """Cold multi-region sweep: one batched call vs serial ``predict_sweep``.

    The embedding cache is cleared each round, so the batched side pays
    collation and plan construction like a fresh serving replica, as the
    serial loop does per region.
    """

    def serial() -> None:
        tuner._embedding_cache.clear()
        for region in regions:
            tuner.predict_sweep(region, caps)

    def batched() -> None:
        tuner._embedding_cache.clear()
        tuner.predict_sweep_many(regions, caps)

    tuner._embedding_cache.clear()
    batched_results = tuner.predict_sweep_many(regions, caps)
    tuner._embedding_cache.clear()
    if batched_results != [tuner.predict_sweep(region, caps) for region in regions]:
        raise AssertionError("predict_sweep_many disagrees with serial predict_sweep")
    batched_s, serial_s = _best_times(batched, serial, rounds=2)
    return serial_s / batched_s


def inference_runtime(tuner, regions, caps) -> float:
    """Program vs ``Module`` on the compute of the cold multi-region sweep.

    One collated encoder pass over every region plus one dense-head batch
    over every (region, cap) row: the work ``predict_sweep_many`` runs on a
    cache miss, without the bookkeeping both paths share.
    """
    batch = collate_graphs(
        [
            tuner.builder.inference_sample(region, power_cap=caps[0]).sample
            for region in regions
        ]
    )
    aux = np.tile(
        tuner.builder.aux_feature_matrix(regions[0], caps),
        (len(regions), 1),
    )
    model = tuner.model
    program = tuner.compile_inference()

    def run_program() -> None:
        rows = np.repeat(program.encode_pooled(batch), len(caps), axis=0)
        program.predict_from_pooled(rows, aux)

    def run_module() -> None:
        rows = np.repeat(model.encode_pooled(batch), len(caps), axis=0)
        model.predict_from_pooled(rows, aux)

    if model.encode_pooled(batch).tobytes() != program.encode_pooled(batch).tobytes():
        raise AssertionError("program encoding is not bit-identical to the Module's")
    rows = np.repeat(program.encode_pooled(batch), len(caps), axis=0)
    if not np.array_equal(
        program.predict_from_pooled(rows, aux), model.predict_from_pooled(rows, aux)
    ):
        raise AssertionError("program head disagrees with the Module head")
    # The timed sections take milliseconds, so rounds are cheap.
    program_s, module_s = _best_times(run_program, run_module, rounds=8)
    return module_s / program_s


def micromodel(tuner) -> float:
    """Warm micro-tier predict vs the GNN with its embedding cache cleared."""
    region = tuner.builder.regions()[0]
    cap = float(min(tuner.search_space.power_caps))
    student = distill(
        tuner,
        regions_by_app=tuner.builder.regions_by_app,
        config=StudentConfig(per_region=2, epochs=60, seed=0),
    )
    runtime = MicroRuntime(student, tuner)

    def gnn() -> None:
        tuner._embedding_cache.clear()
        tuner.predict_sweep(region, [cap])

    runtime.predict_sweep(region, [cap])  # bind programs, buffers and the head
    tuner.predict_sweep(region, [cap])  # compile outside the timed loop
    return _median_ratio(
        gnn,
        lambda: runtime.predict_sweep(region, [cap]),
        rounds=8,
        reference_calls=10,
        fast_calls=100,
    )


def scatter_mp() -> Tuple[float, float]:
    """float32 vs float64 on a scatter-bound planned layer, then, at float32,
    the runtime scatter kernel vs bincount on that layer's relation scatters.

    The graph is large enough that memory bandwidth on the scatter/gather
    loops, not BLAS, dominates: the regime float32 exists for.
    """
    rng = np.random.default_rng(0)
    num_nodes, num_edges, channels, relations, num_graphs = 40_000, 200_000, 32, 3, 64
    edge_index = rng.integers(0, num_nodes, size=(2, num_edges))
    edge_type = rng.integers(0, relations, size=num_edges)
    batch_vec = np.sort(rng.integers(0, num_graphs, size=num_nodes))
    features = rng.standard_normal((num_nodes, channels))

    runners, plans = {}, {}
    for dtype in ("float64", "float32"):
        with precision.autocast(dtype):
            layer = RGCNConv(
                channels, channels, relations, rng=np.random.default_rng(0)
            )
            layer.eval()
            plan = build_edge_plan(
                edge_index, edge_type, batch_vec, num_nodes, num_graphs, relations
            )
            x = Tensor(features)

        def run(layer=layer, plan=plan, x=x) -> None:
            with no_grad():
                layer(x, edge_index, edge_type, plan=plan)

        run()  # warm the plan's flat scatter-bin caches before timing
        runners[dtype], plans[dtype] = run, plan
    float32_ratio = _median_ratio(runners["float64"], runners["float32"], rounds=16)

    plan = plans["float32"]
    scatters = []
    for relation in range(relations):
        dst = plan.relation_dst[relation]
        segments = plan.scatter_segments(relation)
        scatters.append(
            (
                rng.standard_normal((dst.size, channels)).astype("float32"),
                dst,
                plan.scatter_flat(relation, channels),
                segments,
                np.empty((num_nodes, channels), dtype="float32"),
                ScatterWorkspace.for_rounds(segments.rounds(), channels, "float32"),
            )
        )

    def bincount() -> None:
        for messages, dst, flat, _segments, _out, _workspace in scatters:
            scatter_rows_sum(messages, dst, num_nodes, flat=flat)

    def runtime() -> None:
        for messages, dst, _flat, segments, out, workspace in scatters:
            scatter_rows_sum_into(
                out, messages, dst, segments=segments, workspace=workspace
            )

    runtime()  # warm the schedules' memoised round plans
    bincount_s, runtime_s = _best_times(bincount, runtime, rounds=4)
    return float32_ratio, bincount_s / runtime_s


def _report(name: str, ratio: float) -> bool:
    passed = ratio >= FLOORS[name]
    verdict = "ok" if passed else "FAIL"
    print(f"{name:<19} {ratio:6.2f}x floor {FLOORS[name]:.2f}x {verdict}", flush=True)
    return passed


def main() -> int:
    registry = regions_by_application()
    apps = dict(list(registry.items())[:NUM_APPS])
    regions = [region for app_regions in apps.values() for region in app_regions]
    database = get_measurement_database("haswell", regions=regions, seed=0)
    builder = DatasetBuilder(database, regions_by_app=apps, seed=0)
    samples = builder.performance_samples()
    config = ModelConfig(
        vocabulary_size=len(builder.vocabulary),
        num_classes=database.search_space.num_omp_configurations,
        aux_dim=1,
        seed=0,
    )
    passed = _report("train_epoch", train_epoch(samples, config))
    passed &= _report("forward", forward(samples, config))

    tuner = PnPTuner(
        system="haswell",
        objective="time",
        model_config=config,
        training_config=TrainingConfig(epochs=EPOCHS, seed=0),
        database=database,
        seed=0,
    )
    tuner.builder = builder
    tuner.fit(tuner.build_training_samples())
    power_caps = database.search_space.power_caps
    caps = [float(c) for c in np.linspace(min(power_caps), max(power_caps), NUM_CAPS)]
    # The training suite's regions first, then never-seen ones, which the
    # agreement checks build before any timing.
    serving = [region for rs in registry.values() for region in rs][:SERVE_REGIONS]
    passed &= _report("cap_sweep", cap_sweep(tuner, caps))
    passed &= _report("sweep_many", sweep_many(tuner, serving, caps))
    passed &= _report("inference_runtime", inference_runtime(tuner, serving, caps))
    passed &= _report("micromodel", micromodel(tuner))

    float32_ratio, kernel_ratio = scatter_mp()
    passed &= _report("scatter_mp_float32", float32_ratio)
    passed &= _report("scatter_mp_kernel", kernel_ratio)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
