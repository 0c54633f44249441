#!/usr/bin/env python
"""Microbenchmarks for the compiled message-passing engine.

Three before/after comparisons against the seed implementation (retained
in-tree as reference paths and re-enabled via
``repro.nn._scatter.reference_kernels()``):

* ``forward`` — one batched GNN forward pass: naive per-layer relation
  masking vs. the precompiled per-batch :class:`~repro.nn.data.EdgePlan`.
* ``train_epoch`` — a full ``train_model`` run (per-epoch time): per-epoch
  Python collation + naive kernels vs. collate-once re-indexing + plan-driven
  layers + flat-bincount scatter kernels.
* ``cap_sweep`` — the power-cap candidate sweep underlying EDP-style
  tuning: predicting the best configuration for every cap of a dense grid
  on each region (objective='time', where the cap is an auxiliary input): per-candidate full GNN forwards vs.
  ``PnPTuner.predict_sweep`` (one cached graph encoding, all candidates
  batched through the dense head).

A second axis compares **precisions** (``--dtype``): every engine path is
additionally timed with a ``float32`` model (same weights, rounded once —
see :mod:`repro.nn.precision`) against the ``float64`` engine, and a
dedicated ``scatter_mp`` microbenchmark times the EdgePlan message-passing
kernel step (gather → relation matmul → normalise → scatter) on a large
synthetic graph where the scatter/gather bandwidth dominates — plus the
same graph's relation scatters kernel against kernel: the autograd path's
allocating flat-bincount ``scatter_rows_sum`` vs the compiled runtime's
index-ordered ``scatter_rows_sum_into`` on caller-owned buffers.

A third axis covers **fleet serving**:

* ``sweep_many`` — a cold 16-region power-cap sweep: R serial
  ``predict_sweep`` calls vs. one ``predict_sweep_many`` batch (one collated
  encoder pass + one dense-head product for all R×C pairs);
* ``serve_fleet`` — the same multi-region sweep through a 2-node
  :class:`repro.serve.LocalFleet` (the full TCP RPC wire path: registration
  ships the weights once, each node batch-encodes its shard) against the
  in-process serial loop, measuring what the wire costs; results are
  asserted byte-identical before timing, and the JSON records
  ``cpu_count`` because node scaling tracks the machine's available cores
  (single-core containers measure the wire overhead floor);
* ``serve_fleet_churn`` — the self-healing cycle on a 3-node fleet: warm
  steady-state sweeps, the failover sweep that absorbs a killed node, the
  surviving 2-node fleet, the re-admitted fleet after a restart, and one
  rolling weight update — plus the survivors' measured warm-cache hit rate
  and the analytic consistent-hash vs. flat-modulo remap fractions (not
  smoke-gated; recorded for the cross-PR trajectory);
* ``serve_gateway`` — synthetic open-loop single-region traffic through the
  asyncio :class:`repro.serve.Gateway` over a 3-node fleet, driven through
  a churn drill (kill one node mid-load, pause another, resume + restart,
  then kill the whole fleet): per-phase p50/p99 latency and QPS plus the
  gateway's shed/hedge/fallback/breaker counters, with every answered
  request asserted byte-identical to the serial ``predict_sweep`` path (not
  smoke-gated on speed; the byte-identity and liveness assertions are hard
  failures);
* ``serve_chaos`` — sweep latency through a **fixed byte-level fault
  schedule**: a deterministic :class:`repro.serve.FaultPlan` (delay,
  reply/request bit flips, truncation, a hard reset) interposed on one
  node of a 2-node fleet by the :class:`repro.serve.ChaosProxy` MITM.
  Records p50/p99 sweep latency while faults fire and after the fleet
  self-heals, plus the corruption / teardown / re-admission counters from
  both ends of the wire.  Byte-identity of every answered sweep, at least
  one detected corruption, and recovery to all-LIVE are hard failures;
  the latencies are not smoke-gated — they feed the cross-PR trajectory.
* ``serve_micromodel`` — the distilled micro tier (:mod:`repro.distill`)
  against the GNN on the single-region serving shape: warm dense-only
  micro predict p50 vs the GNN's novel-region path (embedding cache
  cleared per call — graph build, collate, encode), the tiered router's
  fallback rate over a half-in-family/half-perturbed population, and the
  micro warm path's allocation probes (tracemalloc peak + retained numpy
  data blocks, same method as ``single_region_alloc``).  Smoke gates: the
  micro tier at least ``MICROMODEL_SMOKE_FLOOR``x faster than the
  novel-region GNN path, out-of-family answers byte-identical to the
  tuner, peak under the ceiling, zero retained blocks.

A fourth axis covers the **autograd-free inference runtime**
(``inference_runtime``): the compiled
:class:`~repro.nn.inference.InferenceProgram` (raw-ndarray kernel steps,
buffers preallocated per edge plan) against the ``Module``/``Tensor``
forward it lowers, on the batched cold multi-region sweep and on a
single-region encoding, at float64 and float32.

Run ``python -m benchmarks.bench_engine`` for the full measurement or with
``--smoke`` for a fast regression check that fails (non-zero exit) when the
engine stops beating the reference paths, the float32 path stops beating
float64 on the scatter-bound microbenchmark, the batched multi-region
sweep stops beating serial per-region sweeps, or the compiled inference
program stops beating the Module forward on the batched cold sweep.
Results are printed as a table and written to
``benchmarks/results/bench_engine.json``; per-axis medians (the cross-PR
perf trajectory) additionally go to the numbered
``benchmarks/results/{BENCH_NAME}.json`` *and* to the stable
``benchmarks/results/BENCH_latest.json`` copy that CI uploads under the
fixed artifact name ``perf-trajectory`` — the artifact name no longer
changes per PR, only the ``bench`` field inside the payload does.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from typing import Callable, Dict, List

import numpy as np

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import benchmarks  # noqa: F401  (bootstraps sys.path)

import figure_cache
from repro.benchsuite.registry import regions_by_application
from repro.core.dataset import DatasetBuilder
from repro.core.measurements import get_measurement_database
from repro.core.model import ModelConfig, PnPModel, _GnnEncoder
from repro.core.training import TrainingConfig, train_model
from repro.core.tuner import PnPTuner
from repro.nn import _scatter, precision
from repro.nn._scatter import ScatterWorkspace, scatter_rows_sum, scatter_rows_sum_into
from repro.nn.data import GraphDataLoader, build_edge_plan, collate_graphs
from repro.nn.rgcn import RGCNConv
from repro.nn.tensor import Tensor, no_grad
from repro.serve import (
    DeadlineExceeded,
    FaultEvent,
    FaultPlan,
    Gateway,
    GatewayOverloaded,
    HashRing,
    LocalFleet,
    NodeState,
)

#: The numbered perf-trajectory payload of this PR's bench run.  CI uploads
#: the ``BENCH_latest.json`` copy under the stable artifact name
#: ``perf-trajectory``, so only this constant moves per PR — never the
#: artifact name or the workflow file.
BENCH_NAME = "BENCH_10"

# Engine-vs-reference floors asserted in --smoke mode.  Deliberately looser
# than the measured speedups (≈1.4x forward, ≥1.5x epoch, ≥3x sweep on an
# idle machine) so the check flags regressions, not scheduler noise.
# ``sweep_many`` floors the batched multi-region sweep against R serial
# engine-path ``predict_sweep`` calls.  Both sides now run the compiled
# autograd-free inference runtime, which shrank exactly the per-region
# overhead (per-op Tensor allocation, graph bookkeeping) that batching used
# to amortise — the gap narrowed from ≈2.1x (Module serving) to ≈1.2x
# measured cold at R=16 on a single-core container; batching still wins
# (one collated plan, one set of BLAS launches) and widens where BLAS can
# thread the collated matrix products.  ``inference_runtime`` floors the
# compiled InferenceProgram against the Module forward on the batched cold
# sweep (measured ≈1.2x batched, ≈2x single-region; buffers preallocated
# per plan, no autograd machinery).
SMOKE_FLOORS = {
    "forward": 1.1,
    "train_epoch": 1.2,
    "cap_sweep": 2.0,
    "sweep_many": 1.1,
    "inference_runtime": 1.1,
}

#: float32-vs-float64 floor on the scatter-bound message-passing microbench
#: (measured ≈1.3-1.5x on an idle machine; the floor flags the float32 path
#: losing its edge, e.g. a kernel change re-introducing a float64 round trip).
F32_SMOKE_FLOORS = {"scatter_mp": 1.15}

#: Runtime-kernel floor on the same graph's relation scatters: the
#: out-parameter ``scatter_rows_sum_into`` kernel (rounds/reduce
#: sub-kernels, zero allocations) against the allocating flat-bincount
#: kernel at float32, where bincount pays a float64 round trip per edge.
#: Guards the compiled runtime's kernel from regressing below the one the
#: autograd path uses.
PREALLOC_SMOKE_FLOORS = {"scatter_mp": 1.0}

#: Ceiling on the tracemalloc peak of one warm single-region ``predict``
#: through the compiled program (``single_region_alloc`` axis).  The warm
#: path's residual transient is a few hundred bytes of Python view objects
#: per kernel step (≈5 KB total); the smallest whole-array temporary a numpy
#: fallback path would buffer at serving scale is tens of KB, so one
#: reintroduced array allocation clears this ceiling by an order of
#: magnitude.
PREALLOC_PEAK_BYTES_CEILING = 16_384

#: Floor on the micro tier's speedup over the GNN *novel-region* path (one
#: warm dense-only student predict vs graph build + collate + RGCN encode +
#: head; measured ≈5-15x on the bench container — the warm
#: embedding-*cached* GNN path is only ≈1.7x slower and is not what the
#: micro tier exists to replace).  Guards the distilled tier's reason to
#: exist: if a dense micro predict is no longer clearly faster than just
#: running the GNN on a fresh region, the tier is dead weight.
MICROMODEL_SMOKE_FLOOR = 2.0


def _interleaved_times(
    first: Callable[[], None], second: Callable[[], None], rounds: int
) -> tuple:
    """Alternate the two timed functions so load drift hits both equally."""
    first_times: List[float] = []
    second_times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        first()
        first_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        second()
        second_times.append(time.perf_counter() - start)
    return first_times, second_times


def _pair_stats(
    first: Callable[[], None],
    second: Callable[[], None],
    rounds: int,
    scale: float = 1.0,
) -> Dict[str, float]:
    """Best + median of both timed functions (seconds, divided by ``scale``)."""
    first_times, second_times = _interleaved_times(first, second, rounds)
    return {
        "first_s": min(first_times) / scale,
        "second_s": min(second_times) / scale,
        "first_median_s": statistics.median(first_times) / scale,
        "second_median_s": statistics.median(second_times) / scale,
    }


class _ReferenceMode:
    """Run a block exactly like the seed: naive kernels, no plans/caching."""

    def __enter__(self) -> "_ReferenceMode":
        self._kernels = _scatter.reference_kernels()
        self._kernels.__enter__()
        self._use_plan = _GnnEncoder.use_edge_plan
        _GnnEncoder.use_edge_plan = False
        self._use_programs = PnPTuner.use_inference_programs
        PnPTuner.use_inference_programs = False
        self._loader_init = GraphDataLoader.__init__

        def per_epoch_collate_init(loader, samples, **kwargs):
            kwargs["cache_collate"] = False
            self._loader_init(loader, samples, **kwargs)

        GraphDataLoader.__init__ = per_epoch_collate_init
        return self

    def __exit__(self, *exc) -> None:
        GraphDataLoader.__init__ = self._loader_init
        _GnnEncoder.use_edge_plan = self._use_plan
        PnPTuner.use_inference_programs = self._use_programs
        self._kernels.__exit__(*exc)


def _workload(num_apps: int, seed: int = 0):
    apps = dict(list(regions_by_application().items())[:num_apps])
    regions = [r for rs in apps.values() for r in rs]
    database = get_measurement_database("haswell", regions=regions, seed=seed)
    builder = DatasetBuilder(database, regions_by_app=apps, seed=seed)
    samples = builder.performance_samples()
    config = ModelConfig(
        vocabulary_size=len(builder.vocabulary),
        num_classes=database.search_space.num_omp_configurations,
        aux_dim=1,
        seed=seed,
    )
    return database, builder, samples, config


def bench_forward(samples, config, rounds: int, with_f32: bool) -> Dict[str, float]:
    """One batched forward pass: naive relation masking vs. a warm EdgePlan.

    The plan stays cached on the batch across rounds — the regime every
    repeated-batch consumer hits (the 4-layer stack within one pass, memoised
    evaluation loaders across epochs, repeated predict_labels batches).
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
    stats = _pair_stats(engine, reference, max(rounds, 4))
    row = {
        "reference_s": stats["second_s"],
        "engine_s": stats["first_s"],
        "speedup": stats["second_s"] / stats["first_s"],
        "reference_median_s": stats["second_median_s"],
        "engine_median_s": stats["first_median_s"],
        "median_speedup": stats["second_median_s"] / stats["first_median_s"],
    }
    if with_f32:
        model32 = PnPModel(replace(config, dtype="float32"))
        model32.eval()

        def engine32() -> None:
            model32.encode_pooled(batch)

        engine32()  # warm + build the float32 plan
        f32_stats = _pair_stats(engine, engine32, max(rounds, 4))
        row["engine_f32_s"] = f32_stats["second_s"]
        row["f32_speedup"] = f32_stats["first_s"] / f32_stats["second_s"]
        row["engine_f32_median_s"] = f32_stats["second_median_s"]
        row["f32_median_speedup"] = (
            f32_stats["first_median_s"] / f32_stats["second_median_s"]
        )
    return row


def bench_train_epoch(
    samples, config, epochs: int, rounds: int, with_f32: bool
) -> Dict[str, float]:
    """Full training runs, reported per epoch; histories are bit-identical."""
    training = TrainingConfig(epochs=epochs, seed=0)

    def engine() -> None:
        train_model(PnPModel(config), samples, training)

    def reference() -> None:
        with _ReferenceMode():
            train_model(PnPModel(config), samples, training)

    stats = _pair_stats(engine, reference, rounds, scale=epochs)
    row = {
        "reference_s": stats["second_s"],
        "engine_s": stats["first_s"],
        "speedup": stats["second_s"] / stats["first_s"],
        "reference_median_s": stats["second_median_s"],
        "engine_median_s": stats["first_median_s"],
        "median_speedup": stats["second_median_s"] / stats["first_median_s"],
    }
    if with_f32:
        config32 = replace(config, dtype="float32")

        def engine32() -> None:
            train_model(PnPModel(config32), samples, training)

        f32_stats = _pair_stats(engine, engine32, rounds, scale=epochs)
        row["engine_f32_s"] = f32_stats["second_s"]
        row["f32_speedup"] = f32_stats["first_s"] / f32_stats["second_s"]
        row["engine_f32_median_s"] = f32_stats["second_median_s"]
        row["f32_median_speedup"] = (
            f32_stats["first_median_s"] / f32_stats["second_median_s"]
        )
    return row


def _fit_tuner(database, builder, config, epochs: int) -> PnPTuner:
    """One fitted serving tuner shared by the sweep/serve benchmarks."""
    tuner = PnPTuner(
        system="haswell",
        objective="time",
        model_config=config,
        training_config=TrainingConfig(epochs=epochs, seed=0),
        database=database,
        seed=0,
    )
    tuner.builder = builder
    tuner.fit(tuner.build_training_samples())
    return tuner


def bench_cap_sweep(
    tuner, builder, database, rounds: int, num_caps: int, with_f32: bool
) -> Dict[str, float]:
    """Power-cap sweep per region: per-candidate forwards vs. predict_sweep."""
    regions = builder.regions()[:8]
    space = database.search_space
    caps = [float(c) for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)]

    def engine() -> None:
        tuner._embedding_cache.clear()
        for region in regions:
            tuner.predict_sweep(region, caps)

    def reference() -> None:
        with _ReferenceMode():
            tuner._embedding_cache.clear()
            for region in regions:
                for cap in caps:
                    tuner._embedding_cache.clear()  # seed re-encoded per candidate
                    tuner.predict(region, power_cap=cap)

    # Sanity: both paths must select identical configurations.
    engine_labels = [
        [r.label for r in tuner.predict_sweep(region, caps)] for region in regions
    ]
    tuner._embedding_cache.clear()
    with _ReferenceMode():
        reference_labels = [
            [tuner.predict(region, power_cap=cap).label for cap in caps] for region in regions
        ]
        tuner._embedding_cache.clear()
    if engine_labels != reference_labels:
        raise AssertionError("predict_sweep disagrees with the reference sweep")

    stats = _pair_stats(engine, reference, rounds)
    row = {
        "reference_s": stats["second_s"],
        "engine_s": stats["first_s"],
        "speedup": stats["second_s"] / stats["first_s"],
        "reference_median_s": stats["second_median_s"],
        "engine_median_s": stats["first_median_s"],
        "median_speedup": stats["second_median_s"] / stats["first_median_s"],
    }
    if with_f32:
        # Same float64-trained tuner serving the sweep at float32 via the
        # predict_sweep dtype knob (weights cast once, then cached — cleared
        # here each round along with the embeddings, like the f64 path).
        def engine32() -> None:
            tuner._embedding_cache.clear()
            for region in regions:
                tuner.predict_sweep(region, caps, dtype="float32")

        engine32()  # warm the cast-model cache outside the timed region
        f32_stats = _pair_stats(engine, engine32, rounds)
        row["engine_f32_s"] = f32_stats["second_s"]
        row["f32_speedup"] = f32_stats["first_s"] / f32_stats["second_s"]
        row["engine_f32_median_s"] = f32_stats["second_median_s"]
        row["f32_median_speedup"] = (
            f32_stats["first_median_s"] / f32_stats["second_median_s"]
        )
    return row


def _serving_regions(builder, count: int):
    """``count`` regions for the multi-region serving benchmarks.

    Starts with the tuner's own suite and tops up from the full benchmark
    registry — unseen regions are built/registered on first query, which the
    warm-up pass does outside the timed section (the cold path under test is
    the encoder, not IR generation).
    """
    regions = list(builder.regions())
    if len(regions) < count:
        known = {region.region_id for region in regions}
        for app_regions in regions_by_application().values():
            for region in app_regions:
                if region.region_id not in known:
                    regions.append(region)
                    known.add(region.region_id)
                if len(regions) >= count:
                    break
            if len(regions) >= count:
                break
    return regions[:count]


def bench_sweep_many(
    tuner, builder, rounds: int, num_caps: int, num_regions: int = 16
) -> Dict[str, float]:
    """Cold fleet sweep: R serial predict_sweep calls vs. one batched call.

    Both paths run the compiled engine; the axis isolates what multi-region
    batching adds — one collated encoder pass and a single (R×C)-row dense
    head instead of R small ones.  Both the embedding cache *and* the
    fleet-composition batch memo are cleared per round, so the batched side
    pays collation + plan construction exactly like a fresh serving replica
    (and symmetrically with the serial loop, which rebuilds a batch and plan
    per region); warm-memo serving is strictly faster than what this gate
    asserts.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]

    def serial() -> None:
        tuner._embedding_cache.clear()
        for region in regions:
            tuner.predict_sweep(region, caps)

    def batched() -> None:
        tuner._embedding_cache.clear()
        tuner._sweep_batch_memo.clear()
        tuner.predict_sweep_many(regions, caps)

    # Warm-up: builds/registers any off-suite graphs and checks equivalence.
    tuner._embedding_cache.clear()
    batched_results = tuner.predict_sweep_many(regions, caps)
    tuner._embedding_cache.clear()
    serial_results = [tuner.predict_sweep(region, caps) for region in regions]
    if batched_results != serial_results:
        raise AssertionError("predict_sweep_many disagrees with serial predict_sweep")

    stats = _pair_stats(batched, serial, rounds)
    return {
        "num_regions": len(regions),
        "num_caps": num_caps,
        "serial_s": stats["second_s"],
        "batched_s": stats["first_s"],
        "speedup": stats["second_s"] / stats["first_s"],
        "serial_median_s": stats["second_median_s"],
        "batched_median_s": stats["first_median_s"],
        "median_speedup": stats["second_median_s"] / stats["first_median_s"],
    }


def bench_serve_fleet(
    tuner, builder, rounds: int, num_caps: int, num_regions: int
) -> Dict[str, float]:
    """Multi-node TCP fleet serving vs. the in-process serial sweep loop.

    A 2-node :class:`repro.serve.LocalFleet` exercises the full wire path —
    node subprocesses, one-time spec + ``.npz``-bytes registration,
    content-hash sharding, length-prefixed pickle framing, concurrent
    per-node requests — against the serial in-process ``predict_sweep``
    loop.  Node start-up and registration happen once per fleet and are
    excluded; each timed round clears every node's caches so sweeps
    re-encode their shard cold (symmetrically, the serial side clears the
    parent's embedding cache).  Scaling tracks the machine's cores and the
    JSON records ``cpu_count``: on a single-core container the axis
    measures the RPC overhead floor, not the multi-node speedup.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]
    tuner._embedding_cache.clear()
    expected = [tuner.predict_sweep(region, caps) for region in regions]

    def serial() -> None:
        tuner._embedding_cache.clear()
        for region in regions:
            tuner.predict_sweep(region, caps)

    row: Dict[str, float] = {
        "num_regions": len(regions),
        "num_caps": num_caps,
        "num_nodes": 2.0,
        "cpu_count": float(os.cpu_count() or 1),
    }
    with LocalFleet(tuner, num_nodes=2) as fleet:
        if fleet.sweep(regions, caps) != expected:
            raise AssertionError("fleet sweep disagrees with the serial path")

        def fleet_sweep() -> None:
            fleet.clear_caches()
            fleet.sweep(regions, caps)

        stats = _pair_stats(serial, fleet_sweep, rounds)
    row.update(
        {
            "serial_s": stats["first_s"],
            "fleet_s": stats["second_s"],
            "fleet_speedup": stats["first_s"] / stats["second_s"],
            "serial_median_s": stats["first_median_s"],
            "fleet_median_s": stats["second_median_s"],
            "median_fleet_speedup": stats["first_median_s"] / stats["second_median_s"],
        }
    )
    return row


def _timed_sweeps(fleet, regions, caps, rounds: int) -> List[float]:
    times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fleet.sweep(regions, caps)
        times.append(time.perf_counter() - start)
    return times


def bench_serve_fleet_churn(
    tuner, builder, rounds: int, num_caps: int, num_regions: int
) -> Dict[str, float]:
    """Sweep throughput through a full churn cycle on a 3-node fleet.

    The axis measures what self-healing costs (and saves) end to end, warm
    caches throughout:

    * ``steady`` — the healthy 3-node fleet;
    * ``failover`` — the single sweep that discovers a killed node and
      rebalances its shard mid-flight;
    * ``killed`` — the surviving 2-node fleet afterwards;
    * ``recovered`` — after the node restarts and the heartbeat handshake
      re-admits it (re-registration excluded; it happens once, off-path);
    * ``update`` — one rolling :meth:`FleetClient.update_weights` pass plus
      the first sweep on the new weights version.

    Because the ring re-shards only the dead node's regions, the survivors'
    embedding caches stay warm through the cycle — ``survivor_warm_hit_rate``
    is measured from the nodes' cache-stats deltas across the failover, and
    ``ring_keep_rate`` / ``flat_keep_rate`` record the analytic fraction of
    surviving-node cache entries each scheme preserves (the flat modulo
    hash reshuffles almost everything, which is exactly why the fleet moved
    to consistent hashing).  Every sweep in the cycle is checked
    byte-identical to the serial path before timing; not smoke-gated —
    recorded for the cross-PR trajectory.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    ids = [region.region_id for region in regions]
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]
    tuner._embedding_cache.clear()
    expected = [tuner.predict_sweep(region, caps) for region in regions]

    # Analytic remap comparison at N=3 -> N=2 (pure ring/hash math).
    full_ring = HashRing(range(3))
    before = full_ring.assignments(ids)
    shrunk_ring = HashRing(range(3))
    shrunk_ring.remove(0)
    after = shrunk_ring.assignments(ids)
    survivor_keys = [i for i, owner in enumerate(before) if owner != 0]
    ring_keep = sum(after[i] == before[i] for i in survivor_keys)
    # The flat modulo alternative: blake2s(id) % N.
    flat_hashes = [
        int.from_bytes(hashlib.blake2s(i.encode(), digest_size=4).digest(), "big")
        for i in ids
    ]
    flat_before = [h % 3 for h in flat_hashes]
    flat_after = [h % 2 for h in flat_hashes]
    flat_survivor_keys = [i for i, owner in enumerate(flat_before) if owner != 0]
    flat_keep = sum(
        flat_after[i] == flat_before[i] for i in flat_survivor_keys
    )

    row: Dict[str, float] = {
        "num_regions": len(regions),
        "num_caps": num_caps,
        "num_nodes": 3.0,
        "cpu_count": float(os.cpu_count() or 1),
        "ring_remap_fraction": sum(a != b for a, b in zip(before, after)) / len(ids),
        "flat_remap_fraction": sum(a != b for a, b in zip(flat_before, flat_after))
        / len(ids),
        "ring_keep_rate": ring_keep / max(1, len(survivor_keys)),
        "flat_keep_rate": flat_keep / max(1, len(flat_survivor_keys)),
    }

    with LocalFleet(tuner, num_nodes=3, heartbeat_interval=None) as fleet:
        if fleet.sweep(regions, caps) != expected:
            raise AssertionError("fleet sweep disagrees with the serial path")
        client = fleet.client
        victim = client.assignments(ids)[0]
        steady = _timed_sweeps(fleet, regions, caps, rounds)

        stats_before = fleet.stats()
        fleet.kill_node(victim)
        start = time.perf_counter()
        if fleet.sweep(regions, caps) != expected:
            raise AssertionError("failover sweep disagrees with the serial path")
        failover_s = time.perf_counter() - start
        killed = _timed_sweeps(fleet, regions, caps, rounds)
        stats_after = fleet.stats()
        hits = sum(
            stats_after[i]["hits"] - stats_before[i]["hits"] for i in stats_after
        )
        misses = sum(
            stats_after[i]["misses"] - stats_before[i]["misses"] for i in stats_after
        )
        row["survivor_warm_hit_rate"] = hits / max(1, hits + misses)

        fleet.restart_node(victim)
        if not fleet.wait_for_state(victim, NodeState.LIVE, timeout=120.0):
            raise AssertionError("restarted node was not re-admitted")
        recovered = _timed_sweeps(fleet, regions, caps, rounds)
        if fleet.sweep(regions, caps) != expected:
            raise AssertionError("recovered sweep disagrees with the serial path")

        start = time.perf_counter()
        client.update_weights(tuner.state_dict())
        if fleet.sweep(regions, caps) != expected:
            raise AssertionError("post-update sweep disagrees with the serial path")
        update_s = time.perf_counter() - start

    row.update(
        {
            "steady_median_s": statistics.median(steady),
            "failover_sweep_s": failover_s,
            "killed_median_s": statistics.median(killed),
            "recovered_median_s": statistics.median(recovered),
            "update_cycle_s": update_s,
        }
    )
    return row


def _latency_percentile(latencies: List[float], q: float) -> float:
    """Nearest-rank percentile of ``latencies`` (NaN when empty)."""
    if not latencies:
        return float("nan")
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def bench_serve_gateway(
    tuner, builder, rounds: int, num_caps: int, num_regions: int
) -> Dict[str, float]:
    """Open-loop request traffic through the asyncio Gateway under churn.

    Where ``serve_fleet_churn`` measures closed-loop *sweep* throughput,
    this axis measures the request-shaped front door: single-region
    ``Gateway.predict_sweep`` calls fired on a fixed open-loop schedule
    (arrivals do not wait for completions), coalesced into fleet batches,
    while the fleet is deliberately wrecked underneath:

    * ``healthy`` — the intact 3-node fleet;
    * ``churn`` — one node hard-killed mid-load, a second SIGSTOPped
      (hung-but-connected), then resumed and the killed node restarted —
      hedges, breakers, requeues and the heartbeat all fire while requests
      keep arriving;
    * ``dead`` — the whole fleet killed: the rate-limited in-process
      fallback answers what its token bucket admits and sheds the rest
      with ``GatewayOverloaded``.

    Per phase the row records p50/p99 latency and achieved QPS; overall it
    records the shed / hedge / fallback / breaker counters from
    :meth:`Gateway.stats`.  Every answered request is asserted
    byte-identical to the serial ``predict_sweep`` path, and the healthy
    and dead phases must both answer at least one request — those are hard
    failures.  Latency numbers are not smoke-gated; they feed the cross-PR
    trajectory.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]
    tuner._embedding_cache.clear()
    expected = {
        region.region_id: tuner.predict_sweep(region, caps) for region in regions
    }

    phase_s = max(1.2, 0.6 * rounds)
    rate_hz = 25.0
    mismatches: List[str] = []

    async def open_loop(gateway: Gateway, duration_s: float):
        """Fire requests on a fixed schedule; collect latencies + outcomes."""
        loop = asyncio.get_running_loop()
        latencies: List[float] = []
        outcomes = {"ok": 0.0, "shed": 0.0, "deadline": 0.0, "error": 0.0}

        async def fire(region) -> None:
            begin = loop.time()
            try:
                result = await gateway.predict_sweep(region, caps)
            except GatewayOverloaded:
                outcomes["shed"] += 1
                return
            except DeadlineExceeded:
                outcomes["deadline"] += 1
                return
            except Exception:  # noqa: BLE001 - tallied, asserted on below
                outcomes["error"] += 1
                return
            latencies.append(loop.time() - begin)
            outcomes["ok"] += 1
            if result != expected[region.region_id]:
                mismatches.append(region.region_id)

        tasks = []
        interval = 1.0 / rate_hz
        start = loop.time()
        index = 0
        while loop.time() - start < duration_s:
            tasks.append(asyncio.ensure_future(fire(regions[index % len(regions)])))
            index += 1
            await asyncio.sleep(interval)
        await asyncio.gather(*tasks)
        return latencies, outcomes, loop.time() - start

    phases: Dict[str, tuple] = {}
    with LocalFleet(
        tuner,
        num_nodes=3,
        heartbeat_interval=0.5,
        ping_timeout=1.0,
        dead_after=1,
    ) as fleet:

        async def drive() -> Dict[str, float]:
            async with Gateway(
                fleet.client,
                window_s=0.005,
                default_timeout=120.0,
                hedge_delay_floor=0.05,
                breaker_cooldown=1.0,
            ) as gateway:
                phases["healthy"] = await open_loop(gateway, phase_s)

                serving = fleet.client.serving_nodes()
                victim, paused = serving[0], serving[1]

                async def churn() -> None:
                    await asyncio.sleep(phase_s * 0.2)
                    fleet.kill_node(victim)  # lose a machine mid-load
                    await asyncio.sleep(phase_s * 0.2)
                    fleet.pause_node(paused)  # hang another, still connected
                    await asyncio.sleep(phase_s * 0.3)
                    fleet.resume_node(paused)
                    fleet.restart_node(victim)  # heartbeat re-admits both

                churn_task = asyncio.ensure_future(churn())
                phases["churn"] = await open_loop(gateway, phase_s)
                await churn_task

                for index in range(3):
                    fleet.kill_node(index)  # total fleet loss -> fallback
                phases["dead"] = await open_loop(gateway, phase_s)
                return gateway.stats()

        stats = asyncio.run(drive())

    if mismatches:
        raise AssertionError(
            f"gateway answers diverged from serial for {sorted(set(mismatches))}"
        )
    if not phases["healthy"][1]["ok"]:
        raise AssertionError("healthy phase answered no requests")
    if not phases["dead"][1]["ok"]:
        raise AssertionError("dead-fleet phase answered no fallback requests")

    row: Dict[str, float] = {
        "num_regions": float(len(regions)),
        "num_caps": float(num_caps),
        "num_nodes": 3.0,
        "cpu_count": float(os.cpu_count() or 1),
        "open_loop_hz": rate_hz,
    }
    fired = 0.0
    shed = 0.0
    for name, (latencies, outcomes, elapsed) in phases.items():
        fired += sum(outcomes.values())
        shed += outcomes["shed"]
        row[f"{name}_p50_s"] = _latency_percentile(latencies, 50.0)
        row[f"{name}_p99_s"] = _latency_percentile(latencies, 99.0)
        row[f"{name}_qps"] = outcomes["ok"] / max(elapsed, 1e-9)
    admitted = max(1.0, float(stats["admitted"]))
    row.update(
        {
            "shed_rate": shed / max(1.0, fired),
            "hedge_rate": stats["hedges"] / admitted,
            "hedges": float(stats["hedges"]),
            "hedge_wins": float(stats["hedge_wins"]),
            "retries": float(stats["retries"]),
            "fallbacks": float(stats["fallbacks"]),
            "breaker_trips": float(stats["breaker_trips"]),
        }
    )
    return row


def bench_serve_chaos(
    tuner, builder, rounds: int, num_caps: int, num_regions: int
) -> Dict[str, float]:
    """Sweep latency through a fixed byte-level fault schedule.

    A deterministic :class:`~repro.serve.faults.FaultPlan` is interposed on
    node 0 of a 2-node fleet via the :class:`~repro.serve.faults.ChaosProxy`
    MITM: a small reply delay, then a reply bit flip (digest-detected
    mid-sweep), and on the connections the heartbeat opens to re-admit the
    torn-down node a reply truncation, a request-direction bit flip and a
    hard TCP reset — so the measured cycle exercises detection, teardown,
    rebalance and re-admission end to end, with every byte on the wire
    checked by the self-verifying v2 framing.

    The row records p50/p99 sweep latency during the fault schedule
    (``faulted``) and after the fleet self-heals (``recovered``), plus the
    corruption / teardown / re-admission counters from both ends of the
    wire and the proxy's injected-fault total.  Three hard failures, all
    independent of machine speed: any sweep that is not byte-identical to
    serial ``predict_sweep``, a schedule that fires without a single
    detected corruption (nothing may unpickle a corrupt payload), and a
    fleet that fails to return to all-LIVE.  Latency numbers are not
    smoke-gated; they feed the cross-PR trajectory.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]
    tuner._embedding_cache.clear()
    expected = [tuner.predict_sweep(region, caps) for region in regions]

    # Connection 0 is the fleet client's request socket; its frame 0 is the
    # registration round trip, so sweep traffic starts at frame 1.  Each
    # corrupting fault tears its connection down, and the probe/re-register
    # connections the client opens afterwards (1, 2, 3, ...) are faulted in
    # turn — connection 4 onward is clean, which bounds the schedule and
    # guarantees recovery.
    plan = FaultPlan(
        [
            FaultEvent("delay", connection=0, frame=1, direction="reply", seconds=0.02),
            FaultEvent("bitflip", connection=0, frame=2, direction="reply", offset=40),
            FaultEvent("truncate", connection=1, frame=1, direction="reply", offset=25),
            FaultEvent("bitflip", connection=2, frame=1, direction="request", offset=64),
            FaultEvent("reset", connection=3, frame=1, direction="reply"),
        ]
    )

    def timed_identical_sweeps(fleet, count: int) -> List[float]:
        times: List[float] = []
        for _ in range(count):
            start = time.perf_counter()
            served = fleet.sweep(regions, caps)
            times.append(time.perf_counter() - start)
            if served != expected:
                raise AssertionError("chaos sweep disagrees with the serial path")
        return times

    with LocalFleet(
        tuner,
        num_nodes=2,
        heartbeat_interval=None,
        request_timeout=30.0,
        chaos={0: plan},
    ) as fleet:
        faulted = timed_identical_sweeps(fleet, max(3, rounds))
        client = fleet.client
        proxy = fleet.proxies[0]
        # Drain the rest of the schedule: the remaining faults are bound to
        # the probe/re-adoption connections (1-3), which the heal+sweep
        # cycle below opens one by one.  Once a full cycle fires nothing new
        # and every node is LIVE, the schedule is exhausted and the
        # ``recovered`` phase below measures a clean wire.
        for _ in range(12):
            for index in sorted(client.node_states()):
                client.wait_for_state(index, NodeState.LIVE, timeout=120.0)
            fired_before = proxy.stats()["faults_total"]
            timed_identical_sweeps(fleet, 1)
            states = client.node_states()
            if proxy.stats()["faults_total"] == fired_before and all(
                state is NodeState.LIVE for state in states.values()
            ):
                break
        else:
            raise AssertionError(
                f"fault schedule did not drain: {proxy.stats()['applied']}, "
                f"states {client.node_states()}"
            )
        recovered = timed_identical_sweeps(fleet, max(2, rounds))
        transport = client.transport_stats()
        node_corrupt = sum(
            reply.get("corrupt_frames", 0) for reply in client.stats().values()
        )
        injected = float(fleet.proxies[0].stats()["faults_total"])

    detected = float(transport["corruption"]) + float(node_corrupt)
    if not detected:
        raise AssertionError(
            "the fault schedule fired but no corruption was detected on "
            "either end of the wire"
        )

    return {
        "num_regions": float(len(regions)),
        "num_caps": float(num_caps),
        "num_nodes": 2.0,
        "cpu_count": float(os.cpu_count() or 1),
        "faulted_median_s": statistics.median(faulted),
        "faulted_p50_s": _latency_percentile(faulted, 50.0),
        "faulted_p99_s": _latency_percentile(faulted, 99.0),
        "recovered_median_s": statistics.median(recovered),
        "recovered_p50_s": _latency_percentile(recovered, 50.0),
        "recovered_p99_s": _latency_percentile(recovered, 99.0),
        "faults_injected": injected,
        "corruption_detected": detected,
        "client_corruption": float(transport["corruption"]),
        "node_corrupt_frames": float(node_corrupt),
        "teardowns": float(transport["teardowns"]),
        "readmissions": float(transport["readmissions"]),
    }


def bench_inference_runtime(
    tuner, builder, rounds: int, num_caps: int, num_regions: int = 16, with_f32: bool = True
) -> Dict[str, float]:
    """Compiled InferenceProgram vs. the Module/Tensor forward it lowers.

    * ``batched`` — the compute of the cold ``num_regions``-region power-cap
      sweep: one collated encoder pass over all R graphs plus one dense-head
      batch over all R×C (region, cap) rows — exactly the work
      ``predict_sweep_many`` runs on an embedding-cache miss, with the
      Python bookkeeping both paths share (sample prep, result objects)
      excluded so the axis isolates what the program replaces: per-op
      ``Tensor`` allocation, autograd/no-grad bookkeeping and per-op output
      arrays vs. a flat thunk list over preallocated buffers.  This is the
      smoke-gated number.
    * ``single`` — one single-region encoder pass (``encode_pooled`` on a
      one-graph batch, plan warm), the regime of point ``predict`` calls,
      where the per-op overhead is the largest fraction of the work.

    Both comparisons are repeated with the float32 cast model (the serving
    ``dtype="float32"`` path); program and Module results are checked
    bit-identical before timing.
    """
    space = tuner.search_space
    regions = _serving_regions(builder, num_regions)
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), num_caps)
    ]
    rounds = max(rounds, 8)  # the timed sections are milliseconds; cheap rounds

    # The collated fleet batch and the R×C aux rows, built once like the
    # fleet-composition memo would hold them.
    batch = collate_graphs(
        [
            tuner.builder.inference_sample(region, power_cap=caps[0]).sample
            for region in regions
        ]
    )
    aux = np.tile(
        tuner.builder.aux_feature_matrix(regions[0].region_id, caps),
        (len(regions), 1),
    )
    model = tuner.model
    program = tuner.compile_inference()

    def batched_program() -> None:
        rows = np.repeat(program.encode_pooled(batch), len(caps), axis=0)
        program.predict_from_pooled(rows, aux)

    def batched_module() -> None:
        rows = np.repeat(model.encode_pooled(batch), len(caps), axis=0)
        model.predict_from_pooled(rows, aux)

    # Warm-up both paths (plan, program buffers, BLAS) and check they agree
    # bit for bit before timing.
    if model.encode_pooled(batch).tobytes() != program.encode_pooled(batch).tobytes():
        raise AssertionError("program encoding is not bit-identical to the Module's")
    pooled_rows = np.repeat(program.encode_pooled(batch), len(caps), axis=0)
    if not np.array_equal(
        program.predict_from_pooled(pooled_rows, aux),
        model.predict_from_pooled(pooled_rows, aux),
    ):
        raise AssertionError("program head disagrees with the Module head")

    stats = _pair_stats(batched_program, batched_module, rounds)
    row: Dict[str, float] = {
        "num_regions": len(regions),
        "num_caps": num_caps,
        "module_s": stats["second_s"],
        "program_s": stats["first_s"],
        "speedup": stats["second_s"] / stats["first_s"],
        "module_median_s": stats["second_median_s"],
        "program_median_s": stats["first_median_s"],
        "median_speedup": stats["second_median_s"] / stats["first_median_s"],
    }

    # Single-region encoding: the point-predict regime.
    single = collate_graphs(
        [tuner.builder.inference_sample(regions[0], power_cap=caps[0]).sample]
    )
    if model.encode_pooled(single).tobytes() != program.encode_pooled(single).tobytes():
        raise AssertionError("program encoding is not bit-identical to the Module's")
    single_stats = _pair_stats(
        lambda: program.encode_pooled(single), lambda: model.encode_pooled(single), rounds
    )
    row.update(
        {
            "single_module_s": single_stats["second_s"],
            "single_program_s": single_stats["first_s"],
            "single_speedup": single_stats["second_s"] / single_stats["first_s"],
            "single_module_median_s": single_stats["second_median_s"],
            "single_program_median_s": single_stats["first_median_s"],
            "single_median_speedup": (
                single_stats["second_median_s"] / single_stats["first_median_s"]
            ),
        }
    )

    if with_f32:
        model32 = tuner._model_at("float32")
        program32 = tuner.compile_inference("float32")

        def batched_program32() -> None:
            rows = np.repeat(program32.encode_pooled(batch), len(caps), axis=0)
            program32.predict_from_pooled(rows, aux)

        def batched_module32() -> None:
            rows = np.repeat(model32.encode_pooled(batch), len(caps), axis=0)
            model32.predict_from_pooled(rows, aux)

        # At float32 the program's index-ordered scatter equals the Module
        # run on the np.add.at reference kernels (the default Module sums
        # float32 through bincount's float64).
        with _scatter.reference_kernels():
            reference32 = model32.encode_pooled(batch).tobytes()
        if reference32 != program32.encode_pooled(batch).tobytes():
            raise AssertionError(
                "float32 program is not bit-identical to the Module's np.add.at run"
            )
        batched_module32()  # warm the float32 plan + program buffers
        f32_stats = _pair_stats(batched_program32, batched_module32, rounds)
        # Named program_f32_* deliberately: this is program-vs-Module *at*
        # float32, not the float32-vs-float64 comparison the other axes'
        # ``f32_speedup`` keys (and the table's "f32 vs f64" column) carry.
        row["module_f32_s"] = f32_stats["second_s"]
        row["program_f32_s"] = f32_stats["first_s"]
        row["program_f32_speedup"] = f32_stats["second_s"] / f32_stats["first_s"]
        row["module_f32_median_s"] = f32_stats["second_median_s"]
        row["program_f32_median_s"] = f32_stats["first_median_s"]
        row["program_f32_median_speedup"] = (
            f32_stats["second_median_s"] / f32_stats["first_median_s"]
        )
    tuner._embedding_cache.clear()
    return row


def bench_scatter_mp(rounds: int) -> Dict[str, float]:
    """float32 vs float64 on the scatter-bound message-passing kernel step.

    One planned :class:`RGCNConv` forward (gather → relation matmul →
    normalise → scatter through the EdgePlan schedules) over a large synthetic
    multigraph — big enough that memory bandwidth on the scatter/gather hot
    loops, not BLAS, dominates.  This is the microbenchmark the float32 mode
    exists for; --smoke fails if float32 stops beating float64 here.

    The same plan's relation scatters are then timed kernel against kernel
    at each dtype: the allocating flat-bincount ``scatter_rows_sum`` that
    autograd runs (``*_bincount_*``) vs the compiled runtime's index-ordered
    ``scatter_rows_sum_into`` on a caller-owned output and workspace
    (``*_prealloc_*``); --smoke floors the float32 ratio.
    """
    rng = np.random.default_rng(0)
    num_nodes, num_edges, channels, relations, num_graphs = 40_000, 200_000, 32, 3, 64
    edge_index = rng.integers(0, num_nodes, size=(2, num_edges))
    edge_type = rng.integers(0, relations, size=num_edges)
    batch_vec = np.sort(rng.integers(0, num_graphs, size=num_nodes))
    features = rng.standard_normal((num_nodes, channels))

    runners: Dict[str, Callable[[], None]] = {}
    plans = {}
    for name in ("float64", "float32"):
        with precision.autocast(name):
            layer = RGCNConv(channels, channels, relations, rng=np.random.default_rng(0))
            layer.eval()
            plan = build_edge_plan(
                edge_index, edge_type, batch_vec, num_nodes, num_graphs, relations
            )
            x = Tensor(features)

        def run(layer=layer, plan=plan, x=x) -> None:
            with no_grad():
                layer(x, edge_index, edge_type, plan=plan)

        run()  # warm the plan's flat scatter-bin caches before timing
        runners[name] = run
        plans[name] = plan

    stats = _pair_stats(runners["float64"], runners["float32"], max(rounds, 4))
    row = {
        "f64_s": stats["first_s"],
        "f32_s": stats["second_s"],
        "f32_speedup": stats["first_s"] / stats["second_s"],
        "f64_median_s": stats["first_median_s"],
        "f32_median_s": stats["second_median_s"],
        "f32_median_speedup": stats["first_median_s"] / stats["second_median_s"],
    }

    for name, short in (("float64", "f64"), ("float32", "f32")):
        plan = plans[name]
        scatters = []
        for relation in range(relations):
            dst = plan.relation_dst[relation]
            segments = plan.scatter_segments(relation)
            scatters.append(
                (
                    rng.standard_normal((dst.size, channels)).astype(name),
                    dst,
                    plan.scatter_flat(relation, channels),
                    segments,
                    np.empty((num_nodes, channels), dtype=name),
                    ScatterWorkspace.for_rounds(segments.rounds(), channels, name),
                )
            )

        def bincount(scatters=scatters) -> None:
            for messages, dst, flat, _segments, _out, _workspace in scatters:
                scatter_rows_sum(messages, dst, num_nodes, flat=flat)

        def runtime(scatters=scatters) -> None:
            for messages, dst, _flat, segments, out, workspace in scatters:
                scatter_rows_sum_into(
                    out, messages, dst, segments=segments, workspace=workspace
                )

        runtime()  # warm the schedules' memoised round plans
        kernel_stats = _pair_stats(bincount, runtime, max(rounds, 4))
        row[f"{short}_bincount_s"] = kernel_stats["first_s"]
        row[f"{short}_bincount_median_s"] = kernel_stats["first_median_s"]
        row[f"{short}_prealloc_s"] = kernel_stats["second_s"]
        row[f"{short}_prealloc_median_s"] = kernel_stats["second_median_s"]
    row["prealloc_vs_bincount_speedup"] = row["f32_bincount_s"] / row["f32_prealloc_s"]
    row["prealloc_vs_bincount_median_speedup"] = (
        row["f32_bincount_median_s"] / row["f32_prealloc_median_s"]
    )
    row["prealloc_f64_speedup"] = row["f64_bincount_s"] / row["f64_prealloc_s"]
    return row


def _peak_and_retained(predict: Callable[[], None], reps: int) -> tuple:
    """Tracemalloc peak of one warm call and numpy blocks retained over ``reps``."""
    gc.collect()
    tracemalloc.start()
    predict()  # warm under tracing
    gc.collect()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    predict()
    _, peak_traced = tracemalloc.get_traced_memory()
    base = tracemalloc.take_snapshot()
    for _ in range(reps):
        predict()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    domain = (tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),)
    stats = snapshot.filter_traces(domain).compare_to(
        base.filter_traces(domain), "lineno"
    )
    return float(peak_traced - before), float(
        sum(max(stat.count_diff, 0) for stat in stats)
    )


def bench_single_region_alloc(
    tuner, builder, rounds: int, with_f32: bool = True
) -> Dict[str, float]:
    """Warm single-region ``predict``: compiled program vs ``Module`` forward.

    The serving hot path: one region, plan and arena already bound, point
    ``predict`` calls through the compiled :class:`InferenceProgram` (its
    index-ordered scatter on planned workspaces, ``prealloc_*``) against
    the ``Module`` forward it lowers (autograd tensors and the allocating
    bincount scatter, ``module_*``).  Times the p50 of each and measures
    the allocation transient of one warm call two ways:

    * ``*_peak_bytes`` — the tracemalloc *peak* over a single warm predict
      (transient buffers are freed before any snapshot could see them, so
      the peak is the only sound external probe).  The program's arena
      slabs and head workspaces absorb every ndarray intermediate and only
      a few hundred bytes of transient Python view objects remain;
      ``--smoke`` fails if the program's peak reaches
      ``PREALLOC_PEAK_BYTES_CEILING`` — below the smallest whole-array
      temporary any numpy fallback path would buffer at serving scale, so
      a single reintroduced allocation trips it.  The ``Module`` peaks are
      recorded for contrast.
    * ``*_alloc_blocks`` — net numpy data-domain blocks retained across
      ``reps`` warm calls (``np.lib.tracemalloc_domain``): the leak
      detector.  Must be zero for the program.
    """
    space = tuner.search_space
    region = _serving_regions(builder, 1)[0]
    cap = float(min(space.power_caps))
    batch = collate_graphs([tuner.builder.inference_sample(region, power_cap=cap).sample])
    dtypes = ("float64", "float32") if with_f32 else ("float64",)
    reps = 50
    rounds = max(rounds, 4)

    row: Dict[str, float] = {"num_nodes": float(batch.node_types.shape[0])}
    for dtype in dtypes:
        program = tuner.compile_inference(dtype)
        model = tuner._model_at(dtype)
        short = "f64" if dtype == "float64" else "f32"
        paths = {
            "prealloc": lambda: program.predict(batch),
            "module": lambda: model.predict(batch),
        }
        # Warm both paths' plans, arenas and workspaces, then round-robin
        # them so load drift hits both equally.
        for predict in paths.values():
            predict()
        times: Dict[str, List[float]] = {path: [] for path in paths}
        for _ in range(rounds):
            for path, predict in paths.items():
                start = time.perf_counter()
                for _ in range(reps):
                    predict()
                times[path].append((time.perf_counter() - start) / reps)
        medians = {path: statistics.median(values) for path, values in times.items()}
        for path, predict in paths.items():
            row[f"{short}_{path}_median_s"] = medians[path]
            peak, blocks = _peak_and_retained(predict, reps)
            row[f"{short}_{path}_peak_bytes"] = peak
            row[f"{short}_{path}_alloc_blocks"] = blocks
        row[f"{short}_prealloc_vs_module_median_speedup"] = (
            medians["module"] / medians["prealloc"]
        )
    for path in ("prealloc", "module"):
        row[f"{path}_peak_bytes"] = max(
            row.get(f"{short}_{path}_peak_bytes", 0.0) for short in ("f64", "f32")
        )
        row[f"{path}_alloc_blocks"] = sum(
            row.get(f"{short}_{path}_alloc_blocks", 0.0) for short in ("f64", "f32")
        )
    return row


def bench_serve_micromodel(tuner, builder, rounds: int) -> Dict[str, float]:
    """The distilled micro tier vs the GNN on the single-region serving shape.

    Distills the bench tuner's own families, then measures:

    * ``micro_median_s`` — warm dense-only single-region predict p50 through
      :class:`~repro.distill.runtime.MicroRuntime` (no graph, no message
      passing, the tuner's compiled head scoring the student's pooled row);
    * ``gnn_median_s`` — the GNN *novel-region* path p50: the embedding
      cache is cleared before every call, so each predict pays graph build,
      collation and the RGCN encode — the cost the micro tier replaces for
      in-family traffic (a warm embedding-cache hit is the wrong
      comparator: real single-region traffic over a large region universe
      misses that cache);
    * ``fallback_rate`` — the tiered router over a population of every
      serving region plus one out-of-family perturbation each: trusted
      regions hit the micro tier, perturbed ones must fall back;
    * ``out_of_family_identical`` — 1.0 iff every fallback answer is
      byte-identical to the tuner's own ``predict_sweep``;
    * ``micro_peak_bytes`` / ``micro_alloc_blocks`` — the warm micro
      predict's tracemalloc peak and retained numpy data-domain blocks,
      measured exactly like ``single_region_alloc``.
    """
    from repro.distill.generate import perturb_out_of_family
    from repro.distill.student import StudentConfig, distill
    from repro.serve.predictor import tiered_predictor

    space = tuner.search_space
    cap = float(min(space.power_caps))
    caps = [cap, float(max(space.power_caps))]
    regions = _serving_regions(builder, len(builder.regions()))
    region = regions[0]

    start = time.perf_counter()
    model = distill(
        tuner,
        regions_by_app=builder.regions_by_app,
        config=StudentConfig(per_region=2, epochs=60, seed=0),
    )
    distill_s = time.perf_counter() - start
    tiered = tiered_predictor(tuner, model)
    runtime = tiered.micro.runtime

    rounds = max(rounds, 4)
    reps = 100
    runtime.predict(region, cap)  # bind programs, buffers and the head
    micro_times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            runtime.predict(region, cap)
        micro_times.append((time.perf_counter() - start) / reps)

    gnn_reps = 10
    tuner.predict_sweep(region, [cap])  # compile outside the timed loop
    gnn_times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(gnn_reps):
            tuner._embedding_cache.clear()
            tuner.predict_sweep(region, [cap])
        gnn_times.append((time.perf_counter() - start) / gnn_reps)

    micro_p50 = statistics.median(micro_times)
    gnn_p50 = statistics.median(gnn_times)

    # Tier routing over a mixed population: every serving region in-family,
    # plus one out-of-family perturbation each.
    population = list(regions) + [perturb_out_of_family(r) for r in regions]
    tiered.reset_tier_stats()
    for candidate in population:
        tiered.predict(candidate, cap)
    tier = tiered.tier_stats()

    identical = all(
        tiered.predict_sweep(outside, caps) == tuner.predict_sweep(outside, caps)
        for outside in (perturb_out_of_family(r) for r in regions)
    )

    # Allocation probes on the warm micro path (single_region_alloc method).
    gc.collect()
    tracemalloc.start()
    runtime.predict(region, cap)  # warm under tracing
    gc.collect()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    runtime.predict(region, cap)
    _, peak_traced = tracemalloc.get_traced_memory()
    base = tracemalloc.take_snapshot()
    for _ in range(50):
        runtime.predict(region, cap)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    domain = (tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),)
    stats = snapshot.filter_traces(domain).compare_to(
        base.filter_traces(domain), "lineno"
    )
    blocks = sum(max(stat.count_diff, 0) for stat in stats)

    return {
        "micro_median_s": micro_p50,
        "gnn_median_s": gnn_p50,
        "micro_vs_gnn_speedup": gnn_p50 / micro_p50,
        "distill_s": distill_s,
        "micro_families": float(len(runtime.families())),
        "micro_hits": float(tier["micro_hits"]),
        "fallbacks": float(tier["fallbacks"]),
        "fallback_rate": tier["fallbacks"] / float(len(population)),
        "out_of_family_identical": 1.0 if identical else 0.0,
        "micro_peak_bytes": float(peak_traced - before),
        "micro_alloc_blocks": float(blocks),
    }


def _trajectory_payload(mode: str, results: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    """Per-axis medians for the cross-PR perf trajectory.

    Written twice: to the numbered ``{BENCH_NAME}.json`` and to the stable
    ``BENCH_latest.json`` copy CI uploads as the ``perf-trajectory``
    artifact.
    """
    axes: Dict[str, Dict[str, float]] = {}
    for name, row in results.items():
        axes[name] = {
            key: value for key, value in row.items() if "median" in key
        }
        context_keys = (
            "num_regions",
            "num_caps",
            "num_nodes",
            "cpu_count",
            "prealloc_vs_bincount_speedup",
            "prealloc_alloc_blocks",
            "module_alloc_blocks",
            "prealloc_peak_bytes",
            "module_peak_bytes",
            "f64_prealloc_alloc_blocks",
            "f32_prealloc_alloc_blocks",
            "f64_module_alloc_blocks",
            "f32_module_alloc_blocks",
            "f64_prealloc_peak_bytes",
            "f32_prealloc_peak_bytes",
            "f64_module_peak_bytes",
            "f32_module_peak_bytes",
            "ring_remap_fraction",
            "flat_remap_fraction",
            "ring_keep_rate",
            "flat_keep_rate",
            "survivor_warm_hit_rate",
            "failover_sweep_s",
            "update_cycle_s",
            "open_loop_hz",
            "healthy_p50_s",
            "healthy_p99_s",
            "healthy_qps",
            "churn_p50_s",
            "churn_p99_s",
            "churn_qps",
            "dead_p50_s",
            "dead_p99_s",
            "dead_qps",
            "shed_rate",
            "hedge_rate",
            "hedges",
            "hedge_wins",
            "retries",
            "fallbacks",
            "breaker_trips",
            "faulted_p50_s",
            "faulted_p99_s",
            "recovered_p50_s",
            "recovered_p99_s",
            "faults_injected",
            "corruption_detected",
            "client_corruption",
            "node_corrupt_frames",
            "teardowns",
            "readmissions",
            "micro_vs_gnn_speedup",
            "micro_families",
            "micro_hits",
            "fallback_rate",
            "out_of_family_identical",
            "micro_peak_bytes",
            "micro_alloc_blocks",
            "distill_s",
        )
        for context_key in context_keys:
            if context_key in row:
                axes[name][context_key] = row[context_key]
    return {
        "bench": BENCH_NAME,
        "mode": mode,
        "cpu_count": os.cpu_count() or 1,
        "axes": axes,
    }


def run(smoke: bool, dtype_axis: str = "both") -> int:
    mode = "smoke" if smoke else "full"
    num_apps = 4 if smoke else 8
    epochs = 3 if smoke else 8
    rounds = 2 if smoke else 3
    num_caps = 12 if smoke else 16
    serve_regions = 16 if smoke else 48
    with_f32 = dtype_axis in ("both", "float32")

    print(f"bench_engine [{mode}]: building workload ({num_apps} applications)...")
    database, builder, samples, config = _workload(num_apps)
    print(f"  {len(samples)} training samples")

    results: Dict[str, Dict[str, float]] = {}
    results["train_epoch"] = bench_train_epoch(samples, config, epochs, rounds, with_f32)
    print("  train_epoch done")
    results["forward"] = bench_forward(samples, config, rounds, with_f32)
    print("  forward done")
    tuner = _fit_tuner(database, builder, config, epochs)
    results["cap_sweep"] = bench_cap_sweep(
        tuner, builder, database, rounds, num_caps, with_f32
    )
    print("  cap_sweep done")
    results["sweep_many"] = bench_sweep_many(tuner, builder, rounds, num_caps)
    print("  sweep_many done")
    results["inference_runtime"] = bench_inference_runtime(
        tuner, builder, rounds, num_caps, with_f32=with_f32
    )
    print("  inference_runtime done")
    results["single_region_alloc"] = bench_single_region_alloc(
        tuner, builder, rounds, with_f32
    )
    print("  single_region_alloc done")
    results["serve_micromodel"] = bench_serve_micromodel(tuner, builder, rounds)
    print("  serve_micromodel done")
    results["serve_fleet"] = bench_serve_fleet(
        tuner, builder, rounds, num_caps, serve_regions
    )
    print("  serve_fleet done")
    results["serve_fleet_churn"] = bench_serve_fleet_churn(
        tuner, builder, rounds, num_caps, serve_regions
    )
    print("  serve_fleet_churn done")
    results["serve_gateway"] = bench_serve_gateway(
        tuner, builder, rounds, num_caps, serve_regions
    )
    print("  serve_gateway done")
    results["serve_chaos"] = bench_serve_chaos(
        tuner, builder, rounds, num_caps, serve_regions
    )
    print("  serve_chaos done")
    if with_f32:
        results["scatter_mp"] = bench_scatter_mp(rounds)
        print("  scatter_mp done")

    header = (
        f"{'benchmark':<14}{'reference':>12}{'engine':>12}{'speedup':>10}"
        f"{'engine f32':>13}{'f32 vs f64':>12}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for name, row in results.items():
        if "reference_s" in row:
            cells = (
                f"{name:<14}{row['reference_s'] * 1e3:>10.1f}ms{row['engine_s'] * 1e3:>10.1f}ms"
                f"{row['speedup']:>9.2f}x"
            )
        elif name == "sweep_many":
            cells = (
                f"{name:<14}{row['serial_s'] * 1e3:>10.1f}ms{row['batched_s'] * 1e3:>10.1f}ms"
                f"{row['speedup']:>9.2f}x"
            )
        elif name == "inference_runtime":
            cells = (
                f"{name:<14}{row['module_s'] * 1e3:>10.1f}ms{row['program_s'] * 1e3:>10.1f}ms"
                f"{row['speedup']:>9.2f}x"
            )
        elif name == "serve_fleet":
            cells = (
                f"{name:<14}{row['serial_s'] * 1e3:>10.1f}ms{row['fleet_s'] * 1e3:>10.1f}ms"
                f"{row['fleet_speedup']:>9.2f}x"
            )
        elif name in (
            "serve_fleet_churn",
            "serve_gateway",
            "serve_chaos",
            "single_region_alloc",
            "serve_micromodel",
        ):
            continue  # reported in their own summary lines below
        else:  # scatter_mp: pure f32-vs-f64 microbenchmark
            cells = f"{name:<14}{'-':>12}{row['f64_s'] * 1e3:>10.1f}ms{'-':>10}"
        if "f32_speedup" in row:
            f32_s = row.get("engine_f32_s", row.get("f32_s"))
            cells += f"{f32_s * 1e3:>11.1f}ms{row['f32_speedup']:>11.2f}x"
        lines.append(cells)
    table = "\n".join(lines)
    print()
    print(table)
    if "scatter_mp" in results:
        print(
            f"scatter_mp runtime kernel: "
            f"{results['scatter_mp']['prealloc_vs_bincount_speedup']:.2f}x vs "
            f"bincount at float32, "
            f"{results['scatter_mp']['prealloc_f64_speedup']:.2f}x at float64"
        )
    alloc = results["single_region_alloc"]
    alloc_note = (
        f", f32 program p50 {alloc['f32_prealloc_median_s'] * 1e6:.0f}us "
        f"({alloc['f32_prealloc_vs_module_median_speedup']:.2f}x vs Module)"
        if "f32_prealloc_median_s" in alloc
        else ""
    )
    print(
        f"single_region_alloc: warm program predict peak "
        f"{alloc['prealloc_peak_bytes']:.0f}B (vs {alloc['module_peak_bytes']:.0f}B "
        f"through the Module), "
        f"{alloc['prealloc_alloc_blocks']:.0f} numpy data blocks retained, "
        f"f64 program p50 {alloc['f64_prealloc_median_s'] * 1e6:.0f}us "
        f"({alloc['f64_prealloc_vs_module_median_speedup']:.2f}x vs Module)"
        f"{alloc_note}"
    )
    micro = results["serve_micromodel"]
    print(
        f"serve_micromodel: micro p50 {micro['micro_median_s'] * 1e6:.0f}us vs "
        f"novel-region GNN {micro['gnn_median_s'] * 1e6:.0f}us "
        f"({micro['micro_vs_gnn_speedup']:.2f}x), "
        f"{micro['micro_families']:.0f} families, "
        f"fallback rate {micro['fallback_rate'] * 100:.0f}%, "
        f"warm peak {micro['micro_peak_bytes']:.0f}B, "
        f"{micro['micro_alloc_blocks']:.0f} numpy blocks retained, "
        f"out-of-family identical: "
        f"{'yes' if micro['out_of_family_identical'] else 'NO'}"
    )
    print(
        f"serve_fleet: {results['serve_fleet']['fleet_speedup']:.2f}x with 2 TCP nodes "
        f"vs the in-process serial loop on {os.cpu_count() or 1} core(s)"
    )
    churn = results["serve_fleet_churn"]
    print(
        f"serve_fleet_churn: steady {churn['steady_median_s'] * 1e3:.1f}ms, "
        f"failover {churn['failover_sweep_s'] * 1e3:.1f}ms, "
        f"killed {churn['killed_median_s'] * 1e3:.1f}ms, "
        f"recovered {churn['recovered_median_s'] * 1e3:.1f}ms; "
        f"survivor warm-hit {churn['survivor_warm_hit_rate'] * 100:.0f}% "
        f"(ring keeps {churn['ring_keep_rate'] * 100:.0f}% of survivor keys "
        f"vs {churn['flat_keep_rate'] * 100:.0f}% flat)"
    )
    gateway = results["serve_gateway"]
    print(
        f"serve_gateway: healthy p50 {gateway['healthy_p50_s'] * 1e3:.1f}ms "
        f"p99 {gateway['healthy_p99_s'] * 1e3:.1f}ms "
        f"@ {gateway['healthy_qps']:.1f} qps; "
        f"churn p99 {gateway['churn_p99_s'] * 1e3:.1f}ms "
        f"({gateway['hedges']:.0f} hedges, {gateway['hedge_wins']:.0f} wins, "
        f"{gateway['retries']:.0f} retries, {gateway['breaker_trips']:.0f} trips); "
        f"dead-fleet p50 {gateway['dead_p50_s'] * 1e3:.1f}ms with "
        f"{gateway['fallbacks']:.0f} fallback answers, "
        f"shed rate {gateway['shed_rate'] * 100:.0f}%"
    )
    chaos = results["serve_chaos"]
    print(
        f"serve_chaos: faulted p50 {chaos['faulted_p50_s'] * 1e3:.1f}ms "
        f"p99 {chaos['faulted_p99_s'] * 1e3:.1f}ms, "
        f"recovered p50 {chaos['recovered_p50_s'] * 1e3:.1f}ms; "
        f"{chaos['faults_injected']:.0f} faults injected, "
        f"{chaos['corruption_detected']:.0f} corruptions detected, "
        f"{chaos['teardowns']:.0f} teardowns, "
        f"{chaos['readmissions']:.0f} re-admissions"
    )
    runtime = results["inference_runtime"]
    f32_note = (
        f", {runtime['program_f32_speedup']:.2f}x batched at float32"
        if "program_f32_speedup" in runtime
        else ""
    )
    print(
        f"inference_runtime: program {runtime['speedup']:.2f}x vs Module on the "
        f"batched cold sweep, {runtime['single_speedup']:.2f}x single-region{f32_note}"
    )

    payload = {
        "mode": mode,
        "dtype_axis": dtype_axis,
        "results": results,
        "smoke_floors": SMOKE_FLOORS,
        "f32_smoke_floors": F32_SMOKE_FLOORS,
        "prealloc_smoke_floors": PREALLOC_SMOKE_FLOORS,
    }
    path = figure_cache.save_json("bench_engine", payload)
    print(f"\nJSON written to {path}")
    trajectory = _trajectory_payload(mode, results)
    numbered_path = figure_cache.save_json(BENCH_NAME, trajectory)
    latest_path = figure_cache.save_json("BENCH_latest", trajectory)
    print(f"per-axis medians written to {numbered_path} (+ stable copy {latest_path})")

    if smoke:
        failures = [
            f"{name}: {results[name]['speedup']:.2f}x < {floor:.2f}x (engine vs reference)"
            for name, floor in SMOKE_FLOORS.items()
            if results[name]["speedup"] < floor
        ]
        if with_f32:
            failures += [
                f"{name}: {results[name]['f32_speedup']:.2f}x < {floor:.2f}x (float32 vs float64)"
                for name, floor in F32_SMOKE_FLOORS.items()
                if results[name]["f32_speedup"] < floor
            ]
            failures += [
                f"{name}: {results[name]['prealloc_vs_bincount_speedup']:.2f}x < "
                f"{floor:.2f}x (runtime scatter kernel vs bincount)"
                for name, floor in PREALLOC_SMOKE_FLOORS.items()
                if results[name]["prealloc_vs_bincount_speedup"] < floor
            ]
        # The zero-allocation contract is deterministic, not a timing floor:
        # a warm program predict must stay under the transient-peak ceiling
        # (one reintroduced array temporary clears it by an order of
        # magnitude) and retain no numpy data blocks.
        if results["single_region_alloc"]["prealloc_peak_bytes"] >= PREALLOC_PEAK_BYTES_CEILING:
            failures.append(
                "single_region_alloc: warm program predict peaked at "
                f"{results['single_region_alloc']['prealloc_peak_bytes']:.0f} bytes "
                f"(ceiling {PREALLOC_PEAK_BYTES_CEILING})"
            )
        if results["single_region_alloc"]["prealloc_alloc_blocks"] != 0:
            failures.append(
                "single_region_alloc: "
                f"{results['single_region_alloc']['prealloc_alloc_blocks']:.0f} "
                "numpy data blocks retained on the warm program predict path (want 0)"
            )
        # The micro tier's contract: clearly faster than the novel-region
        # GNN path, byte-identical fallback, and allocation-free warm path.
        micro = results["serve_micromodel"]
        if micro["micro_vs_gnn_speedup"] < MICROMODEL_SMOKE_FLOOR:
            failures.append(
                f"serve_micromodel: {micro['micro_vs_gnn_speedup']:.2f}x < "
                f"{MICROMODEL_SMOKE_FLOOR:.2f}x (micro vs novel-region GNN)"
            )
        if not micro["out_of_family_identical"]:
            failures.append(
                "serve_micromodel: an out-of-family fallback answer diverged "
                "from the tuner path (must be byte-identical)"
            )
        if micro["micro_peak_bytes"] >= PREALLOC_PEAK_BYTES_CEILING:
            failures.append(
                f"serve_micromodel: warm micro predict peaked at "
                f"{micro['micro_peak_bytes']:.0f} bytes "
                f"(ceiling {PREALLOC_PEAK_BYTES_CEILING})"
            )
        if micro["micro_alloc_blocks"] != 0:
            failures.append(
                f"serve_micromodel: {micro['micro_alloc_blocks']:.0f} numpy "
                "data blocks retained on the warm micro predict path (want 0)"
            )
        if failures:
            print("SMOKE FAILURE — a fast path lost its edge:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        checked = "engine + float32" if with_f32 else "engine"
        print(f"smoke ok — all {checked} paths beat their regression floors")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run asserting the engine beats the reference paths, "
        "float32 beats float64 on the scatter-bound microbenchmark, the "
        "batched multi-region sweep beats serial per-region sweeps, and the "
        "compiled inference program beats the Module forward",
    )
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32", "both"),
        default="both",
        help="precision axis: 'both' (default) also times every engine path "
        "with a float32 model; 'float64' skips the float32 measurements",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, dtype_axis=args.dtype)


if __name__ == "__main__":
    sys.exit(main())
