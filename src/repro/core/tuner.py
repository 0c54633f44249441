"""The user-facing PnP tuner API.

:class:`PnPTuner` wraps dataset construction, model training and inference
behind a small interface:

>>> tuner = PnPTuner(system="haswell", objective="time")
>>> tuner.fit()                                    # train on the benchmark suite
>>> result = tuner.predict(my_region, power_cap=60.0)
>>> result.config                                  # the OpenMP configuration to use

With ``objective="edp"`` the tuner additionally chooses the power cap:

>>> tuner = PnPTuner(system="skylake", objective="edp")
>>> tuner.fit()
>>> result = tuner.predict(my_region)
>>> result.power_cap, result.config

No code execution of the target region is required for ``predict`` when the
tuner is configured with static features only (the paper's headline setting);
with ``include_counters=True`` the tuner additionally profiles the region
once to collect its PAPI counters (the paper's "dynamic" variant).

Inference uses the split encoder/head engine: the pooled graph embedding of
a region (independent of the power cap and other auxiliary features) is a
function of its code graph alone, and the graph is a function of a few
structural counts (:meth:`DatasetBuilder.structure_key`).  Embeddings are
held in an LRU cache keyed by (structure key, dtype), computed without
building the graph, so a repeated query on a region, and a never-seen
region whose structure was encoded before, skip code generation, graph
construction and the GNN: :meth:`PnPTuner.predict_sweep` then costs the key
and one dense-head batch over its power caps.  Every serving program is
compiled straight from ``tuner.model``, at any serving dtype.  One check
guards both caches: every entry point compares the model's parameter
arrays, by identity, against the snapshot the caches were built from, and a
weight change of any kind (``fit``, ``load_state_dict``, or a rebinding
behind the tuner's back) flushes them.  A region whose structure changes
under the same id misses the cache instead of serving a stale embedding.

:meth:`PnPTuner.predict_sweep_many` extends the amortisation across
*regions*: all cache-miss graphs of a multi-region sweep are collated into
one batch, encoded by a single GNN pass, and every (region, cap) pair is
scored through one dense-head product — the batched layer every fleet
node (:mod:`repro.serve`) serves its share through.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import DatasetBuilder, LabeledSample, TuningScenario
from repro.core.measurements import MeasurementDatabase, get_measurement_database
from repro.core.model import ModelConfig, PnPModel
from repro.core.search_space import SearchSpace
from repro.core.training import TrainingConfig, train_model
from repro.nn import precision
from repro.nn.data import collate_graphs
from repro.nn.inference import InferenceProgram
from repro.openmp.config import OpenMPConfig
from repro.openmp.region import RegionCharacteristics
from repro.utils.caching import LRUCache
from repro.utils.logging import get_logger

__all__ = ["TuningResult", "PnPTuner", "labels_to_performance_selections", "labels_to_edp_selections"]

_LOG = get_logger("core.tuner")


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning query."""

    region_id: str
    objective: str
    config: OpenMPConfig
    power_cap: Optional[float]
    label: int

    def describe(self) -> str:
        cap = f" @ {self.power_cap:.0f}W" if self.power_cap is not None else ""
        return f"{self.region_id}: {self.config.label()}{cap} (objective={self.objective})"


class PnPTuner:
    """Static (or static+counters) GNN-based OpenMP auto-tuner.

    Parameters
    ----------
    system:
        Target system name ("haswell" or "skylake").
    objective:
        ``"time"`` — fastest configuration at a prescribed power cap;
        ``"edp"`` — jointly choose power cap and configuration minimising EDP.
    include_counters:
        Add PAPI counters to the feature set (the paper's dynamic variant).
    model_config / training_config:
        Optional overrides of the network and optimisation hyperparameters.
    database:
        Measurement database used for labels; defaults to the shared per-
        process database over the full benchmark suite.
    seed:
        Controls weight initialisation, IR generation and shuffling.
    dtype:
        Model precision ("float64" default, "float32" fast path).  Overrides
        the ``model_config`` dtype when both are given.  Independently of the
        training precision, :meth:`predict_sweep` can serve a sweep at a
        different precision via its own ``dtype=`` argument (that program's
        weights are cast once, when it is compiled).
    """

    #: Capacity of the per-tuner pooled-embedding LRU cache (regions×dtypes).
    EMBEDDING_CACHE_SIZE = 512

    def __init__(
        self,
        system: str,
        objective: str = "time",
        include_counters: bool = False,
        model_config: Optional[ModelConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        database: Optional[MeasurementDatabase] = None,
        seed: int = 0,
        dtype: Optional[str] = None,
    ) -> None:
        if objective not in ("time", "edp"):
            raise ValueError("objective must be 'time' or 'edp'")
        self.system = system
        self.objective = objective
        self.include_counters = include_counters
        self.seed = seed
        self.database = database if database is not None else get_measurement_database(system, seed=seed)
        self.search_space: SearchSpace = self.database.search_space
        self.builder = DatasetBuilder(self.database, seed=seed)
        self.scenario = TuningScenario.PERFORMANCE if objective == "time" else TuningScenario.EDP

        num_classes = (
            self.search_space.num_omp_configurations
            if objective == "time"
            else self.search_space.num_joint_configurations
        )
        aux_dim = self.builder.aux_feature_dim(self.scenario, include_counters)
        default_optimizer = "adamw" if objective == "time" else "adam"
        self.model_config = model_config if model_config is not None else ModelConfig(
            vocabulary_size=len(self.builder.vocabulary),
            num_classes=num_classes,
            aux_dim=aux_dim,
            seed=seed,
        )
        if dtype is not None:
            self.model_config = replace(
                self.model_config, dtype=precision.resolve_dtype(dtype).name
            )
        self.training_config = training_config if training_config is not None else TrainingConfig(
            optimizer=default_optimizer, seed=seed
        )
        self.model = PnPModel(self.model_config)
        self._fitted = False
        # Parameter arrays the serving caches were built from (identity
        # snapshot): the one staleness check.  Every serving entry point
        # compares it against the model's current arrays, so a weight change
        # that bypasses the tuner (direct load_state_dict/astype/training on
        # self.model) flushes both caches below instead of serving stale
        # results.
        self._served_arrays: Optional[List[np.ndarray]] = None
        # Pooled graph embeddings are independent of the auxiliary features,
        # so repeated queries (and power-cap sweeps) on regions of one graph
        # structure reuse one GNN encoding.  Keys are (structure key, dtype).
        self._embedding_cache: LRUCache = LRUCache(maxsize=self.EMBEDDING_CACHE_SIZE)
        # Compiled inference programs (autograd-free raw-ndarray runtime),
        # keyed by serving dtype name, each compiled from self.model.
        self._programs: Dict[str, InferenceProgram] = {}
        # Micro-model runtimes (repro.distill.runtime.MicroRuntime) serving
        # through this tuner's head.  Weak: the tuner accounts for and sheds
        # their buffers (inference_cache_stats / clear_inference_buffers)
        # but never keeps a retired tier alive.
        self._micro_runtimes: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------ fit
    def build_training_samples(
        self, power_caps: Optional[Sequence[float]] = None
    ) -> List[LabeledSample]:
        """The labelled training set for the configured objective."""
        if self.objective == "time":
            return self.builder.performance_samples(
                power_caps=power_caps, include_counters=self.include_counters
            )
        return self.builder.edp_samples(include_counters=self.include_counters)

    def fit(
        self,
        samples: Optional[Sequence[LabeledSample]] = None,
        parameters=None,
    ) -> "PnPTuner":
        """Train the model (on the benchmark suite unless ``samples`` given)."""
        samples = list(samples) if samples is not None else self.build_training_samples()
        history = train_model(self.model, samples, self.training_config, parameters=parameters)
        self._fitted = True
        self._flush_serving_caches()
        _LOG.info(
            "PnP tuner fitted (%s, %s): final loss %.4f, accuracy %.3f",
            self.system,
            self.objective,
            history.final_loss,
            history.final_accuracy,
        )
        return self

    # -------------------------------------------------------------- predict
    def _program_for(self, dtype: Optional[str]) -> InferenceProgram:
        """The cached program serving at ``dtype`` (default: the model's).

        Programs are compiled lazily from ``self.model``, one per serving
        dtype, and live until the weights change: every entry point runs
        :meth:`_require_fitted` first, which flushes them.
        """
        resolved = self.model.dtype if dtype is None else precision.resolve_dtype(dtype)
        key = resolved.name
        program = self._programs.get(key)
        if program is None:
            program = self.model.compile_inference(key)
            self._programs[key] = program
        return program

    def compile_inference(self, dtype: Optional[str] = None) -> InferenceProgram:
        """Compile (and cache) the serving program at ``dtype``.

        Returns the same cached :class:`~repro.nn.inference.InferenceProgram`
        the tuner's ``predict`` / ``predict_sweep`` / ``predict_sweep_many``
        entry points execute, compiling it eagerly — serving replicas (e.g.
        :class:`repro.serve.NodeServer` registrations) call this at start-up
        so the first query pays no lowering cost.  Like every entry point it
        runs the staleness check first, so the program returned serves the
        weights ``self.model`` holds now.
        """
        self._require_fitted()
        return self._program_for(dtype)

    def _embedding_key(
        self, region: RegionCharacteristics, program: InferenceProgram
    ) -> Tuple[Tuple, str]:
        """LRU key of a region's pooled embedding: (structure key, dtype).

        :meth:`DatasetBuilder.structure_key` determines the region's encoded
        graph exactly, so regions with equal keys share one embedding,
        whatever their ids and other characteristics.
        """
        return (self.builder.structure_key(region), program.dtype.name)

    def predict(
        self, region: RegionCharacteristics, power_cap: Optional[float] = None
    ) -> TuningResult:
        """Tune one region (no execution of the region is required).

        Point predictions share the structure-keyed pooled-embedding cache
        with the sweep entry points: a query on a region whose graph
        structure was encoded before skips graph construction and the GNN
        entirely — the performance objective delegates to
        :meth:`predict_sweep`, and the EDP path then builds only the
        auxiliary feature row.
        """
        self._require_fitted()
        if self.objective == "time":
            if power_cap is None:
                raise ValueError("power_cap is required for the performance scenario")
            return self.predict_sweep(region, [power_cap])[0]
        program = self._program_for(None)
        key = self._embedding_key(region, program)
        pooled = self._embedding_cache.get(key)
        if pooled is None:
            sample = self.builder.inference_sample(region, scenario=self.scenario)
            pooled = program.encode_pooled(collate_graphs([sample.sample]))
            self._embedding_cache.put(key, pooled)
        aux = self.builder.edp_aux_features(region, self.include_counters)
        label = int(program.predict_from_pooled(pooled, aux[None, :])[0])
        return self._result_from_label(region.region_id, label, power_cap)

    def predict_sweep(
        self,
        region: RegionCharacteristics,
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
    ) -> List[TuningResult]:
        """Tune one region at many power caps with a single graph encoding.

        ``predict_sweep_many([region], power_caps, dtype=dtype)[0]``: the
        GNN encoder runs (at most) once — reusing the pooled-embedding
        cache when warm — and all cap candidates are batched through the
        dense head.  Only meaningful for the ``"time"`` objective, where the
        power cap is an auxiliary input; the EDP model chooses the cap
        itself, so use :meth:`predict` there.

        ``dtype`` overrides the serving precision for this sweep: the
        program at that dtype is compiled from ``self.model`` with each
        weight cast once (and cached until the weights change), and the
        encoding + dense-head batch run entirely at that precision — e.g.
        ``dtype="float32"`` halves the sweep's memory traffic on a
        float64-trained tuner.
        """
        return self.predict_sweep_many([region], power_caps, dtype=dtype)[0]

    def predict_sweep_many(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
    ) -> List[List[TuningResult]]:
        """Sweep many regions at many power caps with one batched encoding.

        The fleet-serving entry point: all cache-miss region graphs are
        collated into a *single* batch and encoded by one GNN forward pass
        (one :class:`~repro.nn.data.EdgePlan`, one set of matrix products for
        R graphs instead of R), the pooled rows are split back into the
        per-(region, dtype) LRU cache, and every (region, cap) pair is scored
        through a single dense-head batch.  Results are returned per region,
        in input order — element ``i`` equals ``predict_sweep(regions[i],
        power_caps, dtype=dtype)``, and on this suite's graphs the batched
        encoding is bit-identical to the per-region path (row-independent
        kernels; see ``tests/core/test_sweep_many.py``).

        Regions of one graph structure (equal
        :meth:`DatasetBuilder.structure_key`) are encoded once, in this call
        and across calls while their embedding stays cached.  ``dtype``
        overrides the serving precision exactly as in :meth:`predict_sweep`.
        The collated miss batch lives for this call only: it holds only
        structures the cache has not seen, so its ``EdgePlan`` and the arena
        the compiled program binds to it are freed on return, and only the
        pooled rows stay (in the bounded embedding cache).
        """
        self._require_fitted()
        if self.objective != "time":
            raise ValueError(
                "predict_sweep_many sweeps the power-cap auxiliary input and "
                "needs objective='time'; the EDP objective picks the cap "
                "itself — use predict()"
            )
        regions = list(regions)
        caps = [float(cap) for cap in power_caps]
        if not regions:
            return []
        if not caps:
            return [[] for _ in regions]
        program = self._program_for(dtype)
        keys = [self._embedding_key(region, program) for region in regions]

        # Collect the cache-miss regions (first occurrence of each key only).
        miss_keys: List[Tuple[Tuple, str]] = []
        miss_regions: List[RegionCharacteristics] = []
        pooled_by_key: Dict[Tuple[Tuple, str], np.ndarray] = {}
        for region, key in zip(regions, keys):
            if key in pooled_by_key:
                continue
            cached = self._embedding_cache.get(key)
            if cached is not None:
                pooled_by_key[key] = cached
                continue
            miss_keys.append(key)
            miss_regions.append(region)
            pooled_by_key[key] = np.empty(0)  # placeholder, filled below

        if miss_keys:
            # The encoder reads no auxiliary features: no counters needed.
            batch = collate_graphs(
                [
                    self.builder.inference_sample(region, power_cap=caps[0]).sample
                    for region in miss_regions
                ]
            )
            pooled = program.encode_pooled(batch)
            for row_index, key in enumerate(miss_keys):
                # Copy so a cached row doesn't pin the whole batch array.
                row = pooled[row_index : row_index + 1].copy()
                pooled_by_key[key] = row
                self._embedding_cache.put(key, row)

        # One dense-head batch over all R x C (region, cap) pairs.
        rows = np.concatenate(
            [np.repeat(pooled_by_key[key], len(caps), axis=0) for key in keys]
        )
        if not self.include_counters:
            # Static features: the aux rows carry only the normalised caps
            # and are identical for every region — build once, tile R times.
            aux = np.tile(
                self.builder.aux_feature_matrix(regions[0], caps), (len(regions), 1)
            )
        else:
            aux = np.concatenate(
                [
                    self.builder.aux_feature_matrix(region, caps, include_counters=True)
                    for region in regions
                ]
            )
        labels = program.predict_from_pooled(rows, aux)
        results: List[List[TuningResult]] = []
        for region_index, region in enumerate(regions):
            offset = region_index * len(caps)
            results.append(
                [
                    self._result_from_label(
                        region.region_id, int(labels[offset + cap_index]), cap
                    )
                    for cap_index, cap in enumerate(caps)
                ]
            )
        return results

    def _result_from_label(
        self, region_id: str, label: int, power_cap: Optional[float]
    ) -> TuningResult:
        if self.objective == "time":
            if power_cap is None:
                raise ValueError("power_cap is required for the 'time' objective")
            config = self.search_space.config_from_index(label)
            return TuningResult(region_id, self.objective, config, float(power_cap), label)
        cap, config = self.search_space.joint_from_index(label)
        return TuningResult(region_id, self.objective, config, cap, label)

    def _require_fitted(self) -> None:
        """Entry gate of every serving call: fitted, and caches current.

        Beyond the fitted check, this is the tuner's one staleness check:
        it compares the model's parameter arrays (by identity) against the
        snapshot the serving caches were built from.  A mismatch means the
        weights were rebound behind the tuner's back, so the embedding cache
        and the compiled programs are flushed before serving.
        """
        if not self._fitted:
            raise RuntimeError("PnPTuner.predict called before fit()")
        params = self.model.parameters()  # cached flat list: no tree walk
        served = self._served_arrays
        if len(params) != len(served) or any(
            param.data is not array for param, array in zip(params, served)
        ):
            self._flush_serving_caches()

    def _flush_serving_caches(self) -> None:
        """Drop every weights-derived cache and snapshot the current weights."""
        self._embedding_cache.clear()
        self._programs.clear()
        self._served_arrays = [param.data for param in self.model.parameters()]

    # ------------------------------------------------------------- weights
    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)
        self._fitted = True
        self._flush_serving_caches()

    # ----------------------------------------------------- inference buffers
    def attach_micro_runtime(self, runtime) -> None:
        """Register a micro-model runtime serving through this tuner.

        :class:`repro.distill.runtime.MicroRuntime` calls this on
        construction; the tuner then folds the runtime's buffers into
        :meth:`inference_cache_stats` and sheds them in
        :meth:`clear_inference_buffers` — so a serving node's ``"clear"``
        (and the buffer shedding after rolling weight updates) covers both
        tiers.  The registry holds weak references only.
        """
        self._micro_runtimes.add(runtime)

    def inference_cache_stats(self) -> Dict[str, int]:
        """Sizes of the compiled-inference buffer caches, entries and bytes.

        Aggregates :meth:`InferenceProgram.buffer_stats` across the tuner's
        compiled programs (one per served dtype) — bound plans, arena
        buffers/bytes, head workspaces — plus the entry count of the embedding
        cache and the buffers of every attached micro-model runtime
        (``micro_*`` keys).  Arenas are keyed by weakly-referenced
        ``EdgePlan``s and the tuner keeps no batch past a call, so between
        calls ``bound_plans`` and ``arena_bytes`` count only plans a caller
        still holds; head workspaces, keyed by row count, stay.
        """
        stats = {
            "programs": len(self._programs),
            "bound_plans": 0,
            "arena_buffers": 0,
            "arena_bytes": 0,
            "head_workspaces": 0,
            "head_bytes": 0,
            "embedding_cache_entries": len(self._embedding_cache),
            "micro_runtimes": 0,
            "micro_programs": 0,
            "micro_workspaces": 0,
            "micro_bytes": 0,
        }
        for program in self._programs.values():
            for key, value in program.buffer_stats().items():
                stats[key] += value
        for runtime in list(self._micro_runtimes):
            stats["micro_runtimes"] += 1
            for key, value in runtime.buffer_stats().items():
                stats[key] += value
        return stats

    def clear_inference_buffers(self) -> None:
        """Shed every compiled-inference buffer (arenas, head workspaces).

        Keeps the compiled programs themselves (lowering is cheap to reuse,
        holds only parameter references) but drops their per-row-count head
        workspaces and any arena bound to a plan a caller still holds (the
        tuner's own sweeps free theirs on return).  Attached micro-model
        runtimes are shed too, so both serving tiers drop to their
        weight-only footprint.  Long-lived :class:`repro.serve.NodeServer`s
        call this after rolling weight updates so superseded buffers are
        reclaimed immediately; everything is rebuilt lazily on the next
        query.
        """
        for program in self._programs.values():
            program.clear_buffers()
        for runtime in list(self._micro_runtimes):
            runtime.clear_buffers()


# ------------------------------------------------------- label → selection
def labels_to_performance_selections(
    predictions: Mapping[Tuple[str, Optional[float]], int], search_space: SearchSpace
) -> Dict[Tuple[str, float], OpenMPConfig]:
    """Convert scenario-1 predicted labels into configuration selections."""
    selections: Dict[Tuple[str, float], OpenMPConfig] = {}
    for (region_id, cap), label in predictions.items():
        if cap is None:
            raise ValueError("performance predictions must carry a power cap")
        selections[(region_id, float(cap))] = search_space.config_from_index(int(label))
    return selections


def labels_to_edp_selections(
    predictions: Mapping[Tuple[str, Optional[float]], int], search_space: SearchSpace
) -> Dict[str, Tuple[float, OpenMPConfig]]:
    """Convert scenario-2 predicted labels into (cap, configuration) selections."""
    selections: Dict[str, Tuple[float, OpenMPConfig]] = {}
    for (region_id, _cap), label in predictions.items():
        cap, config = search_space.joint_from_index(int(label))
        selections[region_id] = (cap, config)
    return selections
