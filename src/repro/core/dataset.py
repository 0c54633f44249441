"""Dataset construction for the PnP tuner.

For every OpenMP region the builder produces a flow-aware code graph (via the
IR code generator, the outliner and the PROGRAML-style graph builder) plus a
class label obtained from the measurement database:

* **performance scenario** — one sample per (region, power cap); the label is
  the index of the fastest configuration at that cap and the auxiliary
  feature vector carries the normalised power cap (plus, for the "dynamic"
  model variant, the five PAPI counters of Section IV-B);
* **EDP scenario** — one sample per region; the label is the joint
  (power cap, configuration) index minimising the energy-delay product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchsuite.codegen import (
    generate_application_module,
    region_function_name,
    structure_key,
)
from repro.benchsuite.registry import regions_by_application
from repro.core.measurements import MeasurementDatabase
from repro.core.search_space import SearchSpace
from repro.graphs.encoder import GraphEncoder
from repro.graphs.flowgraph import FlowGraph
from repro.graphs.programl import build_flow_graph
from repro.graphs.vocabulary import Vocabulary, build_default_vocabulary
from repro.nn import precision
from repro.ir.outline import extract_outlined_regions
from repro.nn.data import GraphSample
from repro.openmp.region import RegionCharacteristics
from repro.utils.caching import LRUCache
from repro.utils.logging import get_logger

__all__ = ["TuningScenario", "LabeledSample", "DatasetBuilder"]

_LOG = get_logger("core.dataset")

#: How many graph structures of never-seen regions (ids outside a builder's
#: suite) keep their encoded sample between queries, least recently used out
#: first.  Sized like :attr:`repro.core.tuner.PnPTuner.EMBEDDING_CACHE_SIZE`.
NOVEL_REGION_CACHE_SIZE = 512


class TuningScenario(enum.Enum):
    """The two tuning objectives of the paper."""

    PERFORMANCE = "performance"   # fastest execution at a given power cap
    EDP = "edp"                   # minimise energy-delay product over caps × configs


@dataclass(eq=False)
class LabeledSample:
    """One training/validation sample: a graph plus labelling metadata."""

    sample: GraphSample
    region_id: str
    application: str
    scenario: TuningScenario
    power_cap: Optional[float] = None

    @property
    def label(self) -> int:
        return self.sample.label


@dataclass(eq=False)
class _RegionState:
    """What a builder keeps of one suite region between queries."""

    key: Tuple  # structure key of the region's current graph
    sample: Optional[GraphSample] = None  # structural: label- and aux-free


class DatasetBuilder:
    """Builds graph datasets for the two tuning scenarios.

    Suite regions keep their flow graphs (:meth:`region_graphs`) for
    training.  Never-seen regions queried through :meth:`inference_sample`
    share encoded samples by graph structure (:meth:`structure_key`): one
    LRU of :data:`NOVEL_REGION_CACHE_SIZE` label-free samples, keyed by
    structure, so a region whose structure was seen before skips code
    generation, graph build and encoding, and serving memory follows the
    working set of structures rather than every region seen.  An evicted
    structure is rebuilt on its next query with the same result.  Inference
    never registers a region in the measurement database: PAPI counters are
    profiled from the region itself.

    Parameters
    ----------
    database:
        Measurement database providing the labels (and PAPI counters).
    vocabulary:
        Token vocabulary; defaults to the closed default vocabulary so token
        ids are identical across systems (a requirement for transfer
        learning).
    regions_by_app:
        Mapping application → regions; defaults to the full benchmark suite.
    seed:
        Seed forwarded to the IR code generator.
    """

    def __init__(
        self,
        database: MeasurementDatabase,
        vocabulary: Optional[Vocabulary] = None,
        regions_by_app: Optional[Dict[str, List[RegionCharacteristics]]] = None,
        seed: int = 0,
        soft_target_temperature: Optional[float] = 0.05,
    ) -> None:
        """``soft_target_temperature`` controls the near-optimal soft labels.

        The hard label is always the argmin configuration; additionally, a
        target distribution ``p_i ∝ exp(-(m_i / m_best - 1) / τ)`` (with
        ``m`` the measured time or EDP) is attached so training can reward
        *every* near-optimal configuration.  Set it to ``None`` to train on
        hard labels only (plain cross-entropy on the argmin class).
        """
        if soft_target_temperature is not None and soft_target_temperature <= 0:
            raise ValueError("soft_target_temperature must be positive or None")
        self.soft_target_temperature = soft_target_temperature
        self.database = database
        self.search_space: SearchSpace = database.search_space
        self.vocabulary = vocabulary if vocabulary is not None else build_default_vocabulary()
        self.encoder = GraphEncoder(self.vocabulary)
        self._regions_by_app = (
            dict(regions_by_app) if regions_by_app is not None else regions_by_application()
        )
        self.seed = seed
        self._graphs: Optional[Dict[str, FlowGraph]] = None
        # Suite regions keep their state by id for good; the structure key
        # catches one re-submitted under its id with a different structure,
        # whose graph and sample are rebuilt instead of serving the stale
        # one.  Never-seen regions share samples by structure key.  Samples
        # are memoised because vocabulary encoding is a Python token loop
        # that cold sweeps over many regions shouldn't pay per query.
        self._suite_state: Dict[str, _RegionState] = {}
        self._novel_samples = LRUCache(maxsize=NOVEL_REGION_CACHE_SIZE)

    # ---------------------------------------------------------------- graphs
    def region_graphs(self) -> Dict[str, FlowGraph]:
        """Flow graph of every suite region (built once, keyed by region id)."""
        if self._graphs is not None:
            return self._graphs
        graphs: Dict[str, FlowGraph] = {}
        for application, regions in self._regions_by_app.items():
            module = generate_application_module(application, list(regions), seed=self.seed)
            outlined = extract_outlined_regions(module)
            for region in regions:
                function_name = region_function_name(region)
                if function_name not in outlined:
                    raise RuntimeError(
                        f"outlined function {function_name!r} missing for region {region.region_id!r}"
                    )
                graphs[region.region_id] = build_flow_graph(
                    outlined[function_name], name=region.region_id
                )
                self._suite_state[region.region_id] = _RegionState(
                    self.structure_key(region)
                )
        self._graphs = graphs
        _LOG.info("built %d region graphs", len(graphs))
        return graphs

    def regions(self) -> List[RegionCharacteristics]:
        return [r for regions in self._regions_by_app.values() for r in regions]

    @property
    def regions_by_app(self) -> Dict[str, List[RegionCharacteristics]]:
        """The application → regions mapping this builder covers (a copy)."""
        return {app: list(regions) for app, regions in self._regions_by_app.items()}

    def applications(self) -> List[str]:
        return list(self._regions_by_app)

    def structure_key(self, region: RegionCharacteristics) -> Tuple:
        """:func:`repro.benchsuite.codegen.structure_key` at this builder's seed.

        Regions with equal keys get byte-equal encoded samples from
        :meth:`inference_sample` (up to their ids and auxiliary features).
        """
        return structure_key(region, self.seed)

    # -------------------------------------------------------------- counters
    def performance_counters(self, region: RegionCharacteristics) -> np.ndarray:
        """Normalised PAPI counters of ``region`` (profiled at the default config).

        The paper's dynamic variant needs two profiling executions per region
        at inference time; here the counters are deterministic functions of
        the region and machine, profiled from the region itself on every
        call (tens of microseconds), so the region need not be registered in
        the measurement database.
        """
        return self.database.engine.profile_counters(
            region, self.search_space.default_configuration
        ).normalized()

    # --------------------------------------------------------------- samples
    def performance_samples(
        self,
        power_caps: Optional[Sequence[float]] = None,
        include_counters: bool = False,
    ) -> List[LabeledSample]:
        """Samples for the power-constrained performance scenario."""
        caps = tuple(power_caps) if power_caps is not None else self.search_space.power_caps
        graphs = self.region_graphs()
        samples: List[LabeledSample] = []
        for application, regions in self._regions_by_app.items():
            for region in regions:
                for cap in caps:
                    label = self.database.label_by_time(region.region_id, cap)
                    aux = self._aux_features(region, cap, include_counters)
                    graph_sample = self.encoder.encode(
                        graphs[region.region_id],
                        label=label,
                        aux_features=aux,
                        region_id=region.region_id,
                    )
                    graph_sample.target_distribution = self._performance_soft_target(
                        region.region_id, cap
                    )
                    samples.append(
                        LabeledSample(
                            sample=graph_sample,
                            region_id=region.region_id,
                            application=application,
                            scenario=TuningScenario.PERFORMANCE,
                            power_cap=cap,
                        )
                    )
        return samples

    def edp_samples(self, include_counters: bool = False) -> List[LabeledSample]:
        """Samples for the EDP scenario (one per region)."""
        graphs = self.region_graphs()
        samples: List[LabeledSample] = []
        for application, regions in self._regions_by_app.items():
            for region in regions:
                label = self.database.label_by_edp(region.region_id)
                aux = self._edp_aux_features(region, include_counters)
                graph_sample = self.encoder.encode(
                    graphs[region.region_id],
                    label=label,
                    aux_features=aux,
                    region_id=region.region_id,
                )
                graph_sample.target_distribution = self._edp_soft_target(region.region_id)
                samples.append(
                    LabeledSample(
                        sample=graph_sample,
                        region_id=region.region_id,
                        application=application,
                        scenario=TuningScenario.EDP,
                        power_cap=None,
                    )
                )
        return samples

    def inference_sample(
        self,
        region: RegionCharacteristics,
        power_cap: Optional[float] = None,
        include_counters: bool = False,
        scenario: TuningScenario = TuningScenario.PERFORMANCE,
    ) -> LabeledSample:
        """Build an unlabeled sample for a (possibly unseen) region.

        The graph part is shared by structure (:meth:`structure_key`): a
        never-seen region whose structure was queried before reuses that
        encoded sample, and a suite region re-submitted under its id with a
        different structure gets a freshly generated graph, which replaces
        its entry in :meth:`region_graphs`, so no stale structure leaks into
        the prediction.  The sample carries this region's id and auxiliary
        features, exactly as a fresh ``encoder.encode`` call would build it.
        The measurement database is not touched.
        """
        if scenario == TuningScenario.PERFORMANCE:
            if power_cap is None:
                raise ValueError("power_cap is required for the performance scenario")
            aux = self._aux_features(region, power_cap, include_counters)
        else:
            aux = self._edp_aux_features(region, include_counters)
        # The memoised index arrays by reference, the query's id and
        # auxiliary features attached.
        graph_sample = replace(
            self._structural_sample(region), aux_features=aux, region_id=region.region_id
        )
        return LabeledSample(
            sample=graph_sample,
            region_id=region.region_id,
            application=region.application,
            scenario=scenario,
            power_cap=power_cap,
        )

    def _structural_sample(self, region: RegionCharacteristics) -> GraphSample:
        """The label- and aux-free encoded sample of ``region``'s graph."""
        graphs = self.region_graphs()
        key = self.structure_key(region)
        state = self._suite_state.get(region.region_id)
        if state is None:
            sample = self._novel_samples.get(key)
            if sample is None:
                sample = self.encoder.encode(
                    self._build_graph(region), region_id=region.region_id
                )
                self._novel_samples.put(key, sample)
            return sample
        if state.key != key:  # re-submitted under a suite id, restructured
            graphs[region.region_id] = self._build_graph(region)
            state = self._suite_state[region.region_id] = _RegionState(key)
        if state.sample is None:  # the region's first inference query
            state.sample = self.encoder.encode(
                graphs[region.region_id], region_id=region.region_id
            )
        return state.sample

    def _build_graph(self, region: RegionCharacteristics) -> FlowGraph:
        """Generate, outline and lower ``region`` on its own."""
        module = generate_application_module(region.application, [region], seed=self.seed)
        outlined = extract_outlined_regions(module)
        return build_flow_graph(outlined[region_function_name(region)], name=region.region_id)

    # -------------------------------------------------------- feature vectors
    def aux_feature_matrix(
        self,
        region: RegionCharacteristics,
        power_caps: Sequence[float],
        include_counters: bool = False,
    ) -> np.ndarray:
        """Auxiliary feature rows for sweeping many power caps on one region.

        Used by :meth:`repro.core.tuner.PnPTuner.predict_sweep` to batch all
        cap candidates through the dense head after a single graph encoding.
        The counters, when included, are profiled once for all rows.
        """
        counters = self.performance_counters(region).tolist() if include_counters else []
        return np.asarray(
            [[self.search_space.normalized_cap(cap), *counters] for cap in power_caps],
            dtype=precision.get_default_dtype(),
        )

    def edp_aux_features(
        self, region: RegionCharacteristics, include_counters: bool = False
    ) -> np.ndarray:
        """Auxiliary feature row of one EDP-scenario query.

        Used by the tuner's warm ``predict`` path: when a region's pooled
        embedding is already cached (same graph structure), the aux row is
        the only per-query input left, so the full inference sample need
        not be rebuilt.
        """
        return self._edp_aux_features(region, include_counters)

    def aux_feature_dim(self, scenario: TuningScenario, include_counters: bool) -> int:
        """Dimensionality of the auxiliary feature vector for a scenario."""
        if scenario == TuningScenario.PERFORMANCE:
            return 1 + (5 if include_counters else 0)
        return 1 + (5 if include_counters else 0)

    def _soft_distribution(self, metrics: np.ndarray) -> Optional[np.ndarray]:
        """Near-optimal target distribution over classes from measured metrics."""
        if self.soft_target_temperature is None:
            return None
        metrics = np.asarray(metrics, dtype=precision.get_default_dtype())
        best = metrics.min()
        relative = metrics / best - 1.0
        weights = np.exp(-relative / self.soft_target_temperature)
        return weights / weights.sum()

    def _performance_soft_target(self, region_id: str, cap: float) -> Optional[np.ndarray]:
        if self.soft_target_temperature is None:
            return None
        times = np.array([r.time_s for r in self.database.sweep_region(region_id, cap)])
        return self._soft_distribution(times)

    def _edp_soft_target(self, region_id: str) -> Optional[np.ndarray]:
        if self.soft_target_temperature is None:
            return None
        edps = []
        for cap in self.search_space.power_caps:
            edps.extend(r.edp for r in self.database.sweep_region(region_id, cap))
        return self._soft_distribution(np.array(edps))

    def _aux_features(
        self, region: RegionCharacteristics, cap: float, include_counters: bool
    ) -> np.ndarray:
        features = [self.search_space.normalized_cap(cap)]
        if include_counters:
            features.extend(self.performance_counters(region).tolist())
        # Ingest boundary: auxiliary features adopt the active policy dtype.
        return np.asarray(features, dtype=precision.get_default_dtype())

    def _edp_aux_features(
        self, region: RegionCharacteristics, include_counters: bool
    ) -> np.ndarray:
        # The EDP model chooses the cap itself; its auxiliary input carries a
        # constant bias slot (so static and dynamic variants share the code
        # path) plus, optionally, the counters.
        features = [1.0]
        if include_counters:
            features.extend(self.performance_counters(region).tolist())
        return np.asarray(features, dtype=precision.get_default_dtype())
