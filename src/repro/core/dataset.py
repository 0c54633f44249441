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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.benchsuite.codegen import generate_application_module, region_function_name
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

#: How many never-seen regions (ids outside a builder's suite) keep their
#: per-region state between queries, least recently used out first.  Sized
#: like :attr:`repro.core.tuner.PnPTuner.EMBEDDING_CACHE_SIZE`.
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
    """What a builder keeps of one region between queries."""

    fingerprint: str  # content the graph, sample and counters derive from
    sample: Optional[GraphSample] = None  # structural: label- and aux-free
    counters: Optional[np.ndarray] = None  # normalised PAPI counters


class DatasetBuilder:
    """Builds graph datasets for the two tuning scenarios.

    Suite regions keep their flow graphs (:meth:`region_graphs`) for
    training.  A never-seen region queried through :meth:`inference_sample`
    keeps only its small per-region state — content fingerprint, encoded
    structural sample, PAPI counters — in an LRU of
    :data:`NOVEL_REGION_CACHE_SIZE` entries, and its graph is dropped once
    encoded, so serving memory follows the working set rather than every
    region seen.  An evicted region is rebuilt on its next query with the
    same result.  Its registration in the measurement database stays.

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
        # Per-region state by id, suite regions for good and never-seen ones
        # in the LRU.  The fingerprint catches a region re-submitted under
        # the same id with different characteristics: its graph, sample and
        # counters are rebuilt instead of serving the stale structure.  The
        # sample is memoised because vocabulary encoding is a Python token
        # loop that cold sweeps over many regions shouldn't pay per query.
        self._suite_state: Dict[str, _RegionState] = {}
        self._novel_state = LRUCache(maxsize=NOVEL_REGION_CACHE_SIZE)

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
                self._suite_state[region.region_id] = _RegionState(region.fingerprint())
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

    # -------------------------------------------------------------- counters
    def performance_counters(self, region_id: str) -> np.ndarray:
        """Normalised PAPI counters of a region (profiled at the default config).

        The paper's dynamic variant needs two profiling executions per region
        at inference time; here the counters are deterministic functions of
        the region and machine, profiled once and kept with the region's
        state (re-profiled, with the same result, once that is evicted).
        """
        state = self._region_state(region_id)
        if state is not None and state.counters is not None:
            return state.counters
        counters = self.database.engine.profile_counters(
            self.database.region(region_id), self.search_space.default_configuration
        ).normalized()
        if state is not None:
            state.counters = counters
        return counters

    def _region_state(self, region_id: str) -> Optional[_RegionState]:
        """The kept state of a region: ``None`` if never seen or evicted."""
        state = self._suite_state.get(region_id)
        return state if state is not None else self._novel_state.get(region_id)

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
                    aux = self._aux_features(region.region_id, cap, include_counters)
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
                aux = self._edp_aux_features(region.region_id, include_counters)
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

        Region state is kept per region id *and* content fingerprint: a
        region re-submitted under a known id with changed characteristics
        gets a freshly generated graph (and its cached PAPI counters
        dropped), and the measurement database's registration is updated,
        so no stale structure leaks into the prediction.  A suite region's
        new graph replaces its entry in :meth:`region_graphs`; a never-seen
        region's graph is dropped once encoded (see the class docstring).
        """
        graphs = self.region_graphs()
        fingerprint = region.fingerprint()
        state = self._region_state(region.region_id)
        if state is None or state.fingerprint != fingerprint:
            module = generate_application_module(region.application, [region], seed=self.seed)
            outlined = extract_outlined_regions(module)
            graph = build_flow_graph(outlined[region_function_name(region)], name=region.region_id)
            sample = self.encoder.encode(graph, label=-1, region_id=region.region_id)
            state = _RegionState(fingerprint, sample)
            if region.region_id in graphs:
                graphs[region.region_id] = graph
                self._suite_state[region.region_id] = state
            else:
                self._novel_state.put(region.region_id, state)
            self.database.add_region(region)
        elif state.sample is None:  # a suite region's first inference query
            state.sample = self.encoder.encode(
                graphs[region.region_id], label=-1, region_id=region.region_id
            )
        if scenario == TuningScenario.PERFORMANCE:
            if power_cap is None:
                raise ValueError("power_cap is required for the performance scenario")
            aux = self._aux_features(region.region_id, power_cap, include_counters)
        else:
            aux = self._edp_aux_features(region.region_id, include_counters)
        # Per-query sample: the memoised index arrays by reference, the
        # query's auxiliary features attached — exactly the sample a fresh
        # ``encoder.encode`` call would build.
        graph_sample = replace(state.sample, aux_features=aux)
        return LabeledSample(
            sample=graph_sample,
            region_id=region.region_id,
            application=region.application,
            scenario=scenario,
            power_cap=power_cap,
        )

    # -------------------------------------------------------- feature vectors
    def aux_feature_matrix(
        self,
        region_id: str,
        power_caps: Sequence[float],
        include_counters: bool = False,
    ) -> np.ndarray:
        """Auxiliary feature rows for sweeping many power caps on one region.

        Used by :meth:`repro.core.tuner.PnPTuner.predict_sweep` to batch all
        cap candidates through the dense head after a single graph encoding.
        """
        return np.stack(
            [self._aux_features(region_id, cap, include_counters) for cap in power_caps]
        )

    def edp_aux_features(self, region_id: str, include_counters: bool = False) -> np.ndarray:
        """Auxiliary feature row of one EDP-scenario query.

        Used by the tuner's warm ``predict`` path: when a region's pooled
        embedding is already cached (same id *and* content fingerprint), the
        aux row is the only per-query input left, so the full inference
        sample need not be rebuilt.  Requires the region to be registered
        (any cold query on it registers it first).
        """
        return self._edp_aux_features(region_id, include_counters)

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

    def _aux_features(self, region_id: str, cap: float, include_counters: bool) -> np.ndarray:
        features = [self.search_space.normalized_cap(cap)]
        if include_counters:
            features.extend(self.performance_counters(region_id).tolist())
        # Ingest boundary: auxiliary features adopt the active policy dtype.
        return np.asarray(features, dtype=precision.get_default_dtype())

    def _edp_aux_features(self, region_id: str, include_counters: bool) -> np.ndarray:
        # The EDP model chooses the cap itself; its auxiliary input carries a
        # constant bias slot (so static and dynamic variants share the code
        # path) plus, optionally, the counters.
        features = [1.0]
        if include_counters:
            features.extend(self.performance_counters(region_id).tolist())
        return np.asarray(features, dtype=precision.get_default_dtype())
