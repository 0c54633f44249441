"""Graph datasets, block-diagonal batching, edge plans and the data loader.

A :class:`GraphSample` holds one flow graph in index form (token ids, node
types, relation-typed edges) plus a label and optional auxiliary feature
vector (normalised power cap, PAPI counters for the "dynamic" model variant).
:func:`collate_graphs` merges several samples into one large disconnected
graph (the PyTorch-Geometric batching trick), which lets the RGCN process a
minibatch with a single set of matrix operations.

Two batch-level precomputations back the compiled message-passing engine:

* :class:`EdgePlan` — the per-relation edge grouping (source/destination
  index arrays and the :math:`1/|N_r(i)|` normalisation per edge) together
  with the per-graph node counts used by the pooling read-out.  The plan is
  built lazily, exactly once per batch, via :meth:`GraphBatch.edge_plan`;
  every RGCN layer and the pooling layer then consume the same plan instead
  of re-deriving relation masks, in-degrees and normalisations per layer.
  Plan-driven and naive execution are bit-identical because the per-relation
  edge order and every floating-point operation are preserved.
* **Collate-once batching** — :class:`GraphDataLoader` concatenates the
  whole dataset into flat arrays a single time and materialises each
  minibatch by re-indexing those arrays (shuffling permutes sample indices
  only).  The emitted batches are bit-identical to calling
  :func:`collate_graphs` per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import precision
from repro.nn._scatter import (
    SegmentSchedule,
    build_segment_schedule,
    count_index,
    flat_scatter_index,
)

__all__ = [
    "GraphSample",
    "GraphBatch",
    "EdgePlan",
    "build_edge_plan",
    "collate_graphs",
    "GraphDataLoader",
]


@dataclass(eq=False)
class GraphSample:
    """One code-region graph prepared for the model.

    Attributes
    ----------
    token_ids:
        Vocabulary index of each node's IR token, shape ``(num_nodes,)``.
    node_types:
        Node kind index (instruction / variable / constant), shape
        ``(num_nodes,)``.
    edge_index:
        ``(2, num_edges)`` source/destination node indices.
    edge_type:
        ``(num_edges,)`` relation index (control / data / call).
    label:
        Integer class label (index into the configuration space), or -1 when
        unknown (pure inference).
    aux_features:
        Optional per-graph auxiliary features appended to the pooled graph
        vector before the dense classifier (e.g. normalised power cap and
        performance counters).
    target_distribution:
        Optional soft label: a probability distribution over the classes in
        which every near-optimal configuration receives mass.  When present
        (and enabled in the training configuration) it replaces the hard
        ``label`` in the loss; ``label`` stays the argmin class for accuracy
        reporting.
    region_id:
        Identifier of the OpenMP region this graph was built from.
    """

    token_ids: np.ndarray
    node_types: np.ndarray
    edge_index: np.ndarray
    edge_type: np.ndarray
    label: int = -1
    aux_features: Optional[np.ndarray] = None
    target_distribution: Optional[np.ndarray] = None
    region_id: str = ""

    def __post_init__(self) -> None:
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.node_types = np.asarray(self.node_types, dtype=np.int64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        self.edge_type = np.asarray(self.edge_type, dtype=np.int64)
        if self.aux_features is not None:
            self.aux_features = np.asarray(
                self.aux_features, dtype=precision.get_default_dtype()
            )
        if self.target_distribution is not None:
            self.target_distribution = np.asarray(
                self.target_distribution, dtype=precision.get_default_dtype()
            )
            total = self.target_distribution.sum()
            if total <= 0:
                raise ValueError("target_distribution must have positive mass")
            self.target_distribution = self.target_distribution / total
        if self.token_ids.shape != self.node_types.shape:
            raise ValueError("token_ids and node_types must have the same length")
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, num_edges)")
        if self.edge_type.shape[0] != self.edge_index.shape[1]:
            raise ValueError("edge_type must have one entry per edge")
        if self.num_nodes == 0:
            raise ValueError("graph must have at least one node")
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise ValueError("edge references a non-existent node")

    @property
    def num_nodes(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])


@dataclass(eq=False)
class EdgePlan:
    """Precompiled per-batch message-passing schedule.

    For every relation ``r`` the plan stores the source/destination node
    indices of the relation's edges (in the batch's original edge order, so
    scatter accumulation is bit-identical to the naive masked path) and the
    per-edge normalisation column ``1 / |N_r(dst)|``.  The per-graph node
    counts feed the pooling read-out.  One plan is shared by every RGCN layer
    of a forward pass.

    ``dtype`` is the precision of the normalisation columns; plans are cached
    per (arity, dtype) on their batch, so a float32 model and a float64 model
    can share one batch without promoting each other.
    """

    num_nodes: int
    num_relations: int
    relation_src: Tuple[np.ndarray, ...]
    relation_dst: Tuple[np.ndarray, ...]
    relation_norm: Tuple[np.ndarray, ...]
    graph_node_counts: np.ndarray
    batch_vector: np.ndarray
    dtype: np.dtype = np.float64
    _flat_cache: Dict[Tuple[str, int, int], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _segment_cache: Dict[Tuple[str, int], SegmentSchedule] = field(
        default_factory=dict, repr=False
    )

    def scatter_flat(self, relation: int, channels: int) -> np.ndarray:
        """Memoised flat (node, channel) bins for the relation's dst scatter."""
        key = ("dst", relation, channels)
        flat = self._flat_cache.get(key)
        if flat is None:
            flat = flat_scatter_index(self.relation_dst[relation], channels)
            self._flat_cache[key] = flat
        return flat

    def gather_flat(self, relation: int, channels: int) -> np.ndarray:
        """Memoised flat bins for the relation's src gather backward-scatter."""
        key = ("src", relation, channels)
        flat = self._flat_cache.get(key)
        if flat is None:
            flat = flat_scatter_index(self.relation_src[relation], channels)
            self._flat_cache[key] = flat
        return flat

    def pool_flat(self, channels: int) -> np.ndarray:
        """Memoised flat bins for the per-graph pooling scatter."""
        key = ("pool", 0, channels)
        flat = self._flat_cache.get(key)
        if flat is None:
            flat = flat_scatter_index(self.batch_vector, channels)
            self._flat_cache[key] = flat
        return flat

    def scatter_segments(self, relation: int) -> SegmentSchedule:
        """Memoised sorted-segment schedule of the relation's dst scatter."""
        return self._segments("dst", relation, lambda: self.relation_dst[relation])

    def pool_segments(self) -> SegmentSchedule:
        """Memoised schedule of the per-graph pooling scatter."""
        return self._segments("pool", 0, lambda: self.batch_vector)

    def _segments(self, kind: str, relation: int, index_fn) -> SegmentSchedule:
        key = (kind, relation)
        schedule = self._segment_cache.get(key)
        if schedule is None:
            schedule = build_segment_schedule(index_fn())
            self._segment_cache[key] = schedule
        return schedule

    def with_dtype(self, dtype: np.dtype) -> "EdgePlan":
        """A twin plan at ``dtype`` sharing every dtype-independent part.

        The integer schedules (relation src/dst, batch vector) and the flat
        scatter-bin / sorted-segment caches — the plan's largest components —
        are shared by reference; only the normalisation columns and node
        counts are cast.
        Only the narrowing float64→float32 direction is allowed: rounding a
        float64 reciprocal to float32 is exactly the directly computed
        float32 reciprocal (binary64 carries enough bits that the double
        rounding is harmless), whereas upcasting float32 norms would *not*
        reproduce the bit-exact float64 plan the seed-equivalence contract
        requires.
        """
        if dtype == self.dtype:
            return self
        if self.dtype != np.float64:
            raise ValueError(
                f"cannot derive a {dtype} plan from a {self.dtype} one; "
                "build the wider plan from the batch instead"
            )
        return EdgePlan(
            num_nodes=self.num_nodes,
            num_relations=self.num_relations,
            relation_src=self.relation_src,
            relation_dst=self.relation_dst,
            relation_norm=tuple(n.astype(dtype) for n in self.relation_norm),
            graph_node_counts=self.graph_node_counts.astype(dtype),
            batch_vector=self.batch_vector,
            dtype=dtype,
            _flat_cache=self._flat_cache,
            _segment_cache=self._segment_cache,
        )


def build_edge_plan(
    edge_index: np.ndarray,
    edge_type: np.ndarray,
    batch: np.ndarray,
    num_nodes: int,
    num_graphs: int,
    num_relations: int,
    dtype: Optional[np.dtype] = None,
) -> EdgePlan:
    """Group edges by relation and precompute in-degree normalisations.

    ``dtype`` selects the precision of the normalisation columns (default:
    the active policy dtype); the integer schedules are dtype-independent.
    """
    if num_relations <= 0:
        raise ValueError("num_relations must be positive")
    dtype = precision.resolve_dtype(dtype)
    edge_index = np.asarray(edge_index, dtype=np.int64)
    edge_type = np.asarray(edge_type, dtype=np.int64)
    if edge_type.size and (edge_type.min() < 0 or edge_type.max() >= num_relations):
        raise ValueError("edge_type out of range for the requested plan")
    if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= num_nodes):
        raise ValueError("edge_index references a node outside [0, num_nodes)")
    srcs: List[np.ndarray] = []
    dsts: List[np.ndarray] = []
    norms: List[np.ndarray] = []
    for relation in range(num_relations):
        mask = edge_type == relation
        src = edge_index[0, mask]
        dst = edge_index[1, mask]
        if dst.size:
            degree = count_index(dst, num_nodes, dtype=dtype)
            norm = (1.0 / degree[dst])[:, None]
        else:
            norm = np.zeros((0, 1), dtype=dtype)
        srcs.append(src)
        dsts.append(dst)
        norms.append(norm)
    batch = np.asarray(batch, dtype=np.int64)
    counts = count_index(batch, num_graphs, dtype=dtype)
    return EdgePlan(
        num_nodes=num_nodes,
        num_relations=num_relations,
        relation_src=tuple(srcs),
        relation_dst=tuple(dsts),
        relation_norm=tuple(norms),
        graph_node_counts=counts,
        batch_vector=batch,
        dtype=dtype,
    )


@dataclass(eq=False)
class GraphBatch:
    """Several graphs merged into one disconnected graph."""

    token_ids: np.ndarray
    node_types: np.ndarray
    edge_index: np.ndarray
    edge_type: np.ndarray
    batch: np.ndarray
    labels: np.ndarray
    aux_features: Optional[np.ndarray]
    num_graphs: int
    region_ids: List[str] = field(default_factory=list)
    target_distributions: Optional[np.ndarray] = None
    _edge_plans: Dict[Tuple[int, np.dtype], EdgePlan] = field(
        default_factory=dict, repr=False
    )

    @property
    def num_nodes(self) -> int:
        return int(self.token_ids.shape[0])

    def edge_plan(self, num_relations: int, dtype: Optional[np.dtype] = None) -> EdgePlan:
        """The batch's :class:`EdgePlan`, built lazily, cached per (arity, dtype).

        Plans for a second dtype are derived from an existing plan of the
        same arity (:meth:`EdgePlan.with_dtype`), sharing the integer
        schedules and flat scatter-bin caches instead of rebuilding them.
        """
        dtype = precision.resolve_dtype(dtype)
        key = (num_relations, dtype)
        plan = self._edge_plans.get(key)
        if plan is None:
            # Narrower plans derive from a cached float64 sibling of the same
            # arity (shared schedules, exactly-rounded norms); wider ones are
            # rebuilt so float64 norms stay bit-identical to the seed's.
            sibling = self._edge_plans.get((num_relations, np.dtype(np.float64)))
            if sibling is not None:
                plan = sibling.with_dtype(dtype)
            else:
                plan = build_edge_plan(
                    self.edge_index,
                    self.edge_type,
                    self.batch,
                    self.num_nodes,
                    self.num_graphs,
                    num_relations,
                    dtype=dtype,
                )
            self._edge_plans[key] = plan
        return plan


def collate_graphs(samples: Sequence[GraphSample]) -> GraphBatch:
    """Merge samples into a :class:`GraphBatch` with shifted node indices."""
    if not samples:
        raise ValueError("cannot collate an empty list of graphs")
    token_ids, node_types, edge_indices, edge_types, batch_vec = [], [], [], [], []
    labels, aux, region_ids, targets = [], [], [], []
    offset = 0
    has_aux = samples[0].aux_features is not None
    has_targets = samples[0].target_distribution is not None
    for graph_idx, sample in enumerate(samples):
        if (sample.aux_features is not None) != has_aux:
            raise ValueError("all samples must consistently have or lack aux_features")
        if (sample.target_distribution is not None) != has_targets:
            raise ValueError("all samples must consistently have or lack target_distribution")
        token_ids.append(sample.token_ids)
        node_types.append(sample.node_types)
        edge_indices.append(sample.edge_index + offset)
        edge_types.append(sample.edge_type)
        batch_vec.append(np.full(sample.num_nodes, graph_idx, dtype=np.int64))
        labels.append(sample.label)
        region_ids.append(sample.region_id)
        if has_aux:
            aux.append(sample.aux_features)
        if has_targets:
            targets.append(sample.target_distribution)
        offset += sample.num_nodes

    return GraphBatch(
        token_ids=np.concatenate(token_ids),
        node_types=np.concatenate(node_types),
        edge_index=np.concatenate(edge_indices, axis=1),
        edge_type=np.concatenate(edge_types),
        batch=np.concatenate(batch_vec),
        labels=np.asarray(labels, dtype=np.int64),
        aux_features=np.stack(aux) if has_aux else None,
        num_graphs=len(samples),
        region_ids=region_ids,
        target_distributions=np.stack(targets) if has_targets else None,
    )


class _CollatedDataset:
    """Dataset-wide flat arrays enabling collate-once minibatching.

    All samples are concatenated a single time; a minibatch for an arbitrary
    tuple of sample indices is then materialised with pure re-indexing
    (gathers and integer offset arithmetic), which is bit-identical to
    :func:`collate_graphs` over the same samples.
    """

    def __init__(self, samples: Sequence[GraphSample]) -> None:
        if not samples:
            raise ValueError("cannot index an empty list of graphs")
        self.samples = list(samples)
        has_aux = self.samples[0].aux_features is not None
        has_targets = self.samples[0].target_distribution is not None
        for sample in self.samples:
            if (sample.aux_features is not None) != has_aux:
                raise ValueError("all samples must consistently have or lack aux_features")
            if (sample.target_distribution is not None) != has_targets:
                raise ValueError(
                    "all samples must consistently have or lack target_distribution"
                )
        self.node_counts = np.array([s.num_nodes for s in self.samples], dtype=np.int64)
        self.edge_counts = np.array([s.num_edges for s in self.samples], dtype=np.int64)
        self.node_starts = np.concatenate(([0], np.cumsum(self.node_counts)))
        self.edge_starts = np.concatenate(([0], np.cumsum(self.edge_counts)))
        self.token_ids = np.concatenate([s.token_ids for s in self.samples])
        self.node_types = np.concatenate([s.node_types for s in self.samples])
        # Edge endpoints kept in *local* (per-sample) node coordinates; the
        # per-batch offsets are added at materialisation time.
        self.local_edge_index = np.concatenate([s.edge_index for s in self.samples], axis=1)
        self.edge_type = np.concatenate([s.edge_type for s in self.samples])
        self.labels = np.array([s.label for s in self.samples], dtype=np.int64)
        self.region_ids = [s.region_id for s in self.samples]
        self.aux = (
            np.stack([s.aux_features for s in self.samples]) if has_aux else None
        )
        self.targets = (
            np.stack([s.target_distribution for s in self.samples]) if has_targets else None
        )

    def gather(self, chunk: Sequence[int]) -> GraphBatch:
        """Materialise the batch for ``chunk`` (sample indices, in order)."""
        chunk = np.asarray(chunk, dtype=np.int64)
        counts = self.node_counts[chunk]
        edge_counts = self.edge_counts[chunk]
        node_sel = np.concatenate(
            [np.arange(self.node_starts[i], self.node_starts[i + 1]) for i in chunk]
        )
        edge_sel = np.concatenate(
            [np.arange(self.edge_starts[i], self.edge_starts[i + 1]) for i in chunk]
        )
        graph_ids = np.arange(len(chunk), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        edge_index = self.local_edge_index[:, edge_sel] + np.repeat(offsets, edge_counts)
        return GraphBatch(
            token_ids=self.token_ids[node_sel],
            node_types=self.node_types[node_sel],
            edge_index=edge_index,
            edge_type=self.edge_type[edge_sel],
            batch=np.repeat(graph_ids, counts),
            labels=self.labels[chunk],
            aux_features=self.aux[chunk] if self.aux is not None else None,
            num_graphs=len(chunk),
            region_ids=[self.region_ids[i] for i in chunk],
            target_distributions=self.targets[chunk] if self.targets is not None else None,
        )


class GraphDataLoader:
    """Minibatch iterator over :class:`GraphSample` lists.

    The loader collates the dataset **once** into flat arrays and materialises
    every minibatch by re-indexing them; shuffling only permutes sample
    indices, and the pre-existing shuffle RNG stream is consumed exactly as
    before, so training trajectories are bit-identical to per-epoch collation.

    Parameters
    ----------
    samples:
        The dataset.
    batch_size:
        Number of graphs per batch (Table II: 16).
    shuffle:
        ``True`` reshuffles sample order every epoch; ``False`` keeps dataset
        order.
    rng:
        Generator used for shuffling (keeps epochs reproducible).
    cache_collate:
        Enable collate-once re-indexing.  With ``False`` the loader collates
        from the Python sample list every epoch (the seed behaviour, retained
        as a benchmark/equivalence reference).
    """

    def __init__(
        self,
        samples: Sequence[GraphSample],
        batch_size: int = 16,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        cache_collate: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not isinstance(shuffle, bool):
            raise ValueError(f"shuffle must be True or False, got {shuffle!r}")
        self.samples = list(samples)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.cache_collate = cache_collate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._collated: Optional[_CollatedDataset] = None

    def __len__(self) -> int:
        return (len(self.samples) + self.batch_size - 1) // self.batch_size

    def _materialize(self, chunk: Sequence[int]) -> GraphBatch:
        if not self.cache_collate:
            return collate_graphs([self.samples[i] for i in chunk])
        if self._collated is None:
            self._collated = _CollatedDataset(self.samples)
        return self._collated.gather(chunk)

    def __iter__(self) -> Iterator[GraphBatch]:
        order = np.arange(len(self.samples))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            yield self._materialize(order[start : start + self.batch_size])
