"""Graph read-out (pooling) operations.

After the RGCN layers produce per-node representations, a whole-graph vector
is obtained by pooling node features per graph in the batch.  The batch
assignment vector follows the PyTorch-Geometric convention: ``batch[i]`` is
the index of the graph that node ``i`` belongs to.

:func:`global_mean_pool` accepts the per-graph node counts precomputed by a
batch's :class:`~repro.nn.data.EdgePlan` so the counts are derived once per
batch instead of once per forward pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn._scatter import count_index
from repro.nn.tensor import Tensor

__all__ = [
    "global_mean_pool",
    "global_sum_pool",
    "global_max_pool",
    "lower_global_mean_pool",
]


def _check_batch(x: Tensor, batch: np.ndarray, num_graphs: int) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.int64)
    if batch.shape[0] != x.shape[0]:
        raise ValueError("batch vector length must equal the number of nodes")
    if batch.size and batch.min() < 0:
        raise ValueError("batch indices must be non-negative")
    if batch.size and batch.max() >= num_graphs:
        raise ValueError("batch indices must be smaller than num_graphs")
    return batch


def global_sum_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Sum node features per graph → ``(num_graphs, channels)``."""
    batch = _check_batch(x, batch, num_graphs)
    return x.scatter_sum(batch, num_graphs)


def global_mean_pool(
    x: Tensor,
    batch: np.ndarray,
    num_graphs: int,
    node_counts: Optional[np.ndarray] = None,
    flat_index: Optional[np.ndarray] = None,
) -> Tensor:
    """Average node features per graph → ``(num_graphs, channels)``.

    ``node_counts`` may carry the per-graph node counts precomputed by an
    :class:`~repro.nn.data.EdgePlan` (``plan.graph_node_counts``); when
    omitted they are recounted from ``batch``.  ``flat_index`` optionally
    passes the plan's memoised flat scatter bins (``plan.pool_flat``).
    """
    batch = _check_batch(x, batch, num_graphs)
    sums = x.scatter_sum(batch, num_graphs, flat_index=flat_index)
    counts = node_counts if node_counts is not None else count_index(batch, num_graphs)
    counts = np.maximum(counts, 1.0)
    # Reciprocal counts join at the feature dtype (counts themselves are
    # exact integers in either precision).
    inverse = (1.0 / counts[:, None]).astype(x.data.dtype, copy=False)
    return sums * Tensor(inverse, dtype=inverse.dtype)


def lower_global_mean_pool(in_slot: str, out_slot: str = "pooled"):
    """Lower the mean-pool read-out to its raw-ndarray inference step.

    The returned :class:`~repro.nn.inference.MeanPoolStep` reads the
    per-graph node counts and sorted-segment schedule from the bound
    :class:`~repro.nn.data.EdgePlan`, precomputing the reciprocal-count
    column once per plan — bit-identical to :func:`global_mean_pool` fed
    the same plan-derived arguments at float64, and to its
    :func:`~repro.nn._scatter.reference_kernels` run at both dtypes.
    """
    from repro.nn.inference import MeanPoolStep

    return [MeanPoolStep(in_slot, out_slot)]


def global_max_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Per-graph element-wise maximum of node features.

    Implemented as a gather/compare without gradient flow through the argmax
    choice (standard max-pool subgradient): the gradient is routed to the
    first node that attained the maximum in each (graph, channel) slot.
    """
    batch = _check_batch(x, batch, num_graphs)
    num_nodes, channels = x.shape
    maxima = np.full((num_graphs, channels), -np.inf, dtype=x.data.dtype)
    # fmax (not maximum) ignores NaN entries, matching the reference loop's
    # strict ``>`` comparison which never selects a NaN.
    np.fmax.at(maxima, batch, x.data)
    # First node per (graph, channel) attaining the maximum: take the minimum
    # node index among the nodes equal to their graph's maximum.
    attained = x.data == maxima[batch]
    node_ids = np.broadcast_to(np.arange(num_nodes)[:, None], (num_nodes, channels))
    argmax = np.full((num_graphs, channels), num_nodes, dtype=np.int64)
    np.minimum.at(argmax, batch, np.where(attained, node_ids, num_nodes))
    # Graphs with no nodes keep the sentinel; route them to node 0 as the
    # original per-node loop did.
    argmax[argmax == num_nodes] = 0
    # Gather the winning rows channel-by-channel via advanced indexing.
    cols = np.tile(np.arange(channels), (num_graphs, 1))
    return x[argmax, cols]
