"""Relational Graph Convolutional Network layer (Schlichtkrull et al., 2018).

The PnP tuner models PROGRAML-style flow graphs whose edges carry one of
three relations (control, data, call flow).  An RGCN layer computes

.. math::

    h_i' = W_0 h_i + \\sum_{r \\in R} \\sum_{j \\in N_r(i)} \\frac{1}{c_{i,r}} W_r h_j

where :math:`c_{i,r}` is the number of relation-``r`` in-neighbours of node
``i`` (the "relation-specific normalised sum" described in the paper's
background section).

The layer executes from a precompiled :class:`~repro.nn.data.EdgePlan` when
one is supplied (per-relation edge groups and normalisations computed once
per batch and shared by every layer of the stack); without a plan it falls
back to the naive per-relation masking path, which is retained as the
bit-identical reference implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn._scatter import count_index
from repro.nn.data import EdgePlan
from repro.nn.layers import Module
from repro.nn.tensor import Tensor

__all__ = ["RGCNConv"]


class RGCNConv(Module):
    """Single relational graph convolution.

    Parameters
    ----------
    in_channels, out_channels:
        Node-feature dimensionality before/after the layer.
    num_relations:
        Number of edge relations (3 for PROGRAML graphs: control/data/call).
    bias:
        Whether to add a learnable bias after aggregation.
    rng:
        Generator for Glorot weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        num_relations: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_relations <= 0:
            raise ValueError("num_relations must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_relations = num_relations

        # One weight per relation plus the self-loop ("root") weight W_0.
        self.weight = Tensor(
            np.stack(
                [init.xavier_uniform((in_channels, out_channels), rng) for _ in range(num_relations)]
            ),
            requires_grad=True,
        )
        self.root = Tensor(init.xavier_uniform((in_channels, out_channels), rng), requires_grad=True)
        if bias:
            self.bias: Optional[Tensor] = Tensor(np.zeros(out_channels), requires_grad=True)
        else:
            self.bias = None

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_type: np.ndarray,
        plan: Optional[EdgePlan] = None,
    ) -> Tensor:
        """Apply the convolution.

        Parameters
        ----------
        x:
            Node features of shape ``(num_nodes, in_channels)``.
        edge_index:
            Integer array of shape ``(2, num_edges)``; row 0 holds source node
            indices, row 1 destination node indices.
        edge_type:
            Integer array of shape ``(num_edges,)`` with values in
            ``[0, num_relations)``.
        plan:
            Optional precompiled :class:`~repro.nn.data.EdgePlan` for this
            batch (see :meth:`GraphBatch.edge_plan`).  With a plan, the
            per-relation edge masks, in-degree counts and normalisations are
            read instead of recomputed; the result is bit-identical to the
            naive path.
        """
        if plan is not None:
            if plan.num_relations != self.num_relations:
                raise ValueError(
                    f"edge plan was built for {plan.num_relations} relations, "
                    f"layer has {self.num_relations}"
                )
            if plan.num_nodes != x.shape[0]:
                raise ValueError("edge plan does not match the number of nodes")
            if plan.dtype != x.data.dtype:
                raise ValueError(
                    f"edge plan carries {plan.dtype} normalisations but node "
                    f"features are {x.data.dtype}; request the plan at the "
                    "model dtype (GraphBatch.edge_plan(num_relations, dtype=...))"
                )
            return self._forward_planned(x, plan)

        edge_index = np.asarray(edge_index, dtype=np.int64)
        edge_type = np.asarray(edge_type, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, num_edges)")
        if edge_type.shape[0] != edge_index.shape[1]:
            raise ValueError("edge_type length must equal the number of edges")
        if edge_type.size and (edge_type.min() < 0 or edge_type.max() >= self.num_relations):
            raise ValueError("edge_type out of range")

        num_nodes = x.shape[0]
        out = x @ self.root

        for relation in range(self.num_relations):
            mask = edge_type == relation
            if not np.any(mask):
                continue
            src = edge_index[0, mask]
            dst = edge_index[1, mask]
            # Normalisation 1 / |N_r(i)| computed per destination node, in
            # the feature dtype so float32 stays float32.
            degree = count_index(dst, num_nodes, dtype=x.data.dtype)
            norm = 1.0 / degree[dst]

            messages = x.gather_rows(src) @ self.weight[relation]
            messages = messages * Tensor(norm[:, None], dtype=norm.dtype)
            out = out + messages.scatter_sum(dst, num_nodes)

        if self.bias is not None:
            out = out + self.bias
        return out

    def _forward_planned(self, x: Tensor, plan: EdgePlan) -> Tensor:
        """Plan-driven execution: same operations, precomputed schedules."""
        in_channels = x.shape[1]
        parts = [x @ self.root]
        for relation in range(self.num_relations):
            src = plan.relation_src[relation]
            if src.size == 0:
                continue
            gathered = x.gather_rows(
                src, backward_flat=plan.gather_flat(relation, in_channels)
            )
            messages = gathered @ self.weight[relation]
            norm = plan.relation_norm[relation]
            messages = messages * Tensor(norm, dtype=norm.dtype)
            parts.append(
                messages.scatter_sum(
                    plan.relation_dst[relation],
                    plan.num_nodes,
                    flat_index=plan.scatter_flat(relation, self.out_channels),
                )
            )
        # Left-associative fused sum — bit-identical to the naive chained
        # ``out + ...`` accumulation.
        out = parts[0] if len(parts) == 1 else Tensor.add_n(parts)
        if self.bias is not None:
            out = out + self.bias
        return out

    def lower(self, in_slot: str, out_slot: str, dtype: np.dtype) -> list:
        """Lower this layer to raw-ndarray steps for the inference runtime.

        Returns the :class:`~repro.nn.inference.RGCNStep` reproducing
        :meth:`_forward_planned` on preallocated buffers (bit for bit at
        float64; its index-ordered scatter matches the
        :func:`~repro.nn._scatter.reference_kernels` run at float32); the
        step consumes the batch's :class:`EdgePlan` (schedules and buffers
        bind once per plan, on first use) exactly like the planned tensor
        path.  The weights are cast to ``dtype`` once (shared by reference
        at the layer's own dtype).
        """
        from repro.nn.inference import RGCNStep

        bias = None if self.bias is None else self.bias.data.astype(dtype, copy=False)
        return [
            RGCNStep(
                weight=self.weight.data.astype(dtype, copy=False),
                root=self.root.data.astype(dtype, copy=False),
                bias=bias,
                num_relations=self.num_relations,
                in_slot=in_slot,
                out_slot=out_slot,
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RGCNConv({self.in_channels}, {self.out_channels}, "
            f"num_relations={self.num_relations})"
        )
