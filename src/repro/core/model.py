"""The PnP tuner's neural network (Table II of the paper).

Architecture: a learned token embedding feeds a stack of RGCN layers (4 in
the paper) whose node representations are mean-pooled per graph; the pooled
vector, concatenated with the auxiliary features (normalised power cap and,
for the "dynamic" variant, PAPI counters), goes through a fully connected
classifier (3 layers) that predicts the best configuration's index.

Activations are Leaky ReLU inside the GNN stack and ReLU inside the dense
stack; the loss is cross-entropy; the optimiser is AdamW (amsgrad) or Adam at
a learning rate of 1e-3 with batch size 16 — all per Table II.

Inference is split into two public stages so callers can amortise the
expensive graph encoding across many auxiliary-feature candidates:

* :meth:`PnPModel.encode` runs the GNN encoder once per batch and returns the
  pooled per-graph embedding (independent of auxiliary features);
* :meth:`PnPModel.head` (the dense classifier sub-module) maps
  ``(pooled, aux)`` to logits; :meth:`PnPModel.predict_from_pooled` wraps it
  for label prediction from cached embeddings.

The encoder consumes the batch's precompiled
:class:`~repro.nn.data.EdgePlan`, so the per-relation edge grouping and
normalisations are computed once per batch and shared by all RGCN layers
(set ``model.gnn.use_edge_plan = False`` to fall back to the naive
per-layer path, retained as a bit-identical reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.graphs.flowgraph import EdgeRelation, NodeKind
from repro.nn import functional as F
from repro.nn import precision
from repro.nn.data import GraphBatch
from repro.nn.inference import DenseHeadProgram, InferenceProgram, KernelStep, LeakyReLUStep
from repro.nn.layers import Dropout, Embedding, Linear, Module, ModuleList
from repro.nn.pooling import global_mean_pool, lower_global_mean_pool
from repro.nn.rgcn import RGCNConv
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

__all__ = ["ModelConfig", "PnPModel"]


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the PnP model.

    Defaults follow Table II; ``hidden_dim`` and ``embedding_dim`` are not
    listed in the paper and default to moderate values that train quickly on
    the 68-region dataset.

    ``dtype`` selects the model precision ("float64" or "float32"); float32
    halves parameter/activation memory and unlocks single-precision BLAS on
    the message-passing hot path (see :mod:`repro.nn.precision`).
    """

    vocabulary_size: int
    num_classes: int
    aux_dim: int = 1
    embedding_dim: int = 32
    hidden_dim: int = 32
    num_rgcn_layers: int = 4
    num_dense_layers: int = 3
    num_relations: int = len(EdgeRelation)
    num_node_kinds: int = len(NodeKind)
    dense_hidden_dim: int = 64
    dropout: float = 0.1
    leaky_slope: float = 0.01
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.vocabulary_size <= 0 or self.num_classes <= 0:
            raise ValueError("vocabulary_size and num_classes must be positive")
        if self.aux_dim < 0:
            raise ValueError("aux_dim must be non-negative")
        if self.num_rgcn_layers < 1 or self.num_dense_layers < 1:
            raise ValueError("the model needs at least one RGCN and one dense layer")
        # Normalise to the canonical dtype name (raises on unsupported ones)
        # while keeping the field a plain string (frozen dataclass).
        object.__setattr__(self, "dtype", precision.resolve_dtype(self.dtype).name)


class _GnnEncoder(Module):
    """Embedding + RGCN stack producing a per-graph representation.

    Kept as a separate sub-module (registered under the name ``gnn``) so the
    transfer-learning step can save/load/freeze exactly these weights.
    """

    #: Consume the batch's precompiled EdgePlan (bit-identical to the naive
    #: path; disable only for benchmarking/equivalence checks).
    use_edge_plan: bool = True

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        rng = new_rng(config.seed, "model/gnn")
        self.config = config
        self.token_embedding = Embedding(config.vocabulary_size, config.embedding_dim, rng=rng)
        self.kind_embedding = Embedding(config.num_node_kinds, config.embedding_dim, rng=rng)
        self.convs = ModuleList()
        in_dim = config.embedding_dim
        for _ in range(config.num_rgcn_layers):
            self.convs.append(RGCNConv(in_dim, config.hidden_dim, config.num_relations, rng=rng))
            in_dim = config.hidden_dim

    def forward(self, batch: GraphBatch) -> Tensor:
        plan = (
            batch.edge_plan(self.config.num_relations, dtype=self.dtype)
            if self.use_edge_plan
            else None
        )
        x = self.token_embedding(batch.token_ids) + self.kind_embedding(batch.node_types)
        for conv in self.convs:
            x = F.leaky_relu(
                conv(x, batch.edge_index, batch.edge_type, plan=plan), self.config.leaky_slope
            )
        if plan is None:
            return global_mean_pool(x, batch.batch, batch.num_graphs)
        return global_mean_pool(
            x,
            batch.batch,
            batch.num_graphs,
            node_counts=plan.graph_node_counts,
            flat_index=plan.pool_flat(x.shape[1]),
        )

    def lower(self) -> List[KernelStep]:
        """Lower the encoder to the flat raw-ndarray step list.

        Embedding sum, then per layer convolution + in-place leaky ReLU
        ping-ponging between two hidden slots, then the mean-pool read-out —
        the exact op order of :meth:`forward` on the planned path.
        """
        steps = self.token_embedding.lower("token_ids", "embed")
        steps += self.kind_embedding.lower("node_types", "embed", accumulate=True)
        in_slot = "embed"
        for index, conv in enumerate(self.convs):
            out_slot = "hidden0" if index % 2 == 0 else "hidden1"
            steps += conv.lower(in_slot, out_slot)
            steps.append(LeakyReLUStep(out_slot, self.config.leaky_slope))
            in_slot = out_slot
        steps += lower_global_mean_pool(in_slot)
        return steps


class _DenseHead(Module):
    """Fully connected classifier over pooled graph + auxiliary features."""

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        rng = new_rng(config.seed, "model/dense")
        dropout_rng = new_rng(config.seed, "model/dropout")
        self.config = config
        dims: List[int] = [config.hidden_dim + config.aux_dim]
        dims += [config.dense_hidden_dim] * (config.num_dense_layers - 1)
        dims += [config.num_classes]
        self.layers = ModuleList(
            Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)
        )
        self.dropout = Dropout(config.dropout, rng=dropout_rng)

    def forward(self, pooled: Tensor, aux: Optional[np.ndarray]) -> Tensor:
        if self.config.aux_dim > 0:
            if aux is None:
                raise ValueError(
                    f"model expects {self.config.aux_dim} auxiliary features but got none"
                )
            # Auxiliary features cross the tensor boundary here: convert to
            # the pooled embedding's dtype so the head never promotes.
            aux = np.asarray(aux, dtype=pooled.data.dtype)
            if aux.ndim != 2 or aux.shape[1] != self.config.aux_dim:
                raise ValueError(
                    f"auxiliary features must have shape (batch, {self.config.aux_dim}), "
                    f"got {aux.shape}"
                )
            x = Tensor.concatenate([pooled, Tensor(aux, dtype=aux.dtype)], axis=1)
        else:
            x = pooled
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            x = layer(x)
            if index != last:
                x = F.relu(x)
                x = self.dropout(x)
        return x

    def lower(self) -> DenseHeadProgram:
        """Lower the classifier to its raw-ndarray inference program.

        Eval-mode semantics (dropout is the identity): affine steps with the
        in-place ReLU between, plus the same pooled/aux dtype-cast boundary
        as :meth:`forward`.
        """
        return DenseHeadProgram(
            [layer.lower() for layer in self.layers],
            aux_dim=self.config.aux_dim,
            dtype=self.dtype,
        )


class PnPModel(Module):
    """The complete PnP tuner network (GNN encoder + dense classifier).

    The model is built at ``config.dtype`` — parameters are initialised from
    the same random stream regardless of precision (float32 weights are the
    float64 draws rounded once), so a float32 model is the numerical twin of
    its float64 counterpart.  :meth:`Module.astype` re-casts an existing
    model in place.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config
        with precision.autocast(config.dtype):
            self.gnn = _GnnEncoder(config)
            self.head = _DenseHead(config)

    # ------------------------------------------------------------ inference
    def compile_inference(self) -> InferenceProgram:
        """Lower this model to an autograd-free :class:`InferenceProgram`.

        The program is a flat, ordered list of raw-ndarray kernel steps
        (embedding lookup, planned RGCN message passing, mean pooling, dense
        head) sharing this model's parameter arrays by reference — no
        ``Tensor`` wrappers, no autograd graph — and is bit-identical to the
        ``Module`` inference path at float64 (at float32, to the ``Module``
        under :func:`~repro.nn._scatter.reference_kernels`).  Buffers are
        preallocated per ``(EdgePlan, dtype)`` on first use and reused
        across calls.

        Programs snapshot the current parameter arrays: any path that
        rebinds them (training steps, ``load_state_dict``, ``astype``)
        makes the program report :meth:`InferenceProgram.stale`, and the
        tuner's program cache recompiles automatically.
        """
        return InferenceProgram(
            encoder_steps=self.gnn.lower(),
            head=self.head.lower(),
            num_relations=self.config.num_relations,
            dtype=self.dtype,
            source=self,
        )
    def encode(self, batch: GraphBatch) -> Tensor:
        """Pooled per-graph embedding of shape ``(num_graphs, hidden_dim)``.

        The embedding is independent of the auxiliary features, so one
        encoding can be reused across any number of aux candidates via
        :meth:`head` / :meth:`predict_from_pooled`.
        """
        return self.gnn(batch)

    def encode_pooled(self, batch: GraphBatch) -> np.ndarray:
        """:meth:`encode` under eval/no-grad, returned as a plain array."""
        self.eval()
        with no_grad():
            return self.encode(batch).data

    def forward(self, batch: GraphBatch) -> Tensor:
        """Return raw class logits of shape ``(num_graphs, num_classes)``."""
        pooled = self.encode(batch)
        return self.head(pooled, batch.aux_features)

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """Predicted class index per graph (no gradient recorded)."""
        self.eval()
        with no_grad():
            logits = self.forward(batch)
        return np.argmax(logits.data, axis=1)

    def predict_from_pooled(
        self, pooled: np.ndarray, aux: Optional[np.ndarray]
    ) -> np.ndarray:
        """Predicted class index per row of a precomputed pooled embedding.

        ``pooled`` has shape ``(rows, hidden_dim)`` (e.g. one graph embedding
        repeated per aux candidate) and ``aux`` the matching auxiliary
        feature rows; only the dense head is executed.  ``pooled`` is
        converted to the model dtype at this boundary, so float64 cached
        embeddings can feed a float32 head (and vice versa).
        """
        self.eval()
        with no_grad():
            logits = self.head(Tensor(pooled, dtype=self.dtype), aux)
        return np.argmax(logits.data, axis=1)

    def predict_proba(self, batch: GraphBatch) -> np.ndarray:
        """Class-probability matrix per graph."""
        self.eval()
        with no_grad():
            logits = self.forward(batch)
            probabilities = F.softmax(logits, axis=-1)
        return probabilities.data

    # ------------------------------------------------------------- weights
    def gnn_state_dict(self) -> Dict[str, np.ndarray]:
        """State dictionary restricted to the GNN encoder (for transfer)."""
        return {name: value for name, value in self.state_dict().items() if name.startswith("gnn.")}

    def dense_parameters(self):
        """Parameters of the dense head only (re-trained during transfer)."""
        return self.head.parameters()

    def describe(self) -> Dict[str, object]:
        """Hyperparameter summary mirroring Table II."""
        return {
            "rgcn_layers": self.config.num_rgcn_layers,
            "dense_layers": self.config.num_dense_layers,
            "activations": ["leaky_relu (GNN)", "relu (dense)"],
            "hidden_dim": self.config.hidden_dim,
            "embedding_dim": self.config.embedding_dim,
            "num_classes": self.config.num_classes,
            "aux_dim": self.config.aux_dim,
            "dtype": self.dtype.name,
            "parameters": self.num_parameters(),
        }
