"""A small NumPy-based deep-learning framework.

This package stands in for PyTorch / PyTorch-Geometric in the reproduction:
it provides reverse-mode automatic differentiation over NumPy arrays
(:mod:`repro.nn.tensor`), the layers needed by the PnP tuner's architecture
(:class:`~repro.nn.layers.Linear`, :class:`~repro.nn.layers.Embedding`,
:class:`~repro.nn.rgcn.RGCNConv`), graph batching
(:mod:`repro.nn.data`), losses, and the Adam/AdamW optimisers listed in
Table II of the paper.

The engine is deliberately small but complete for this model family; it is
not a general tensor library.  Arrays default to ``float64`` (tight gradient
checks), but the precision is a switchable policy: :mod:`repro.nn.precision`
exposes :func:`set_default_dtype` and the :func:`autocast` context manager,
and ``float32`` is a first-class fast path through tensors, initializers,
edge plans, scatter kernels, optimizers and serialization (roughly double
the effective memory bandwidth on the message-passing hot loops plus
single-precision BLAS).  A strict :func:`dtype_checks` mode asserts that a
``float32`` forward/backward step never silently promotes to ``float64``.

Message passing executes from precompiled per-batch
:class:`~repro.nn.data.EdgePlan` schedules (relation-grouped edge indices
and in-degree normalisations built once per batch via
:meth:`GraphBatch.edge_plan` and shared by every RGCN layer and the pooling
read-out), and :class:`~repro.nn.data.GraphDataLoader` collates the dataset
once and materialises minibatches by re-indexing flat arrays.  Both paths
are bit-identical to the naive per-layer/per-epoch implementations they
replace, which are retained as references (``RGCNConv.forward`` without a
plan; ``GraphDataLoader(cache_collate=False)``).

Inference — serving and the experiments' label predictions alike — runs an
autograd-free compiled runtime: :mod:`repro.nn.inference` lowers a model
into an :class:`InferenceProgram` — a flat list of raw-ndarray kernel steps
with buffers preallocated per ``(EdgePlan, dtype)``, no ``Tensor`` wrappers
and no graph recording.  The ``Module`` forward stays as its reference.

Message passing sums each relation's messages into their destination nodes
with one of two scatter kernels, chosen by who owns the output buffer
(:mod:`repro.nn._scatter`): autograd (training and the ``Module`` forward)
uses the allocating flat-bincount kernel, and the compiled runtime always
accumulates in index order into its per-plan arena buffers, allocation-free.
At float64 the program is bit-identical to the ``Module`` forward; at both
dtypes it is bit-identical to the ``np.add.at`` reference
(:func:`~repro.nn._scatter.reference_kernels`).
"""

from repro.nn import precision
from repro.nn.precision import (
    autocast,
    dtype_checks,
    get_default_dtype,
    set_default_dtype,
    DtypePromotionError,
)
from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Linear,
    Embedding,
    Dropout,
    ReLU,
    LeakyReLU,
    Sequential,
    ModuleList,
)
from repro.nn.rgcn import RGCNConv
from repro.nn.pooling import global_mean_pool, global_sum_pool, global_max_pool
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.data import (
    EdgePlan,
    GraphSample,
    GraphBatch,
    GraphDataLoader,
    build_edge_plan,
    collate_graphs,
)
from repro.nn.serialization import save_state_dict, load_state_dict
from repro.nn.inference import InferenceProgram

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "precision",
    "autocast",
    "dtype_checks",
    "get_default_dtype",
    "set_default_dtype",
    "DtypePromotionError",
    "Module",
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
    "ModuleList",
    "RGCNConv",
    "global_mean_pool",
    "global_sum_pool",
    "global_max_pool",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "AdamW",
    "Optimizer",
    "GraphSample",
    "GraphBatch",
    "GraphDataLoader",
    "EdgePlan",
    "build_edge_plan",
    "collate_graphs",
    "save_state_dict",
    "load_state_dict",
    "InferenceProgram",
]
