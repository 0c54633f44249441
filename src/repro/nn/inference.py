"""Autograd-free compiled inference runtime over raw ndarrays.

Training runs through :class:`~repro.nn.tensor.Tensor` — every op allocates
a result tensor, records a backward closure and participates in the dynamic
graph.  Serving never needs any of that: the tuner is trained once and then
queried constantly, so the per-op ``Tensor`` wrapper, the graph bookkeeping
and the per-op output allocations are pure overhead on the hot path.

This module lowers a model into an :class:`InferenceProgram`: a **flat,
ordered list of raw-ndarray kernel steps** (embedding lookup, per-relation
planned RGCN message passing through the existing
:mod:`repro.nn._scatter` kernels, mean pooling, dense head) that

* references the model's parameter arrays directly (no ``Tensor`` wrappers,
  no autograd graph, no ``no_grad`` bookkeeping) — or, at another serving
  dtype, copies cast once at lowering time,
* owns **one arena per** ``(EdgePlan, dtype)``: the flat step list is bound
  once against it, and each buffer key gets its own array, allocated on
  its first request (the per-plan :class:`Arena` is held in a
  :class:`weakref.WeakKeyDictionary`, so buffers die with their plan),
* performs **zero NumPy array allocations** on the warm path — every
  kernel runs in its out-parameter form (gathers, matmuls, normalisation,
  the index-ordered scatter of
  :func:`~repro.nn._scatter.scatter_rows_sum_into`, masked in-place
  activations, the dense head product, even the final ``argmax``) into
  arena buffers or per-row-count head workspaces, and
* is **bit-identical** to the ``Module`` forward at float64, and at both
  dtypes to the ``Module`` run under
  :func:`~repro.nn._scatter.reference_kernels`: every step performs the
  same floating-point operations in the same order as the tensor op it
  replaces (in-place/``out=`` variants are used only where NumPy
  guarantees the identical result), and its scatters accumulate in index
  order like ``np.add.at``.  (The ``Module``'s bincount scatter sums
  float32 data through float64, so float32 programs differ from the
  default ``Module`` in the last bits.)

Lowering is owned by the modules themselves — :meth:`Embedding.lower`,
:meth:`Linear.lower`, :meth:`RGCNConv.lower`,
:func:`repro.nn.pooling.lower_global_mean_pool` and
``PnPModel.compile_inference(dtype)`` compose the step classes defined here.

A program keeps the arrays it was compiled from.  Anything that rebinds
parameter data (training/optimizer steps, ``load_state_dict``, ``astype``)
leaves it serving the old weights, so whoever rebinds them compiles a new
one: :class:`repro.core.tuner.PnPTuner` checks its model's parameters by
identity on every query and recompiles.  Long-lived servers shed the
accumulated arenas with :meth:`InferenceProgram.clear_buffers` (surfaced as
``PnPTuner.clear_inference_buffers``) and observe them via
:meth:`InferenceProgram.buffer_stats`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn._scatter import ScatterWorkspace, scatter_rows_sum_into
from repro.nn.data import EdgePlan, GraphBatch

__all__ = [
    "KernelStep",
    "GatherRowsStep",
    "RGCNStep",
    "LeakyReLUStep",
    "MeanPoolStep",
    "DenseStep",
    "DenseHeadProgram",
    "InferenceProgram",
    "Arena",
]

#: Name of the slot every encoder lowering must end in.
POOLED_SLOT = "pooled"

#: Most per-row-count head workspaces a program keeps before resetting the
#: pool (sweep batch sizes are few and recurring; this only guards servers
#: fed adversarially varied row counts).
_MAX_HEAD_WORKSPACES = 64


class _EncoderInputs:
    """Per-call integer inputs of an encoder run (set before the thunks)."""

    __slots__ = ("token_ids", "node_types")

    def __init__(self) -> None:
        self.token_ids: Optional[np.ndarray] = None
        self.node_types: Optional[np.ndarray] = None


def _buffer(buffers: Arena, key: object, shape, dtype: np.dtype) -> np.ndarray:
    """Fetch-or-allocate the named arena buffer of exactly ``shape``/``dtype``."""
    return buffers.ensure(key, tuple(shape), np.dtype(dtype))


class Arena:
    """The buffers of one ``(EdgePlan, dtype)`` binding, one array per key.

    A key's ``np.empty`` array is allocated by its first :meth:`ensure`;
    every later request for that key (a slot a later step writes again, a
    scratch buffer shared by the layers of one width) gets the same array,
    and must ask for the same shape and dtype.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}

    def get(self, key: object) -> Optional[np.ndarray]:
        return self._buffers.get(key)

    def ensure(self, key: object, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = np.empty(shape, dtype=dtype)
        elif buffer.shape != shape or buffer.dtype != dtype:
            raise ValueError(
                f"buffer {key!r} already bound with shape {buffer.shape} "
                f"({buffer.dtype}), requested {shape} ({dtype})"
            )
        return buffer

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


class KernelStep:
    """One raw-ndarray step of a lowered encoder.

    A step is *unbound* at lowering time (it knows its weights and slot
    names, not the batch); :meth:`bind` specialises it to one
    ``(EdgePlan, dtype)``.  Binding runs once per plan, against the plan's
    :class:`Arena`; the thunks it returns — zero-argument callables closing
    over the bound buffers — feed the flat execution loop.
    """

    def bind(
        self,
        plan: EdgePlan,
        buffers: Arena,
        dtype: np.dtype,
        inputs: _EncoderInputs,
    ) -> List[Callable[[], None]]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class GatherRowsStep(KernelStep):
    """Embedding lookup: gather ``table[ids]`` into a slot.

    With ``accumulate=True`` the gathered rows are added to the slot in
    place (the encoder sums token and node-kind embeddings) — bit-identical
    to the tensor path's ``token_emb + kind_emb``.
    """

    def __init__(
        self, table: np.ndarray, ids_input: str, out_slot: str, accumulate: bool = False
    ) -> None:
        if ids_input not in ("token_ids", "node_types"):
            raise ValueError(f"unknown encoder input {ids_input!r}")
        self.table = table
        self.ids_input = ids_input
        self.out_slot = out_slot
        self.accumulate = accumulate

    def bind(self, plan, buffers, dtype, inputs):
        if self.table.dtype != dtype:
            raise ValueError(
                f"embedding table is {self.table.dtype}, program expects {dtype}"
            )
        channels = self.table.shape[1]
        out = _buffer(buffers, self.out_slot, (plan.num_nodes, channels), dtype)
        table, ids_input = self.table, self.ids_input

        if self.accumulate:
            scratch = _buffer(
                buffers, ("gather_scratch", channels), (plan.num_nodes, channels), dtype
            )

            # mode="clip" skips numpy's bounds pre-pass, which buffers the
            # whole gather through a fresh temporary under mode="raise";
            # ids are validated against the table at encode time.
            def run() -> None:
                np.take(table, getattr(inputs, ids_input), axis=0, out=scratch, mode="clip")
                np.add(out, scratch, out=out)

        else:

            def run() -> None:
                np.take(table, getattr(inputs, ids_input), axis=0, out=out, mode="clip")

        return [run]

    def describe(self) -> str:
        op = "+=" if self.accumulate else "="
        return f"{self.out_slot} {op} gather({self.ids_input})"


class RGCNStep(KernelStep):
    """One planned relational graph convolution over raw ndarrays.

    Mirrors ``RGCNConv._forward_planned`` exactly: root transform, then per
    relation gather → matmul → normalise → scatter, accumulated in relation
    order (the ``Tensor.add_n`` order), then the bias — with the matmuls,
    the normalisation and the scatter
    (:func:`~repro.nn._scatter.scatter_rows_sum_into` with a planned
    workspace) running on arena buffers, so the whole step is
    allocation-free.
    """

    def __init__(
        self,
        weight: np.ndarray,
        root: np.ndarray,
        bias: Optional[np.ndarray],
        num_relations: int,
        in_slot: str,
        out_slot: str,
    ) -> None:
        self.weight = weight
        self.root = root
        self.bias = bias
        self.num_relations = num_relations
        self.in_slot = in_slot
        self.out_slot = out_slot

    def bind(self, plan, buffers, dtype, inputs):
        if plan.num_relations != self.num_relations:
            raise ValueError(
                f"edge plan was built for {plan.num_relations} relations, "
                f"step has {self.num_relations}"
            )
        if plan.dtype != dtype:
            raise ValueError(
                f"edge plan carries {plan.dtype} normalisations, program "
                f"expects {dtype}"
            )
        x = buffers.get(self.in_slot)
        if x is None:
            raise ValueError(f"input slot {self.in_slot!r} has no producer")
        in_ch, out_ch = self.weight.shape[1], self.weight.shape[2]
        if x.shape != (plan.num_nodes, in_ch):
            raise ValueError(
                f"slot {self.in_slot!r} has shape {x.shape}, layer expects "
                f"{(plan.num_nodes, in_ch)}"
            )
        out = _buffer(buffers, self.out_slot, (plan.num_nodes, out_ch), dtype)
        num_nodes = plan.num_nodes
        root = self.root
        # Tiled to (num_nodes, out_ch) at bind time — the (out_ch,) broadcast
        # add buffers the whole sum through a temporary even with ``out=``;
        # the same-shape add is in place and bit-identical.
        bias = (
            np.ascontiguousarray(np.broadcast_to(self.bias, (num_nodes, out_ch)))
            if self.bias is not None
            else None
        )
        # Note the thunk captures the plan's *arrays and schedules*, never
        # the plan object itself: bound thunks live in a WeakKeyDictionary
        # keyed by the plan, and a strong reference from value to key would
        # pin the entry (and its arena) forever.
        active = [
            relation
            for relation in range(self.num_relations)
            if plan.relation_src[relation].size
        ]
        schedules = {r: plan.scatter_segments(r) for r in active}
        rows_ws = max(
            (schedules[r].rounds().num_rows + 1 for r in active), default=0
        )
        # Scatter accumulator + rounds workspace, shared across this step's
        # relations (they run sequentially) and, through their arena keys,
        # across every RGCN step of the same width.
        scattered = _buffer(buffers, ("rgcn_scattered", out_ch), (num_nodes, out_ch), dtype)
        ws_gather = _buffer(buffers, ("rgcn_ws_gather", out_ch), (rows_ws, out_ch), dtype)

        relations = []
        for relation in active:
            src = plan.relation_src[relation]
            segments = schedules[relation]
            rounds = segments.rounds()
            workspace = ScatterWorkspace(gathered=ws_gather[: rounds.num_rows + 1])
            # The plan's (E, 1) norm column is expanded to a contiguous
            # (E, out_ch) constant once at bind time: numpy's broadcasting
            # multiply buffers the whole product through a fresh temporary
            # even with ``out=``, while the same-shape multiply runs truly
            # in place.  Same factors, so the bits don't move.
            norm_full = np.ascontiguousarray(
                np.broadcast_to(plan.relation_norm[relation], (src.size, out_ch))
            )
            relations.append(
                (
                    src,
                    plan.relation_dst[relation],
                    norm_full,
                    self.weight[relation],
                    _buffer(buffers, ("gather", relation, in_ch), (src.size, in_ch), dtype),
                    _buffer(buffers, ("msg", relation, out_ch), (src.size, out_ch), dtype),
                    segments,
                    workspace,
                )
            )

        def run() -> None:
            np.matmul(x, root, out=out)
            for src, dst, norm, w, gathered, messages, segments, ws in relations:
                # clip mode: no bounds pre-pass, no buffered temporary
                # (src indices come from the validated EdgePlan).
                np.take(x, src, axis=0, out=gathered, mode="clip")
                np.matmul(gathered, w, out=messages)
                np.multiply(messages, norm, out=messages)
                scatter_rows_sum_into(
                    scattered, messages, dst, segments=segments, workspace=ws
                )
                np.add(out, scattered, out=out)
            if bias is not None:
                np.add(out, bias, out=out)

        return [run]

    def describe(self) -> str:
        return f"{self.out_slot} = rgcn({self.in_slot})"


class LeakyReLUStep(KernelStep):
    """In-place leaky ReLU on a slot (:func:`repro.nn.functional.leaky_relu_`)."""

    def __init__(self, slot: str, negative_slope: float) -> None:
        self.slot = slot
        self.negative_slope = negative_slope

    def bind(self, plan, buffers, dtype, inputs):
        x = buffers.get(self.slot)
        if x is None:
            raise ValueError(f"activation slot {self.slot!r} has no producer")
        scratch = _buffer(buffers, ("act_scratch", x.shape[1]), x.shape, dtype)
        slope = self.negative_slope

        def run() -> None:
            F.leaky_relu_(x, slope, scratch=scratch)

        return [run]

    def describe(self) -> str:
        return f"{self.slot} = leaky_relu({self.slot})"


class MeanPoolStep(KernelStep):
    """Per-graph mean pooling into the ``pooled`` slot.

    The reciprocal node counts are precomputed per plan at bind time
    (``(1 / max(counts, 1))`` in the feature dtype — exactly the column
    :func:`repro.nn.pooling.global_mean_pool` rebuilds per forward), and
    the per-graph sums land in an arena buffer.
    """

    def __init__(self, in_slot: str, out_slot: str = POOLED_SLOT) -> None:
        self.in_slot = in_slot
        self.out_slot = out_slot

    def bind(self, plan, buffers, dtype, inputs):
        x = buffers.get(self.in_slot)
        if x is None:
            raise ValueError(f"input slot {self.in_slot!r} has no producer")
        channels = x.shape[1]
        num_graphs = plan.graph_node_counts.shape[0]
        pooled = _buffer(buffers, self.out_slot, (num_graphs, channels), dtype)
        counts = np.maximum(plan.graph_node_counts, 1.0)
        # Expanded to full width for the same reason as the RGCN norm: the
        # (G, 1) broadcast multiply allocates a temporary even with ``out=``.
        inverse = np.ascontiguousarray(
            np.broadcast_to(
                (1.0 / counts[:, None]).astype(dtype, copy=False),
                (num_graphs, channels),
            )
        )
        batch_vector = plan.batch_vector
        segments = plan.pool_segments()
        rounds = segments.rounds()
        sums = _buffer(buffers, ("pool_sums", channels), (num_graphs, channels), dtype)
        ws_gather = _buffer(
            buffers, ("pool_ws_gather", channels), (rounds.num_rows + 1, channels), dtype
        )
        workspace = ScatterWorkspace(gathered=ws_gather)

        def run() -> None:
            scatter_rows_sum_into(
                sums, x, batch_vector, segments=segments, workspace=workspace
            )
            np.multiply(sums, inverse, out=pooled)

        return [run]

    def describe(self) -> str:
        return f"{self.out_slot} = mean_pool({self.in_slot})"


class _BoundEncoder:
    """An encoder program specialised to one ``(EdgePlan, dtype)``.

    Construction binds every step once, in order, against a fresh
    :class:`Arena`: a step's first request for a buffer key allocates it,
    and later steps naming the same key share it.  :meth:`run` is just "set
    the two integer inputs, execute the flat list".
    """

    __slots__ = ("_thunks", "_inputs", "_pooled", "_num_nodes", "arena")

    def __init__(
        self, steps: Sequence[KernelStep], plan: EdgePlan, dtype: np.dtype
    ) -> None:
        self.arena = Arena()
        self._inputs = _EncoderInputs()
        self._thunks: List[Callable[[], None]] = []
        for step in steps:
            self._thunks.extend(step.bind(plan, self.arena, dtype, self._inputs))
        self._pooled = self.arena.get(POOLED_SLOT)
        if self._pooled is None:
            raise ValueError("encoder lowering produced no 'pooled' slot")
        self._num_nodes = plan.num_nodes

    def run(self, token_ids: np.ndarray, node_types: np.ndarray) -> np.ndarray:
        if token_ids.shape[0] != self._num_nodes:
            raise ValueError(
                f"batch has {token_ids.shape[0]} nodes, bound program expects "
                f"{self._num_nodes}"
            )
        inputs = self._inputs
        inputs.token_ids = token_ids
        inputs.node_types = node_types
        for thunk in self._thunks:
            thunk()
        return self._pooled


class DenseStep:
    """One affine layer of the lowered dense head (``y = x @ W (+ b)``).

    The head binds per *row count* rather than per plan (batch sizes vary
    per query: R regions × C caps), writing the product into a
    :class:`_HeadWorkspace` output with the bias added in place — same
    values as the tensor path.
    """

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray]) -> None:
        self.weight = weight
        self.bias = bias

    def apply_into(
        self, x: np.ndarray, out: np.ndarray, bias_full: Optional[np.ndarray] = None
    ) -> np.ndarray:
        np.matmul(x, self.weight, out=out)
        if bias_full is not None:
            # Same-shape add: the (C,) broadcast form buffers the whole sum
            # through a temporary even with ``out=`` (see _HeadWorkspace).
            np.add(out, bias_full, out=out)
        elif self.bias is not None:
            np.add(out, self.bias, out=out)
        return out


class _HeadWorkspace:
    """Preallocated head buffers for one batch row count.

    ``concat`` absorbs the pooled/aux concatenation (assignment casts the
    aux columns exactly like the ``np.asarray`` it replaces), ``outs`` the
    per-layer affine results, ``masks``/``scratches`` the boolean ReLU
    masks and their float copies, ``biases`` the per-layer bias rows tiled
    to full batch shape, and ``labels`` the final ``argmax`` — so a warm
    head invocation allocates nothing.  The tiled biases and float mask
    copies exist because numpy's broadcasting (and dtype-mixing) ufuncs
    buffer through fresh temporaries even with ``out=``; the same-shape
    same-dtype forms run truly in place with identical bits.

    With ``standardize=(mean, scale)`` the workspace additionally carries
    the input-standardization buffers (``std`` plus the mean/scale rows
    tiled to batch shape) used by the distilled micro-model programs,
    whose raw feature inputs are normalised before the first affine layer.
    """

    __slots__ = (
        "concat",
        "outs",
        "masks",
        "scratches",
        "biases",
        "labels",
        "std",
        "std_mean",
        "std_scale",
    )

    def __init__(
        self,
        steps: Sequence[DenseStep],
        aux_dim: int,
        rows: int,
        dtype: np.dtype,
        standardize: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.concat = (
            np.empty((rows, steps[0].weight.shape[0]), dtype=dtype)
            if aux_dim > 0
            else None
        )
        if standardize is not None:
            mean, scale = standardize
            in_features = steps[0].weight.shape[0]
            self.std = np.empty((rows, in_features), dtype=dtype)
            self.std_mean = np.ascontiguousarray(
                np.broadcast_to(np.asarray(mean, dtype=dtype), (rows, in_features))
            )
            self.std_scale = np.ascontiguousarray(
                np.broadcast_to(np.asarray(scale, dtype=dtype), (rows, in_features))
            )
        else:
            self.std = None
            self.std_mean = None
            self.std_scale = None
        self.outs = [
            np.empty((rows, step.weight.shape[1]), dtype=dtype) for step in steps
        ]
        self.masks = [
            np.empty((rows, step.weight.shape[1]), dtype=bool) for step in steps[:-1]
        ]
        self.scratches = [
            np.empty((rows, step.weight.shape[1]), dtype=dtype) for step in steps[:-1]
        ]
        self.biases = [
            np.ascontiguousarray(
                np.broadcast_to(step.bias, (rows, step.weight.shape[1]))
            )
            if step.bias is not None
            else None
            for step in steps
        ]
        self.labels = np.empty(rows, dtype=np.intp)

    @property
    def nbytes(self) -> int:
        total = sum(out.nbytes for out in self.outs)
        total += sum(mask.nbytes for mask in self.masks)
        total += sum(scratch.nbytes for scratch in self.scratches)
        total += sum(bias.nbytes for bias in self.biases if bias is not None)
        total += self.labels.nbytes
        if self.concat is not None:
            total += self.concat.nbytes
        if self.std is not None:
            total += self.std.nbytes + self.std_mean.nbytes + self.std_scale.nbytes
        return total


class DenseHeadProgram:
    """Lowered dense classifier: affine steps with in-place ReLU between.

    Mirrors ``_DenseHead.forward`` in eval mode (dropout is the identity)
    bit for bit, including the dtype casts at the pooled/aux boundary.
    Warm calls are allocation-free: all intermediates live in a memoised
    per-row-count :class:`_HeadWorkspace`, so :meth:`logits` (and the
    ``labels`` of :meth:`predict_labels`) return views into reused buffers
    — consume or copy them before the next call with the same row count.
    """

    def __init__(
        self,
        steps: Sequence[DenseStep],
        aux_dim: int,
        dtype: np.dtype,
        standardize: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        if standardize is not None and aux_dim > 0:
            raise ValueError("input standardization requires aux_dim == 0")
        self.steps = list(steps)
        self.aux_dim = aux_dim
        self.dtype = dtype
        self.standardize = standardize
        self._workspaces: Dict[int, _HeadWorkspace] = {}

    def _workspace(self, rows: int) -> _HeadWorkspace:
        workspace = self._workspaces.get(rows)
        if workspace is None:
            if len(self._workspaces) >= _MAX_HEAD_WORKSPACES:
                self._workspaces.clear()
            workspace = _HeadWorkspace(
                self.steps, self.aux_dim, rows, self.dtype, self.standardize
            )
            self._workspaces[rows] = workspace
        return workspace

    def logits(self, pooled: np.ndarray, aux: Optional[np.ndarray]) -> np.ndarray:
        x = np.asarray(pooled, dtype=self.dtype)
        workspace = self._workspace(x.shape[0])
        if self.standardize is not None:
            # (x - mean) * scale through same-shape same-dtype ufuncs: the
            # tiled mean/scale rows keep the warm path temporary-free.
            np.subtract(x, workspace.std_mean, out=workspace.std)
            np.multiply(workspace.std, workspace.std_scale, out=workspace.std)
            x = workspace.std
        if self.aux_dim > 0:
            if aux is None:
                raise ValueError(
                    f"head expects {self.aux_dim} auxiliary features but got none"
                )
            aux = np.asarray(aux)  # no-op for ndarrays; the copy below casts
            if aux.ndim != 2 or aux.shape[1] != self.aux_dim:
                raise ValueError(
                    f"auxiliary features must have shape (batch, {self.aux_dim}), "
                    f"got {aux.shape}"
                )
            concat = workspace.concat
            concat[:, : x.shape[1]] = x
            concat[:, x.shape[1] :] = aux
            x = concat
        last = len(self.steps) - 1
        for index, step in enumerate(self.steps):
            x = step.apply_into(x, workspace.outs[index], workspace.biases[index])
            if index != last:
                F.relu_(
                    x,
                    mask=workspace.masks[index],
                    scratch=workspace.scratches[index],
                )
        return x

    def predict_labels(self, pooled: np.ndarray, aux: Optional[np.ndarray]) -> np.ndarray:
        """Per-row argmax of :meth:`logits`, into the workspace label buffer."""
        logits = self.logits(pooled, aux)
        labels = self._workspaces[logits.shape[0]].labels
        np.argmax(logits, axis=1, out=labels)
        return labels

    # ------------------------------------------------------------- buffers
    @property
    def num_workspaces(self) -> int:
        return len(self._workspaces)

    @property
    def workspace_nbytes(self) -> int:
        return sum(ws.nbytes for ws in self._workspaces.values())

    def clear_buffers(self) -> None:
        self._workspaces.clear()


class InferenceProgram:
    """A model lowered to the autograd-free serving runtime.

    Construct via ``PnPModel.compile_inference(dtype)``.  The program holds
    the arrays it was compiled from (the model's own at the model's dtype,
    copies cast once at another) and reproduces the ``Module`` inference
    path bit for bit (at float32, the ``Module`` under
    :func:`~repro.nn._scatter.reference_kernels`); arenas are bound lazily per
    ``(EdgePlan, dtype)`` and reused across calls, so interleaving batches
    of different sizes is safe — each plan owns its own arena.
    """

    def __init__(
        self,
        encoder_steps: Sequence[KernelStep],
        head: DenseHeadProgram,
        num_relations: int,
        dtype: np.dtype,
    ) -> None:
        self.encoder_steps = list(encoder_steps)
        self.head = head
        self.num_relations = num_relations
        self.dtype = np.dtype(dtype)
        self._bound: "weakref.WeakKeyDictionary[EdgePlan, _BoundEncoder]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------- buffers
    @property
    def num_bound_plans(self) -> int:
        """How many ``(EdgePlan, dtype)`` arena bindings are currently live."""
        return len(self._bound)

    def buffer_stats(self) -> Dict[str, int]:
        """Live buffer accounting: arena and head-workspace sizes in bytes.

        Arenas are keyed by weakly-referenced plans, so entries vanish when
        their plans are garbage collected; anything that holds a batch keeps
        its plans — and therefore arenas — alive.
        ``PnPTuner.inference_cache_stats`` surfaces this and
        :meth:`clear_buffers` sheds it.
        """
        encoders = list(self._bound.values())
        return {
            "bound_plans": len(encoders),
            "arena_buffers": sum(encoder.arena.num_buffers for encoder in encoders),
            "arena_bytes": sum(encoder.arena.nbytes for encoder in encoders),
            "head_workspaces": self.head.num_workspaces,
            "head_bytes": self.head.workspace_nbytes,
        }

    def clear_buffers(self) -> None:
        """Drop every bound arena and head workspace (rebuilt on next use)."""
        self._bound.clear()
        self.head.clear_buffers()

    def describe(self) -> List[str]:
        """The flat, ordered kernel-step listing (for docs/tests)."""
        return [step.describe() for step in self.encoder_steps] + [
            f"logits = dense_head({POOLED_SLOT}, aux)"
        ]

    # ------------------------------------------------------------- encoding
    def _bound_encoder(self, plan: EdgePlan) -> _BoundEncoder:
        bound = self._bound.get(plan)
        if bound is None:
            bound = _BoundEncoder(self.encoder_steps, plan, self.dtype)
            self._bound[plan] = bound
        return bound

    def _encode_view(self, batch: GraphBatch) -> np.ndarray:
        """Pooled embedding as a view into the arena (reused across calls)."""
        plan = batch.edge_plan(self.num_relations, dtype=self.dtype)
        return self._bound_encoder(plan).run(batch.token_ids, batch.node_types)

    def encode_pooled(self, batch: GraphBatch) -> np.ndarray:
        """Pooled per-graph embedding, the twin of ``model.encode_pooled``.

        Returns a fresh copy (the internal pooled buffer is reused across
        calls), so callers may cache the result like the ``Module`` path's.
        """
        return self._encode_view(batch).copy()

    # -------------------------------------------------------------- serving
    def head_logits(self, pooled: np.ndarray, aux: Optional[np.ndarray]) -> np.ndarray:
        """Dense-head logits from a (possibly cached) pooled embedding.

        Returns a view into the head's per-row-count workspace — consume or
        copy before the next same-sized head call.
        """
        return self.head.logits(pooled, aux)

    def predict_from_pooled(
        self, pooled: np.ndarray, aux: Optional[np.ndarray]
    ) -> np.ndarray:
        """Predicted class per row — ``model.predict_from_pooled`` twin.

        The labels land in (and return a view of) the head workspace's
        ``argmax`` buffer, keeping the warm path allocation-free.
        """
        return self.head.predict_labels(pooled, aux)

    def forward_logits(self, batch: GraphBatch) -> np.ndarray:
        """Raw class logits for a batch (encode + head, one call).

        Allocation-free when warm (a view into reused head buffers).
        """
        return self.head.logits(self._encode_view(batch), batch.aux_features)

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """Predicted class per graph — ``model.predict`` twin.

        Warm calls perform zero array allocations; the returned labels are a
        view into the head workspace, reused by the next same-sized call.
        """
        return self.head.predict_labels(self._encode_view(batch), batch.aux_features)
