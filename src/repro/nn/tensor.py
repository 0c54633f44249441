"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class records a dynamic computation graph as operations
are applied and computes gradients with a single reverse topological sweep
(:meth:`Tensor.backward`).  Only the operations required by the PnP tuner's
RGCN + dense classifier are implemented, but each is implemented with full
broadcasting support so the layers above can be written naturally.

Gradient conventions
--------------------
* Gradients are accumulated (summed) into ``Tensor.grad`` as plain NumPy
  arrays; call :meth:`Tensor.zero_grad` (or ``Optimizer.zero_grad``) between
  steps.
* Broadcasting in the forward pass is undone in the backward pass by summing
  the incoming gradient over the broadcast axes (``_unbroadcast``).
* Operations on tensors with ``requires_grad=False`` propagate data only; no
  graph is recorded for them, so inference under :func:`no_grad` allocates no
  backward closures.
* ``Tensor.grad`` arrays may be **shared** between tensors (accumulation
  stores the incoming array without copying; equal-shape backward paths hand
  the same array to several parents).  Never mutate a gradient in place —
  e.g. ``param.grad *= scale`` for clipping — rebind instead
  (``param.grad = param.grad * scale``); nothing in this package mutates
  gradients in place, which is what makes the no-copy accumulation safe.

Precision policy
----------------
Raw data entering a tensor is converted to the active policy dtype of
:mod:`repro.nn.precision` (``float64`` by default) unless an explicit
``dtype=`` is given.  Operation *results* keep their operands' dtype — a
``float32`` graph stays ``float32`` through forward and backward (scalar
operands are lifted at the tensor's own dtype, masks are built in it, and
the seed gradient is cast to it), which the strict
:func:`repro.nn.precision.dtype_checks` mode asserts.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import precision
from repro.nn._scatter import fast_kernels_enabled, scatter_rows_sum

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype: Optional[np.dtype] = None) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype if dtype is not None else precision._ACTIVE)
    return arr


class Tensor:
    """A NumPy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like initial value (converted to ``dtype``).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    dtype:
        Target dtype; defaults to the active policy dtype of
        :mod:`repro.nn.precision` (``float64`` unless switched).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 100  # ensure ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
        dtype: Optional[np.dtype] = None,
    ):
        self.data: np.ndarray = _as_array(data, dtype)
        if precision._STRICT:
            precision._check_tensor(self.data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the sole element as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------- graph glue
    @staticmethod
    def _lift(
        value: Union["Tensor", ArrayLike], dtype: Optional[np.dtype] = None
    ) -> "Tensor":
        """Wrap ``value`` as a tensor; non-tensors convert at ``dtype``.

        Binary operations pass their own dtype so scalar/array operands join
        the graph without promoting it (``float32_tensor * 2.0`` stays
        ``float32``); lifted tensors are never recast.
        """
        return value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)

    @staticmethod
    def _lift_all(values: Sequence[Union["Tensor", ArrayLike]]) -> List["Tensor"]:
        """Lift a sequence, anchoring raw elements to the first tensor's dtype."""
        anchor = next(
            (v.data.dtype for v in values if isinstance(v, Tensor)), None
        )
        return [Tensor._lift(v, dtype=anchor) for v in values]

    def _make(
        self,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the autograd graph."""
        parents = tuple(parents)
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        # Results keep the dtype the operation produced (operand-following);
        # only raw-data boundaries convert to the policy dtype.
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._prev = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # No copy: gradient arrays are never mutated in place anywhere in the
        # framework (accumulation rebinds to a fresh sum), so sharing the
        # incoming array is safe and avoids one allocation per graph node.
        # (reference_kernels() restores the seed's defensive copy so the
        # engine benchmarks measure against the original behaviour.)
        if precision._STRICT:
            precision._check_grad(grad, self.data)
        if self.grad is None:
            self.grad = grad if fast_kernels_enabled() else np.array(grad, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1.0 and may only be omitted for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        # Copy the seed gradient so a caller-owned array can never alias the
        # accumulated gradients (internal backward closures always hand over
        # freshly computed arrays).
        grad = np.array(grad, dtype=self.data.dtype, copy=True)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order over the dynamic graph.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other, self.data.dtype))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other, self.data.dtype) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.outer(grad, b) if a.ndim == 2 else grad * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim == 2 else grad * a
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return self._make(out_data, (self, other), backward)

    # ----------------------------------------------------------- reductions
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=axes)
            self._accumulate(np.broadcast_to(g, self.data.shape).astype(self.data.dtype))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            denom = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(self.data.dtype)
                mask /= mask.sum(axis=axis, keepdims=True)
                g = grad if keepdims else np.expand_dims(grad, axis=axis)
                self._accumulate(mask * g)

        return self._make(out_data, (self,), backward)

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        # For 0 < slope <= 1, max(x, slope*x) selects x for positives and
        # slope*x otherwise — bit-identical to the masked multiply but one
        # pass cheaper; the subgradient mask is only built when backward runs
        # (never under no_grad inference).
        if fast_kernels_enabled() and 0.0 < negative_slope <= 1.0:
            out_data = np.maximum(self.data, self.data * negative_slope)
            mask: Optional[np.ndarray] = None
        else:
            # Seed path: build the mask eagerly and reuse it in backward.
            mask = np.where(self.data > 0, 1.0, negative_slope).astype(
                self.data.dtype, copy=False
            )
            out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                subgradient = (
                    mask
                    if mask is not None
                    else np.where(self.data > 0, 1.0, negative_slope).astype(
                        self.data.dtype, copy=False
                    )
                )
                self._accumulate(grad * subgradient)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    # --------------------------------------------------------------- shapes
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(np.array(out_data, copy=True), (self,), backward)

    @staticmethod
    def add_n(tensors: Sequence["Tensor"]) -> "Tensor":
        """Sum equally-shaped tensors left to right in one fused op.

        Bit-identical to the chained ``t0 + t1 + ... + tn`` (same left-
        associative elementwise addition order) but with a single output
        allocation and one autograd node instead of ``n``.
        """
        tensors = Tensor._lift_all(tensors)
        if not tensors:
            raise ValueError("add_n needs at least one tensor")
        shape = tensors[0].data.shape
        if any(t.data.shape != shape for t in tensors[1:]):
            raise ValueError("add_n requires equally-shaped tensors")
        out_data = tensors[0].data.copy()
        for tensor in tensors[1:]:
            out_data += tensor.data

        def backward(grad: np.ndarray) -> None:
            for tensor in tensors:
                if tensor.requires_grad:
                    tensor._accumulate(grad)

        return tensors[0]._make(out_data, tensors, backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = Tensor._lift_all(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        # Use the first tensor's _make machinery (any would do).
        return tensors[0]._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = Tensor._lift_all(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad:
                    tensor._accumulate(piece)

        return tensors[0]._make(out_data, tensors, backward)

    # --------------------------------------------------------- graph kernels
    def gather_rows(
        self,
        index: np.ndarray,
        backward_flat: Optional[np.ndarray] = None,
    ) -> "Tensor":
        """Select rows ``self[index]`` (autograd-aware gather along axis 0).

        ``backward_flat`` optionally carries the precomputed
        :func:`repro.nn._scatter.flat_scatter_index` of ``index`` for the
        gathered row width, reused by the backward scatter (an
        :class:`~repro.nn.data.EdgePlan` provides it per relation).
        """
        index = np.asarray(index, dtype=np.int64)
        # Fancy indexing with an integer array already returns a fresh copy
        # (the seed's extra np.array copy is re-enabled under
        # reference_kernels() for faithful before/after benchmarks).
        out_data = self.data[index]
        if not fast_kernels_enabled():
            out_data = np.array(out_data, copy=True)
        num_rows = self.data.shape[0]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if grad.ndim == 2 and self.data.ndim == 2:
                    self._accumulate(
                        scatter_rows_sum(grad, index, num_rows, flat=backward_flat)
                    )
                else:
                    full = np.zeros_like(self.data)
                    np.add.at(full, index, grad)
                    self._accumulate(full)

        return self._make(out_data, (self,), backward)

    def scatter_sum(
        self,
        index: np.ndarray,
        dim_size: int,
        flat_index: Optional[np.ndarray] = None,
    ) -> "Tensor":
        """Sum rows of ``self`` into ``dim_size`` buckets given by ``index``.

        ``out[j] = sum_{i : index[i] == j} self[i]`` — the core aggregation
        primitive for graph convolutions and global pooling.  ``flat_index``
        optionally passes the precomputed flat (bucket, channel) bins of
        ``index`` (see :func:`repro.nn._scatter.flat_scatter_index`).
        """
        index = np.asarray(index, dtype=np.int64)
        if index.shape[0] != self.data.shape[0]:
            raise ValueError("index length must match the leading dimension")
        out_data = scatter_rows_sum(self.data, index, dim_size, flat=flat_index)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[index])

        return self._make(out_data, (self,), backward)
