"""Neural-network modules (layers) and the :class:`Module` base class.

The module system mirrors the small slice of ``torch.nn`` needed here:
parameter registration, recursive ``state_dict`` / ``load_state_dict``,
train/eval mode switching, and a handful of concrete layers (``Linear``,
``Embedding``, ``Dropout``, activation wrappers, ``Sequential``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
    "ModuleList",
]


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`~repro.nn.tensor.Tensor` attributes (parameters)
    and :class:`Module` attributes (sub-modules) in ``__init__``; both are
    discovered automatically for parameter iteration and serialization.
    """

    #: Replaced by a new object whenever any module registers a parameter or
    #: a sub-module.  Each module caches its flat parameter list with the
    #: token current when it was walked, so one registration anywhere in a
    #: tree invalidates every ancestor's list without parent links.  A token
    #: is an object, not a count, so a list unpickled from another process
    #: never matches this one's.
    _registration_token: object = object()

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------ registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            Module._registration_token = object()
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            Module._registration_token = object()
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Explicitly register a parameter under ``name`` and return it."""
        tensor.requires_grad = True
        self._parameters[name] = tensor
        Module._registration_token = object()
        object.__setattr__(self, name, tensor)
        return tensor

    # ------------------------------------------------------------- iteration
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Tensor]:
        """Return all parameters as a flat list (a fresh list per call).

        The recursive walk runs once per registration: the list is cached
        until any module registers a parameter or a sub-module.
        """
        cached = self.__dict__.get("_flat_parameters")
        if cached is None or cached[0] is not Module._registration_token:
            cached = (Module._registration_token, [p for _, p in self.named_parameters()])
            object.__setattr__(self, "_flat_parameters", cached)
        return list(cached[1])

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, including ``self``."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        """Yield immediate sub-modules."""
        yield from self._modules.values()

    # ------------------------------------------------------------------ mode
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. dropout)."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # --------------------------------------------------------------- weights
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name→array copy of all parameters (dtype preserved)."""
        return {name: np.array(param.data, copy=True) for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a flat name→array mapping.

        With ``strict=True`` (default) the key sets must match exactly; with
        ``strict=False`` missing or extra keys are ignored, which is what the
        transfer-learning step uses to load only the GNN-layer weights.

        Loaded values are cast to each parameter's existing dtype, so a
        ``float32`` model can consume a ``float64`` checkpoint (and vice
        versa) without changing the module's precision.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(f"state_dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.data.shape}, got {value.shape}"
                )
            param.data = np.array(value, copy=True)

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place and return ``self``.

        Accumulated gradients are dropped (they were computed at the old
        precision); optimizer moment buffers keyed on the parameters pick up
        the new dtype from the next backward pass's gradients.
        """
        from repro.nn import precision

        resolved = precision.resolve_dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(resolved, copy=False)
            param.grad = None
        return self

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (modules are never mixed-precision)."""
        # named_parameters is a generator, so this inspects only the first
        # parameter instead of materialising the whole recursive list (the
        # property sits on serving hot paths).
        for _, param in self.named_parameters():
            return param.data.dtype
        from repro.nn import precision

        return precision.get_default_dtype()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ call
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transform ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learnable bias.
    rng:
        Generator used for weight initialisation (Kaiming uniform).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.kaiming_uniform((in_features, out_features), rng), requires_grad=True
        )
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias: Optional[Tensor] = Tensor(
                init.uniform((out_features,), rng, bound), requires_grad=True
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def lower(self, dtype: np.dtype):
        """Lower to a raw-ndarray :class:`~repro.nn.inference.DenseStep` at ``dtype``.

        At the layer's own dtype the step shares its parameter arrays by
        reference; at another it holds copies cast once.  It reproduces the
        forward bit for bit (matmul, then in-place bias add on the fresh
        result).
        """
        from repro.nn.inference import DenseStep

        return DenseStep(
            self.weight.data.astype(dtype, copy=False),
            self.bias.data.astype(dtype, copy=False) if self.bias is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for the IR-token vocabulary embedding fed to the RGCN as node
    features.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(embedding_dim), size=(num_embeddings, embedding_dim)),
            requires_grad=True,
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight.gather_rows(ids)

    def lower(
        self, ids_input: str, out_slot: str, dtype: np.dtype, accumulate: bool = False
    ):
        """Lower to a raw-ndarray gather step for the inference runtime.

        ``ids_input`` names the encoder input to gather by (``"token_ids"``
        or ``"node_types"``); with ``accumulate=True`` the gathered rows add
        into ``out_slot`` in place (the token + node-kind embedding sum).
        The table is cast to ``dtype`` once (shared by reference at the
        layer's own dtype).
        """
        from repro.nn.inference import GatherRowsStep

        table = self.weight.data.astype(dtype, copy=False)
        return [GatherRowsStep(table, ids_input, out_slot, accumulate)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout layer; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout(p={self.p})"


class ReLU(Module):
    """ReLU activation as a module (for use inside ``Sequential``)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    """Leaky-ReLU activation as a module."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)


class ModuleList(Module):
    """Indexed container of sub-modules (no forward of its own)."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = f"item{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")
