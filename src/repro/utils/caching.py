"""Small caching helpers.

The exhaustive measurement sweep over the 508-point search space is by far the
most expensive part of dataset construction; tuners, the oracle and the label
builder all reuse the same measurements through per-instance memoisation.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, TypeVar

__all__ = ["memoize_method", "LRUCache"]


class LRUCache:
    """A small least-recently-used mapping with a fixed capacity.

    Used for bounded memoisation where entries can be large (pooled graph
    embeddings in :class:`repro.core.tuner.PnPTuner`, encoded samples of
    never-seen graph structures in :class:`repro.core.dataset.DatasetBuilder`)
    and the key space is open-ended.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Return the cached value (marking it most recently used)."""
        if key not in self._entries:
            self.misses += 1
            return default
        self.hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the least recently used entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

F = TypeVar("F", bound=Callable[..., Any])


def memoize_method(func: F) -> F:
    """Memoise a method per instance, keyed on positional/keyword arguments.

    Unlike :func:`functools.lru_cache` applied directly to a method, the cache
    lives on the instance (``self.__dict__``) so instances remain independent
    and can be garbage collected normally.
    All arguments must be hashable.
    """

    cache_attr = f"_memo_{func.__name__}"

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        cache = self.__dict__.setdefault(cache_attr, {})
        key = (args, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = func(self, *args, **kwargs)
        return cache[key]

    def cache_clear(self) -> None:  # pragma: no cover - trivial
        self.__dict__.pop(cache_attr, None)

    wrapper.cache_clear = cache_clear  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
