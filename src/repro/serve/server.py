"""Deterministic process-pool map for the experiment runners.

:func:`parallel_map` shards independent work items (the cross-validation
folds) over a worker-process pool and returns the
results in input order, so any deterministic function yields output
identical to the serial list comprehension.  Serving itself runs over the
TCP fleet (:mod:`repro.serve.node` / :mod:`repro.serve.fleet`).
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.serve.spec import default_start_method

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    function: Callable[[T], R],
    items: Sequence[T],
    num_workers: int,
    start_method: Optional[str] = None,
) -> List[R]:
    """``[function(item) for item in items]`` over a worker-process pool.

    Results come back in input order, so any deterministic ``function``
    yields output identical to the serial list comprehension.  ``function``
    and the items must be picklable (a module-level callable or a dataclass
    instance — the experiment runners pass fold-runner objects).  With
    ``num_workers <= 1`` (or a single item) no processes are spawned.
    """
    items = list(items)
    if num_workers <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    context = multiprocessing.get_context(start_method or default_start_method())
    with context.Pool(processes=min(num_workers, len(items))) as pool:
        return pool.map(function, items, chunksize=1)
