"""Discrete simulation of OpenMP loop scheduling.

Given a region's per-iteration cost distribution and a runtime configuration,
this module estimates (i) the load-imbalance factor — how much longer the
slowest thread works than the average — and (ii) the number of chunk
dispatches, which the execution model turns into scheduling overhead.

Static scheduling assigns chunks round-robin at compile time (zero dispatch
cost, but imbalance when iteration costs vary systematically).  Dynamic
scheduling assigns each chunk to the first idle thread (good balance, one
dispatch per chunk).  Guided scheduling starts with large chunks and shrinks
them geometrically.

The assignment rule: under dynamic and guided scheduling each chunk, in
issue order, goes to the earliest-finishing thread — the one with the least
work so far — and the lowest thread index wins a tie.  A heap of ``(load,
thread)`` pairs finds that thread without scanning every load; static
round-robin sums each thread's chunks with one ``np.bincount``.  Both make
the same additions in the same order as a per-chunk loop over the threads'
loads, so the results are bit-identical to it.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.openmp.config import OpenMPConfig, ScheduleKind
from repro.openmp.region import ImbalancePattern, RegionCharacteristics
from repro.utils.rng import new_rng

__all__ = ["ScheduleOutcome", "simulate_schedule"]

#: Upper bound on the number of chunks simulated explicitly; beyond this the
#: makespan is computed on aggregated super-chunks (the dispatch count still
#: reflects the true number of chunks).
_MAX_SIMULATED_CHUNKS = 1024


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of simulating one (region, configuration) schedule.

    Attributes
    ----------
    imbalance_factor:
        Makespan divided by the perfectly balanced per-thread work (≥ 1).
    num_dispatches:
        Number of chunk acquisitions performed by the runtime (dynamic and
        guided pay a dispatch cost per acquisition; static pays none).
    num_chunks:
        Total number of chunks the iteration space was divided into.
    chunk_size:
        The (initial) chunk size used.
    """

    imbalance_factor: float
    num_dispatches: int
    num_chunks: int
    chunk_size: int


def _iteration_costs(region: RegionCharacteristics, sample_size: int, seed: int) -> np.ndarray:
    """Relative per-iteration costs (mean 1.0) over a representative sample."""
    if region.iteration_cost_cv <= 0 or region.imbalance_pattern == ImbalancePattern.UNIFORM:
        return np.ones(sample_size)

    cv = region.iteration_cost_cv
    if region.imbalance_pattern == ImbalancePattern.LINEAR:
        # Cost grows linearly across the iteration space with the requested
        # coefficient of variation; a uniform ramp on [a, b] has
        # cv = (b - a) / (sqrt(3) (a + b)).
        spread = min(cv * np.sqrt(3.0), 0.999)
        ramp = np.linspace(1.0 - spread, 1.0 + spread, sample_size)
        return np.maximum(ramp, 1e-3)

    rng = new_rng(seed, f"schedule-costs/{region.region_id}")
    sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
    costs = rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=sample_size)
    return np.maximum(costs, 1e-3)


@functools.lru_cache(maxsize=4)
def _cumulative_costs(region: RegionCharacteristics, seed: int) -> np.ndarray:
    """Read-only cumulative cost sample of ``region``, starting at 0.

    Keyed by the region's content (the frozen dataclass) and the seed.  The
    engine simulates one region's configurations back to back, so a few
    entries serve every repeat while the memo stays small.
    """
    costs = _iteration_costs(region, int(min(region.iterations, 4096)), seed)
    cumulative = np.concatenate([[0.0], np.cumsum(costs)])
    cumulative.flags.writeable = False
    return cumulative


def _chunk_layout(
    schedule: ScheduleKind, iterations: int, chunk: int, threads: int
) -> Tuple[int, np.ndarray]:
    """Number of chunks and the (possibly aggregated) chunk sizes to simulate.

    For static and dynamic schedules the chunk count is ``ceil(iterations /
    chunk)``; when that exceeds :data:`_MAX_SIMULATED_CHUNKS` the makespan
    simulation runs on evenly aggregated super-chunks while the returned
    chunk count still reflects the true number of runtime dispatches.  Guided
    schedules produce geometrically shrinking chunks and are always small
    enough to enumerate directly.
    """
    if schedule in (ScheduleKind.STATIC, ScheduleKind.DYNAMIC):
        num_chunks = (iterations + chunk - 1) // chunk
        if num_chunks <= _MAX_SIMULATED_CHUNKS:
            full, rest = divmod(iterations, chunk)
            sizes = np.full(full + (1 if rest else 0), chunk, dtype=np.int64)
            if rest:
                sizes[-1] = rest
            return num_chunks, sizes
        sim_count = _MAX_SIMULATED_CHUNKS
        base, remainder = divmod(iterations, sim_count)
        sizes = np.full(sim_count, base, dtype=np.int64)
        sizes[:remainder] += 1
        return num_chunks, sizes

    # Guided: each chunk is remaining/threads, never below the minimum chunk.
    sizes_list = []
    remaining = iterations
    while remaining > 0:
        size = min(max(chunk, -(-remaining // threads)), remaining)
        sizes_list.append(size)
        remaining -= size
    sizes = np.array(sizes_list, dtype=np.int64)
    return len(sizes_list), sizes


def _chunk_costs(sizes: np.ndarray, cumulative: np.ndarray, iterations: int) -> np.ndarray:
    """Total relative cost of each chunk given the cumulative cost sample."""
    # Map chunk boundaries onto the (possibly smaller) cost sample.
    samples = len(cumulative) - 1
    boundaries = np.concatenate([[0], np.cumsum(sizes)]).astype(np.float64)
    scaled = boundaries / iterations * samples
    positions = np.clip(scaled, 0, samples)
    # Linear interpolation of the cumulative cost at fractional positions.
    interp = np.interp(positions, np.arange(len(cumulative)), cumulative)
    chunk_cost = np.diff(interp)
    # Rescale so total relative cost equals the number of iterations.
    total = chunk_cost.sum()
    if total <= 0:
        return np.asarray(sizes, dtype=np.float64)
    return chunk_cost * (iterations / total)


def simulate_schedule(
    region: RegionCharacteristics, config: OpenMPConfig, seed: int = 0
) -> ScheduleOutcome:
    """Simulate how ``config`` schedules ``region``'s parallel loop.

    The returned imbalance factor is relative to a perfectly balanced
    distribution of the same total work over ``config.num_threads`` threads.
    """
    threads = max(1, config.num_threads)
    iterations = region.iterations
    chunk = config.effective_chunk(iterations)
    num_chunks, sim_sizes = _chunk_layout(config.schedule, iterations, chunk, threads)
    chunk_cost = _chunk_costs(sim_sizes, _cumulative_costs(region, seed), iterations)

    if config.schedule == ScheduleKind.STATIC:
        # Chunks are assigned round-robin in issue order.
        owners = np.arange(len(chunk_cost)) % threads
        loads = np.bincount(owners, weights=chunk_cost, minlength=threads)
        dispatches = 0
    else:
        # Dynamic and guided: next chunk goes to the earliest-finishing thread.
        heap = [(0.0, thread) for thread in range(threads)]  # sorted: a valid heap
        for cost in chunk_cost.tolist():
            load, thread = heap[0]
            heapq.heapreplace(heap, (load + cost, thread))
        loads = np.zeros(threads)
        for load, thread in heap:
            loads[thread] = load
        dispatches = num_chunks

    total = loads.sum()
    if total <= 0:
        imbalance = 1.0
    else:
        balanced = total / threads
        imbalance = float(loads.max() / balanced)

    return ScheduleOutcome(
        imbalance_factor=max(imbalance, 1.0),
        num_dispatches=dispatches,
        num_chunks=num_chunks,
        chunk_size=chunk,
    )
