"""Synthetic training populations for the teacher–student distillation.

The students must interpolate the teacher's region→pooled-embedding map over
a *neighbourhood* of each benchsuite region, not memorise 68 points: serving
traffic carries regions whose characteristics drift (input scaling, refined
profiles) around the suite's kernels.  :func:`perturb_region` jitters a
region's continuous characteristics multiplicatively (clipped into
:class:`~repro.openmp.region.RegionCharacteristics`' validation ranges) while
keeping its structural identity — application, imbalance pattern, math
calls — so the variant stays in the same family; the perturbed
characteristics flow through :mod:`repro.benchsuite.codegen` into a fresh IR
graph exactly like any real region, which is what the GNN teacher labels.

Variant ids are suffixed ``~p<i>`` (codegen sanitises ``~`` in symbol
names), so populations never collide with real region ids in measurement
databases or embedding caches.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.data import collate_graphs
from repro.openmp.region import RegionCharacteristics
from repro.utils.rng import new_rng

__all__ = [
    "perturb_region",
    "perturb_out_of_family",
    "synthesize_family_population",
    "population_by_family",
    "teacher_embeddings",
]


def _jitter(rng: np.random.Generator, scale: float) -> float:
    """Multiplicative lognormal jitter with median 1."""
    return float(np.exp(rng.normal(0.0, scale)))


def perturb_region(
    region: RegionCharacteristics,
    rng: np.random.Generator,
    scale: float = 0.2,
    index: int = 0,
) -> RegionCharacteristics:
    """An in-family variant of ``region`` with jittered characteristics."""
    serial = region.serial_fraction * _jitter(rng, scale)
    condition = region.condition_density * _jitter(rng, scale)
    nest_depth = region.nest_depth
    if rng.random() < 0.2:
        nest_depth = int(np.clip(nest_depth + rng.choice((-1, 1)), 1, 4))
    parallel_loops = region.parallel_loop_count
    if rng.random() < 0.2:
        parallel_loops = max(1, parallel_loops + int(rng.choice((-1, 1))))
    return replace(
        region,
        region_id=f"{region.region_id}~p{index}",
        iterations=max(2, int(round(region.iterations * _jitter(rng, scale)))),
        flops_per_iteration=region.flops_per_iteration * _jitter(rng, scale),
        int_ops_per_iteration=region.int_ops_per_iteration * _jitter(rng, scale),
        memory_bytes_per_iteration=(
            region.memory_bytes_per_iteration * _jitter(rng, scale)
        ),
        working_set_bytes=max(1.0, region.working_set_bytes * _jitter(rng, scale)),
        reuse_factor=float(np.clip(region.reuse_factor * _jitter(rng, scale), 1e-3, 1.0)),
        serial_fraction=float(np.clip(serial, 0.0, 0.95)),
        parallel_loop_count=parallel_loops,
        nest_depth=nest_depth,
        iteration_cost_cv=float(
            np.clip(region.iteration_cost_cv * _jitter(rng, scale), 0.0, 4.0)
        ),
        atomics_per_iteration=region.atomics_per_iteration * _jitter(rng, scale),
        branches_per_iteration=region.branches_per_iteration * _jitter(rng, scale),
        branch_misprediction_rate=float(
            np.clip(region.branch_misprediction_rate * _jitter(rng, scale), 0.0, 1.0)
        ),
        condition_density=float(np.clip(condition, 0.0, 1.0)),
    )


def perturb_out_of_family(
    region: RegionCharacteristics, index: int = 0, factor: float = 1e6
) -> RegionCharacteristics:
    """A variant far outside the family's observed feature ranges.

    Used by tests and benches to exercise the trust gate: the workload is
    blown up by ``factor`` (iterations, footprint, op counts), which pushes
    the log-scale features well past any calibrated range, so a correctly
    built gate must route the region to the GNN fallback.
    """
    return replace(
        region,
        region_id=f"{region.region_id}~oof{index}",
        iterations=max(2, int(region.iterations * factor)),
        flops_per_iteration=region.flops_per_iteration * factor + 1.0,
        memory_bytes_per_iteration=region.memory_bytes_per_iteration * factor + 8.0,
        working_set_bytes=region.working_set_bytes * factor,
        serial_fraction=0.9,
        iteration_cost_cv=4.0,
    )


def synthesize_family_population(
    regions: Sequence[RegionCharacteristics],
    per_region: int = 6,
    seed: int = 0,
    scale: float = 0.2,
) -> List[RegionCharacteristics]:
    """The family's training population: originals first, then variants."""
    population = list(regions)
    for region in regions:
        rng = new_rng(seed, f"distill/{region.region_id}")
        population.extend(
            perturb_region(region, rng, scale=scale, index=index)
            for index in range(per_region)
        )
    return population


def teacher_embeddings(
    tuner,
    regions: Sequence[RegionCharacteristics],
    dtype: Optional[str] = None,
    batch_size: int = 32,
) -> np.ndarray:
    """Teacher (GNN) pooled embeddings for ``regions``, ``(R, hidden_dim)``.

    Batched through the tuner's compiled encoder — the same arrays the
    serving path caches — so student targets are exactly the teacher's
    serving-time output.  Counters are never profiled: pooled embeddings
    depend only on the region's generated graph, not the auxiliary features.
    """
    regions = list(regions)
    program = tuner.compile_inference(dtype)
    cap = float(min(tuner.search_space.power_caps))
    rows: List[np.ndarray] = []
    for start in range(0, len(regions), batch_size):
        chunk = regions[start : start + batch_size]
        samples = [
            tuner.builder.inference_sample(region, power_cap=cap).sample
            for region in chunk
        ]
        rows.append(program.encode_pooled(collate_graphs(samples)))
    if not rows:
        return np.empty((0, tuner.model_config.hidden_dim))
    return np.concatenate(rows, axis=0)


def population_by_family(
    regions_by_app: Dict[str, Sequence[RegionCharacteristics]],
    per_region: int = 6,
    seed: int = 0,
    scale: float = 0.2,
) -> Dict[str, List[RegionCharacteristics]]:
    """Per-family populations for every application in ``regions_by_app``."""
    return {
        family: synthesize_family_population(
            regions, per_region=per_region, seed=seed, scale=scale
        )
        for family, regions in sorted(regions_by_app.items())
    }
