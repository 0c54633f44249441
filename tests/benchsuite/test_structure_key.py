"""Property tests of the structure key, the tuner's stand-in for a code graph.

:func:`repro.benchsuite.codegen.structure_key` keys the tuner's embedding
cache and the builder's sample memo, so two regions with equal keys must get
byte-equal encoded graphs: otherwise one would be served the other's
embedding.  A key finer than the graph is safe but wasteful (each needless
split costs a graph build and a GNN encode), so on the benchmark's stream of
never-seen regions distinct keys must mean distinct graphs as well.
"""

from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from repro.benchsuite.codegen import scaled_region_counts
from repro.benchsuite.registry import all_regions
from repro.core.dataset import DatasetBuilder
from repro.core.measurements import MeasurementDatabase
from repro.core.search_space import SearchSpace
from repro.distill import perturb_out_of_family, perturb_region
from repro.hw.machine import Machine
from repro.openmp.region import ImbalancePattern
from repro.utils.rng import new_rng

SEED = 0
#: Structures drawn, and regions drawn per structure.
STRUCTURES = 2_500
VARIANTS = 4
#: Per-dimension trip counts by what the graph shows of them: 2-5 exactly,
#: larger ones by bit length.  Together: 2-9, then both sides of every
#: bit-length edge up to 2^11.
TRIP_BUCKETS = ((2,), (3,), (4,), (5,), (6, 7), (8, 9, 15)) + tuple(
    (2**bits, 2 ** (bits + 1) - 1) for bits in range(4, 11)
) + ((2048,),)
TRIPS = {trip for bucket in TRIP_BUCKETS for trip in bucket}
# Raw per-iteration values by the statement count they log-compress to.
OPS_BY_COUNT = ((0.0,), (0.3, 0.45), (5.0, 5.5), (1e7, 3e7))
MEMORY_BYTES_BY_COUNT = ((0.0, 2.0), (100.0, 120.0), (1e9, 3e9))
CONDITION_DENSITIES_BY_COUNT = ((0.0, 0.1), (0.5, 0.55), (1.0,))
#: The benchmark's never-seen stream (``tune_novel``): calls of 16 regions.
STREAM_CALLS = 50
STREAM_BATCH = 16


@pytest.fixture(scope="module")
def builder():
    database = MeasurementDatabase(
        Machine.named("haswell", seed=SEED), SearchSpace("haswell"), all_regions()
    )
    return DatasetBuilder(database, seed=SEED)


def _drawn_regions(suite, rng):
    """``VARIANTS`` regions for each of ``STRUCTURES`` drawn structures.

    A structure fixes every count the key holds, cycling nest depths 1-4 and
    the atomics, math-call and triangular flags; its variants differ in all
    the key claims the graph does not show: raw values within a count, trips
    within a bit length, ids (so barrier draws), the suite region they
    start from, and the non-triangular imbalance pattern.
    """
    def pick(choices):
        return choices[rng.integers(len(choices))]

    regions = []
    for structure in range(STRUCTURES):
        depth = 1 + structure % 4
        atomics, math_calls, triangular = (bool(structure >> bit & 1) for bit in (2, 3, 4))
        flops, int_ops = (OPS_BY_COUNT[i] for i in rng.integers(len(OPS_BY_COUNT), size=2))
        if flops == int_ops == OPS_BY_COUNT[0]:
            flops = OPS_BY_COUNT[1]
        memory = pick(MEMORY_BYTES_BY_COUNT)
        condition = pick(CONDITION_DENSITIES_BY_COUNT)
        trips = pick(TRIP_BUCKETS)
        for variant in range(VARIANTS):
            index = structure * VARIANTS + variant
            base = suite[index % len(suite)]
            pattern = ImbalancePattern.LINEAR if triangular else pick(
                (ImbalancePattern.UNIFORM, ImbalancePattern.RANDOM)
            )
            regions.append(
                replace(
                    base,
                    region_id=f"{base.region_id}~k{index}",
                    iterations=pick(trips) ** depth,
                    nest_depth=depth,
                    flops_per_iteration=pick(flops),
                    int_ops_per_iteration=pick(int_ops),
                    memory_bytes_per_iteration=pick(memory),
                    condition_density=pick(condition),
                    atomics_per_iteration=float(rng.uniform(0.1, 2.0)) if atomics else 0.0,
                    calls_external_math=math_calls,
                    imbalance_pattern=pattern,
                )
            )
    return regions


def _stream_regions(suite):
    """The first ``STREAM_CALLS`` calls of ``tune_novel``'s seed-0 stream."""
    rng = new_rng(SEED, "perf/tune_novel")
    return [
        perturb_region(suite[rng.integers(len(suite))], rng, index=call * STREAM_BATCH + i)
        for call in range(STREAM_CALLS)
        for i in range(STREAM_BATCH)
    ]


def _encoded(builder, graph) -> bytes:
    sample = builder.encoder.encode(graph)
    return b"|".join(
        np.ascontiguousarray(array).tobytes()
        for array in (sample.token_ids, sample.node_types, sample.edge_index, sample.edge_type)
    )


def test_equal_keys_give_byte_equal_graphs(builder):
    suite = builder.regions()
    regions = _drawn_regions(suite, np.random.default_rng(SEED))
    regions += [perturb_out_of_family(region, index=k) for k in range(3) for region in suite]
    samples_by_key = defaultdict(set)
    for region in regions:
        graph = builder._build_graph(region)
        samples_by_key[builder.structure_key(region)].add(_encoded(builder, graph))
    graphs = builder.region_graphs()
    for region in suite:
        samples_by_key[builder.structure_key(region)].add(
            _encoded(builder, graphs[region.region_id])
        )

    collided = [key for key, samples in samples_by_key.items() if len(samples) > 1]
    assert collided == []

    # The draw reaches every boundary, and many keys are shared.
    counts = [scaled_region_counts(region) for region in regions]
    assert {c["per_dim_trip"] for c in counts} >= TRIPS
    assert {c["nest_depth"] for c in counts} == {1, 2, 3, 4}
    for name in ("atomic_insts", "math_calls", "triangular"):
        assert {c[name] for c in counts} == {0, 1}, name
    keys = [builder.structure_key(region) for region in regions]
    # The barrier flag ends the key; without atomics it is a seeded draw.
    barriers = {key[-1] for key, c in zip(keys, counts) if not c["atomic_insts"]}
    assert barriers == {False, True}
    regions_by_key = defaultdict(int)
    for key in keys:
        regions_by_key[key] += 1
    assert sum(n for n in regions_by_key.values() if n > 1) > len(regions) // 2


def test_stream_keys_are_no_finer_than_its_graphs(builder):
    """Distinct keys are distinct graphs on the benchmark's stream: an
    exact trip count in the key would split most shared graphs."""
    keys, samples = set(), set()
    for region in _stream_regions(builder.regions()):
        keys.add(builder.structure_key(region))
        samples.add(_encoded(builder, builder._build_graph(region)))
    assert len(keys) == len(samples)
    assert len(keys) < STREAM_CALLS * STREAM_BATCH
