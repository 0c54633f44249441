"""IR generation for benchmark regions.

The real pipeline compiles each application with Clang and extracts the
outlined parallel-region functions.  Here, the outlined IR is generated
directly from each region's characteristics so that the code structure the
GNN observes (loop-nest depth, balance of loads/stores vs. floating-point
arithmetic, data-dependent branches, atomics, math-library calls) faithfully
reflects the behaviour the execution simulator assigns to that region.

Instruction counts inside the generated loop body are log-scaled so graphs
stay at a few hundred nodes while preserving the *relative* composition of
operations — which is the signal the model needs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.ir import IRBuilder, Function, Module
from repro.ir import types as irt
from repro.ir.function import OMP_OUTLINED_ATTR
from repro.ir.verifier import verify_module
from repro.openmp.region import ImbalancePattern, RegionCharacteristics
from repro.utils.rng import new_rng

__all__ = [
    "generate_region_function",
    "generate_application_module",
    "region_function_name",
    "scaled_region_counts",
    "structure_key",
]

#: The largest integer literal the generator emits besides the loop trip
#: count: ``IRBuilder.counted_loop`` emits 0 and 1, the integer chain of the
#: loop body 1 to 5.
_LARGEST_OTHER_INT_LITERAL = 5


def region_function_name(region: RegionCharacteristics) -> str:
    """Symbol name of the outlined function for ``region``."""
    kernel = region.region_id.split("/", 1)[1]
    safe = kernel.replace("/", "_").replace("-", "_").replace("~", "_")
    return f"{region.application}.{safe}.omp_outlined"


def _scaled_count(value: float, scale: float = 2.0, maximum: int = 20) -> int:
    """Log-compress a per-iteration operation count into an IR statement count."""
    if value <= 0:
        return 0
    # Pure-Python clamp: this also runs per-query in the distillation
    # feature extractor's hot path, where numpy scalar ops would allocate.
    return min(max(int(round(math.log2(1.0 + value) * scale)), 1), maximum)


def scaled_region_counts(region: RegionCharacteristics) -> Dict[str, int]:
    """The log-compressed structural counts the generator lowers for ``region``.

    These are exactly the quantities :func:`generate_region_function` turns
    into IR statements — the structural signal the GNN's graphs encode.
    Exposed so the distillation feature extractor
    (:mod:`repro.distill.features`) can present its students with the same
    view of a region the teacher's graphs are built from.
    """
    return {
        "flop_insts": _scaled_count(region.flops_per_iteration),
        "int_insts": _scaled_count(region.int_ops_per_iteration),
        "mem_insts": max(1, _scaled_count(region.memory_bytes_per_iteration / 8.0)),
        "cond_blocks": min(max(int(round(region.condition_density * 4)), 0), 4),
        "atomic_insts": 1 if region.atomics_per_iteration > 0 else 0,
        "math_calls": 1 if region.calls_external_math else 0,
        "triangular": 1 if region.imbalance_pattern == ImbalancePattern.LINEAR else 0,
        "per_dim_trip": max(
            2, int(round(region.iterations ** (1.0 / region.nest_depth)))
        ),
        "nest_depth": int(region.nest_depth),
    }


def _ends_with_barrier(region: RegionCharacteristics, seed: int) -> bool:
    """Whether the outlined function of ``region`` ends in ``__kmpc_barrier``.

    A region with atomics always does; any other on a draw seeded by its id.
    """
    return (
        region.atomics_per_iteration > 0
        or new_rng(seed, f"codegen/{region.region_id}").random() < 0.3
    )


def structure_key(region: RegionCharacteristics, seed: int = 0) -> Tuple:
    """Exact key of the graph :func:`generate_region_function` emits.

    The key is the generator's complete input: the structural counts of
    :func:`scaled_region_counts` and whether the function ends in a barrier.
    Nothing else of ``region`` reaches the code graph (its application and
    id name the function, and the id seeds the barrier draw), so regions
    with equal keys at one ``seed`` lower to graphs with identical tokens,
    node kinds and edges, and share one GNN embedding.  It is computed
    without building the IR: the count values in order, then the barrier
    flag.

    The trip count is the one count the graph does not show exactly.  Equal
    literals share a constant node, so a trip of at most
    ``_LARGEST_OTHER_INT_LITERAL`` can merge with another literal and stays
    exact; a larger one shows only as its magnitude token
    (:func:`repro.graphs.programl.constant_token`), so it enters the key as
    its bit length.
    """
    counts = scaled_region_counts(region)
    trip = counts["per_dim_trip"]
    if trip > _LARGEST_OTHER_INT_LITERAL:
        counts["per_dim_trip"] = f"~2^{trip.bit_length()}"
    return (*counts.values(), _ends_with_barrier(region, seed))


def generate_region_function(
    module: Module, region: RegionCharacteristics, seed: int = 0
) -> Function:
    """Emit the outlined function of ``region`` into ``module`` and return it.

    The function signature mirrors Clang's outlining convention: a thread-id
    pointer, a bound-thread-id pointer, then captured array arguments.
    """
    name = region_function_name(region)

    double_ptr = irt.ptr(irt.f64())
    function = module.add_function(
        Function(
            name,
            arg_types=[irt.ptr(irt.i32()), irt.ptr(irt.i32()), double_ptr, double_ptr, double_ptr, irt.i64()],
            arg_names=[".global_tid.", ".bound_tid.", "A", "B", "C", "n"],
            return_type=irt.void(),
            attributes={OMP_OUTLINED_ATTR},
        )
    )
    arg_a, arg_b, arg_c = function.arguments[2], function.arguments[3], function.arguments[4]

    # Loop bounds are compile-time constants in the benchmark sources
    # (PolyBench dataset sizes, proxy-app mesh dimensions), so the generated
    # IR compares the induction variable against a literal trip count.  The
    # per-dimension bound is the nest-depth'th root of the region's total
    # iteration count.
    counts = scaled_region_counts(region)
    per_dim_trip = counts["per_dim_trip"]

    builder = IRBuilder(function)
    entry = function.add_block("entry")
    builder.position_at(entry)

    # Work-sharing prologue emitted by the OpenMP lowering.
    tid = builder.load(function.arguments[0], hint="tid")
    builder.call("__kmpc_for_static_init_8", irt.void(), [tid])

    accumulator = builder.alloca(irt.f64(), hint="acc")
    builder.store(builder.const_float(0.0), accumulator)

    flop_insts = counts["flop_insts"]
    int_insts = counts["int_insts"]
    mem_insts = counts["mem_insts"]
    cond_blocks = counts["cond_blocks"]
    atomic_insts = counts["atomic_insts"]
    triangular = bool(counts["triangular"])

    def innermost_body(b: IRBuilder, induction) -> None:
        """The computational statements of the innermost loop."""
        value = b.load(b.gep(arg_a, [induction]), hint="a")
        other = b.load(b.gep(arg_b, [induction]), hint="b")
        # Floating-point arithmetic chain.
        current = value
        for i in range(max(flop_insts, 1)):
            opcode = ("fmul", "fadd", "fsub", "fdiv")[i % 4] if i % 7 != 6 else "fmul"
            current = b.binop(opcode, current, other if i % 2 == 0 else b.const_float(1.0 + i))
        # Integer/address arithmetic chain.
        idx = induction
        for i in range(int_insts):
            opcode = ("add", "mul", "and", "shl")[i % 4]
            idx = b.binop(opcode, idx, b.const_int(1 + (i % 5)))
        # Additional loads/stores reflecting the memory traffic.
        for i in range(mem_insts - 1):
            ptr = b.gep(arg_c if i % 2 == 0 else arg_b, [idx])
            if i % 3 == 2:
                b.store(current, ptr)
            else:
                extra = b.load(ptr, hint="m")
                current = b.fadd(current, extra)
        # Data-dependent control flow (branchy kernels).
        if region.calls_external_math:
            current = b.call("exp", irt.f64(), [current], hint="mathval")
        for c in range(cond_blocks):
            cond = b.fcmp("ogt", current, b.const_float(0.5 * (c + 1)))
            then_block = b.new_block("then")
            else_block = b.new_block("else")
            merge_block = b.new_block("merge")
            b.cond_branch(cond, then_block, else_block)
            b.position_at(then_block)
            then_val = b.fmul(current, b.const_float(1.5))
            b.branch(merge_block)
            b.position_at(else_block)
            else_val = b.fadd(current, b.const_float(0.25))
            b.branch(merge_block)
            b.position_at(merge_block)
            merged = b.phi(irt.f64())
            merged.add_incoming(then_val, then_block)
            merged.add_incoming(else_val, else_block)
            current = merged
        # Atomic tallies / reductions.
        if atomic_insts:
            b.atomic_rmw("fadd", b.gep(arg_c, [induction]), current)
        else:
            b.store(current, b.gep(arg_c, [induction]))
        b.store(current, accumulator)

    def nested(depth: int):
        """Build a body callback that wraps ``innermost_body`` in nested loops."""
        def body(b: IRBuilder, induction) -> None:
            if depth <= 1:
                innermost_body(b, induction)
                return
            trip_const = b.const_int(per_dim_trip)
            inner_trip = b.sub(trip_const, induction) if triangular else trip_const
            b.counted_loop(inner_trip, nested(depth - 1), hint=f"L{depth - 1}")
        return body

    builder.counted_loop(
        builder.const_int(per_dim_trip), nested(region.nest_depth), hint=f"L{region.nest_depth}"
    )

    builder.call("__kmpc_for_static_fini", irt.void(), [tid])
    if _ends_with_barrier(region, seed):
        builder.call("__kmpc_barrier", irt.void(), [tid])
    builder.ret()
    return function


def generate_application_module(
    application_name: str, regions: List[RegionCharacteristics], seed: int = 0
) -> Module:
    """Generate one IR module for an application.

    The module contains, for every region, the outlined region function plus
    a host-side wrapper that forks it through ``__kmpc_fork_call`` — the same
    shape Clang produces, so the outliner and graph builder exercise the real
    call-flow path.
    """
    module = Module(application_name)
    for region in regions:
        if region.application != application_name:
            raise ValueError(
                f"region {region.region_id!r} does not belong to application {application_name!r}"
            )
        outlined = generate_region_function(module, region, seed=seed)

        kernel = region.region_id.split("/", 1)[1].replace("-", "_").replace("~", "_")
        wrapper = module.add_function(
            Function(
                f"{application_name}.{kernel}",
                arg_types=[irt.ptr(irt.f64()), irt.ptr(irt.f64()), irt.ptr(irt.f64()), irt.i64()],
                arg_names=["A", "B", "C", "n"],
                return_type=irt.void(),
            )
        )
        builder = IRBuilder(wrapper)
        builder.position_at(wrapper.add_block("entry"))
        builder.call("__kmpc_fork_call", irt.void(), [wrapper.arguments[3]])
        builder.call(outlined.name, irt.void(), list(wrapper.arguments))
        builder.ret()

    verify_module(module)
    return module
