"""Tests for the flow-graph data structure and the PROGRAML-style builder."""

import numpy as np
import pytest

from repro.benchsuite import full_suite, generate_application_module
from repro.graphs.flowgraph import EdgeRelation, FlowGraph, NodeKind
from repro.graphs.programl import build_flow_graph, build_region_graphs, constant_token
from repro.ir import types as irt
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.outline import extract_outlined_regions
from repro.ir.values import Constant


class TestFlowGraph:
    def test_add_nodes_and_edges(self):
        g = FlowGraph("g")
        a = g.add_node(NodeKind.INSTRUCTION, "load double")
        b = g.add_node(NodeKind.VARIABLE, "double")
        g.add_edge(a, b, EdgeRelation.DATA, position=1)
        assert g.num_nodes == 2 and g.num_edges == 1
        assert g.node(a).kind == NodeKind.INSTRUCTION
        assert g.edges[0].position == 1

    def test_edge_bounds_checked(self):
        g = FlowGraph()
        g.add_node(NodeKind.INSTRUCTION, "x")
        with pytest.raises(IndexError):
            g.add_edge(0, 5, EdgeRelation.CONTROL)

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            FlowGraph().add_node(NodeKind.INSTRUCTION, "")

    def test_edge_arrays_and_kinds(self):
        g = FlowGraph()
        a = g.add_node(NodeKind.INSTRUCTION, "a")
        b = g.add_node(NodeKind.CONSTANT, "i64 ~2^3")
        g.add_edge(b, a, EdgeRelation.DATA)
        edge_index, edge_type = g.edge_arrays()
        np.testing.assert_array_equal(edge_index, [[1], [0]])
        np.testing.assert_array_equal(edge_type, [int(EdgeRelation.DATA)])
        np.testing.assert_array_equal(g.node_kinds(), [0, 2])

    def test_in_and_out_edges_keep_parallel_edges(self):
        # A multigraph: two operand slots can carry the same value.
        g = FlowGraph()
        add = g.add_node(NodeKind.INSTRUCTION, "fadd double")
        x = g.add_node(NodeKind.VARIABLE, "double")
        store = g.add_node(NodeKind.INSTRUCTION, "store double")
        g.add_edge(x, add, EdgeRelation.DATA, position=0)
        g.add_edge(x, add, EdgeRelation.DATA, position=1)
        g.add_edge(add, store, EdgeRelation.CONTROL)
        assert [e.position for e in g.in_edges(add)] == [0, 1]
        assert [(e.target, e.position) for e in g.out_edges(x)] == [(add, 0), (add, 1)]
        assert [e.target for e in g.out_edges(add)] == [store]
        assert g.in_edges(x) == [] and g.out_edges(store) == []
        assert [n.token for n in g.nodes_of_kind(NodeKind.INSTRUCTION)] == [
            "fadd double",
            "store double",
        ]

    def test_edgeless_graph_exports_empty_arrays(self):
        g = FlowGraph()
        g.add_node(NodeKind.INSTRUCTION, "ret void")
        edge_index, edge_type = g.edge_arrays()
        assert edge_index.shape == (2, 0) and edge_index.dtype == np.int64
        assert edge_type.shape == (0,) and edge_type.dtype == np.int64

    def test_summary_counts(self):
        g = FlowGraph()
        a = g.add_node(NodeKind.INSTRUCTION, "a")
        b = g.add_node(NodeKind.VARIABLE, "double")
        g.add_edge(a, b, EdgeRelation.DATA)
        s = g.summary()
        assert s["nodes_instruction"] == 1
        assert s["edges_data"] == 1
        assert s["edges_control"] == 0


class TestConstantToken:
    def test_integer_buckets(self):
        assert constant_token(Constant(irt.i64(), 0)) == "i64 ~2^0"
        assert constant_token(Constant(irt.i64(), 1)) == "i64 ~2^1"
        assert constant_token(Constant(irt.i64(), 1024)) == "i64 ~2^11"
        assert constant_token(Constant(irt.i64(), 1_000_000)) == "i64 ~2^20"

    def test_float_constants_use_type_only(self):
        assert constant_token(Constant(irt.f64(), 3.14)) == "double"


def _small_module():
    module = Module("demo")
    fn = Function(
        "demo.k.omp_outlined",
        arg_types=[irt.ptr(irt.f64()), irt.i64()],
        arg_names=["A", "n"],
        attributes={"omp_outlined"},
    )
    module.add_function(fn)
    builder = IRBuilder(fn)
    builder.position_at(fn.add_block("entry"))

    def body(b, iv):
        addr = b.gep(fn.arguments[0], [iv])
        val = b.load(addr)
        b.store(b.fmul(val, b.const_float(2.0)), addr)
        b.call("exp", irt.f64(), [val])

    builder.counted_loop(builder.const_int(128), body)
    builder.ret()
    return module


class TestProgramlLowering:
    def test_graph_structure(self):
        graph = build_flow_graph(_small_module())
        summary = graph.summary()
        # Instruction, variable and constant nodes all exist.
        assert summary["nodes_instruction"] > 5
        assert summary["nodes_variable"] > 3
        assert summary["nodes_constant"] >= 2
        # All three relations are present (control, data, call).
        assert summary["edges_control"] > 0
        assert summary["edges_data"] > 0
        assert summary["edges_call"] > 0

    def test_control_flow_follows_block_order_and_branches(self):
        graph = build_flow_graph(_small_module())
        control = graph.edges_of_relation(EdgeRelation.CONTROL)
        # The loop creates a back edge, so some control edge targets an
        # earlier node index.
        assert any(e.target < e.source for e in control)

    def test_data_flow_connects_producers_to_consumers(self):
        graph = build_flow_graph(_small_module())
        data = graph.edges_of_relation(EdgeRelation.DATA)
        variable_nodes = {n.index for n in graph.nodes_of_kind(NodeKind.VARIABLE)}
        # Every variable node participates in at least one data edge.
        touched = {e.source for e in data} | {e.target for e in data}
        assert variable_nodes <= touched

    def test_external_call_gets_call_edges(self):
        graph = build_flow_graph(_small_module())
        call_edges = graph.edges_of_relation(EdgeRelation.CALL)
        tokens = graph.node_tokens()
        assert any(t.startswith("call external exp") for t in tokens)
        assert len(call_edges) >= 3  # root edge + to/from the external node

    def test_deterministic_construction(self):
        a = build_flow_graph(_small_module())
        b = build_flow_graph(_small_module())
        assert a.node_tokens() == b.node_tokens()
        np.testing.assert_array_equal(a.edge_arrays()[0], b.edge_arrays()[0])

    def test_build_region_graphs_over_real_application(self):
        app = next(a for a in full_suite() if a.name == "miniFE")
        module = generate_application_module(app.name, list(app.regions), seed=0)
        graphs = build_region_graphs(extract_outlined_regions(module))
        assert len(graphs) == len(app.regions)
        for graph in graphs.values():
            assert graph.num_nodes > 20
            assert graph.num_edges > graph.num_nodes  # flow graphs are dense-ish
