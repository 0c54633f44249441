"""What a trace run wraps, and how its spans become per-layer metrics.

:func:`install` puts a :class:`~benchmarks.perf.tracing.Recorder` around
the public entry points of every layer, at the names callers look them up
by.  :func:`layer_metrics` turns the merged spans of the benchmark process
and its fleet nodes into the ``PER_LAYER`` metrics.  Windows:

* request-path layers are measured over the traced pass only (the set-up
  also builds graphs and encodes regions — for the suite, the warm-up and
  the distillation population — which is not what a request pays);
* set-up layers (measurement sweep, sample building, fitting, distilling)
  and per-batch training numbers are measured over the whole traced run.

A layer a workload never calls reports 0.  Self time is a span's duration
minus the union of the intervals its children cover.  Work handed to an
executor thread or a node process starts a new root span; it is linked back
explicitly: a gateway request to the dispatch that carried its region
object, and a dispatch to the node spans that ran inside it on that node.
"""

from __future__ import annotations

import pickle
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from benchmarks.perf.loadgen import TAIL_PERCENTILE, Phase, percentile
from benchmarks.perf.tracing import Recorder, Span

#: (name, unit, better) of every per-layer metric; BENCHMARK.json mirrors it.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("loadgen.open.sent", "count", "higher"),
    ("loadgen.open.ok", "count", "higher"),
    ("loadgen.open.failed", "count", "lower"),
    (f"loadgen.open.late_ms_p{TAIL_PERCENTILE}", "ms", "lower"),
    ("loadgen.closed.sent", "count", "higher"),
    ("loadgen.closed.ok", "count", "higher"),
    ("loadgen.closed.failed", "count", "lower"),
    ("serve.gateway.queue_wait_ms_p50", "ms", "lower"),
    ("serve.gateway.self_ms_per_req", "ms", "lower"),
    ("serve.gateway.batch_size_mean", "count", "higher"),
    ("serve.gateway.hedge_rate", "ratio", "lower"),
    ("serve.gateway.hedge_win_ratio", "ratio", "higher"),
    ("serve.fleet.sweep_node_ms_p50", "ms", "lower"),
    (f"serve.fleet.sweep_node_ms_p{TAIL_PERCENTILE}", "ms", "lower"),
    ("serve.rpc.send_ms_per_msg", "ms", "lower"),
    ("serve.rpc.request_bytes_mean", "bytes", "lower"),
    ("serve.rpc.reply_bytes_mean", "bytes", "lower"),
    ("serve.rpc.unattributed_ms_per_dispatch", "ms", "lower"),
    ("serve.node.dispatch_ms_p50", "ms", "lower"),
    ("serve.node.embedding_hit_ratio", "ratio", "higher"),
    ("serve.predictor.micro_hit_ratio", "ratio", "higher"),
    ("distill.runtime.predict_us_per_region", "us", "lower"),
    ("distill.distill_s", "s", "lower"),
    ("core.tuner.sweep_many_ms_per_region", "ms", "lower"),
    ("core.tuner.self_ms_per_region", "ms", "lower"),
    ("core.tuner.fit_s", "s", "lower"),
    ("core.dataset.inference_sample_ms_per_region", "ms", "lower"),
    ("core.dataset.performance_samples_s", "s", "lower"),
    ("benchsuite.codegen.ms_per_region", "ms", "lower"),
    ("ir.outline.ms_per_region", "ms", "lower"),
    ("graphs.programl.ms_per_region", "ms", "lower"),
    ("graphs.encoder.ms_per_region", "ms", "lower"),
    ("core.measurements.sweep_s", "s", "lower"),
    ("core.measurements.measure_calls", "count", "lower"),
    ("openmp.execution.run_us_per_call", "us", "lower"),
    ("nn.data.collate_ms_per_batch", "ms", "lower"),
    ("nn.data.edge_plan_ms_per_batch", "ms", "lower"),
    ("nn.data.loader_next_ms_per_batch", "ms", "lower"),
    ("nn.inference.encode_ms_per_region", "ms", "lower"),
    ("nn.inference.head_us_per_row", "us", "lower"),
    ("nn.inference.arena_bytes", "bytes", "lower"),
    ("nn.layers.forward_ms_per_batch", "ms", "lower"),
    ("nn.tensor.backward_ms_per_batch", "ms", "lower"),
    ("nn.optim.step_ms_per_batch", "ms", "lower"),
    ("nn.functional.loss_ms_per_batch", "ms", "lower"),
    ("core.training.self_ms_per_batch", "ms", "lower"),
    ("core.training.samples_per_s", "1/s", "higher"),
    ("core.training.predict_labels_s", "s", "lower"),
    ("core.evaluation.evaluate_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.attributed_frac", "ratio", "higher"),
)

# Span names (the layer is the first two dotted components).
GATEWAY_PREDICT = "serve.gateway.predict"
SWEEP_NODE = "serve.fleet.sweep_node"
SEND = "serve.rpc.send_message"
NODE_DISPATCH = (
    "serve.predictor.TieredPredictor.predict_sweep_many",
    "serve.predictor.GNNPredictor.predict_sweep_many",
)
MICRO_SWEEP = "distill.runtime.predict_sweep"
DISTILL = "distill.student.distill"
TUNER_SWEEP_MANY = "core.tuner.predict_sweep_many"
TUNER_FIT = "core.tuner.fit"
INFERENCE_SAMPLE = "core.dataset.inference_sample"
PERFORMANCE_SAMPLES = "core.dataset.performance_samples"
CODEGEN = "benchsuite.codegen.generate_application_module"
OUTLINE = "ir.outline.extract_outlined_regions"
PROGRAML = "graphs.programl.build_flow_graph"
ENCODE_GRAPH = "graphs.encoder.encode"
SWEEP_REGION = "core.measurements.sweep_region"
EXECUTION_RUN = "openmp.execution.run"
COLLATE = "nn.data.collate_graphs"
EDGE_PLAN = "nn.data.build_edge_plan"
LOADER_NEXT = "nn.data.loader_next"
PROGRAM_ENCODE = "nn.inference.encode_pooled"
PROGRAM_HEAD = "nn.inference.predict_from_pooled"
TRAIN = "core.training.train_model"
PREDICT_LABELS = "core.training.predict_labels"
FORWARD = "nn.layers.forward"
LOSS = "nn.functional.loss"
BACKWARD = "nn.tensor.backward"
STEP = "nn.optim.step"
EVALUATE = "core.evaluation.evaluate_power_constrained"
CV_REP = "bench.cv_rep"


def layer_of(name: str) -> str:
    return ".".join(name.split(".")[:2])


def _count(index: int):
    return lambda args, kwargs, result: {"n": len(args[index])}


def _send_meta(args, kwargs, result) -> dict:
    """Which message a send carried; the size of sweep traffic, as pickled."""
    payload = args[1]
    if payload and payload[0] in ("ok", "error"):
        kind = "reply:sweep" if isinstance(payload[1], list) else "reply:other"
    else:
        kind = str(payload[0])
    meta = {"kind": kind}
    if kind in ("sweep", "reply:sweep"):
        meta["bytes"] = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return meta


def install(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer the ledger reads."""
    import repro.core.dataset as dataset
    import repro.core.evaluation as evaluation
    import repro.core.training as training
    import repro.core.tuner as tuner
    import repro.distill as distill
    import repro.distill.generate as generate
    import repro.nn.data as data
    import repro.nn.functional as functional
    import repro.serve.fleet as fleet
    import repro.serve.rpc as rpc
    from repro.core.measurements import MeasurementDatabase
    from repro.core.model import PnPModel
    from repro.distill.runtime import MicroRuntime
    from repro.graphs.encoder import GraphEncoder
    from repro.nn.inference import InferenceProgram
    from repro.nn.optim import SGD, Adam, AdamW
    from repro.nn.tensor import Tensor
    from repro.openmp.execution import ExecutionEngine
    from repro.serve.gateway import Gateway
    from repro.serve.predictor import GNNPredictor, TieredPredictor

    wrap = recorder.wrap
    wrap(Gateway, "predict", GATEWAY_PREDICT, lambda a, k, r: {"region": id(a[1])})
    wrap(
        fleet.FleetClient,
        "sweep_node",
        SWEEP_NODE,
        lambda a, k, r: {"node": a[1], "n": len(a[2]), "regions": [id(x) for x in a[2]]},
    )
    wrap(rpc, "send_message", SEND, _send_meta)
    wrap(TieredPredictor, "predict_sweep_many", NODE_DISPATCH[0], _count(1))
    wrap(GNNPredictor, "predict_sweep_many", NODE_DISPATCH[1], _count(1))
    wrap(MicroRuntime, "predict_sweep", MICRO_SWEEP)
    wrap(distill, "distill", DISTILL)
    wrap(tuner.PnPTuner, "predict_sweep_many", TUNER_SWEEP_MANY, _count(1))
    wrap(tuner.PnPTuner, "fit", TUNER_FIT)
    wrap(dataset.DatasetBuilder, "inference_sample", INFERENCE_SAMPLE)
    wrap(dataset.DatasetBuilder, "performance_samples", PERFORMANCE_SAMPLES)
    wrap(dataset, "generate_application_module", CODEGEN, _count(1))
    wrap(dataset, "extract_outlined_regions", OUTLINE, lambda a, k, r: {"n": len(r or ())})
    wrap(dataset, "build_flow_graph", PROGRAML)
    wrap(GraphEncoder, "encode", ENCODE_GRAPH)
    wrap(MeasurementDatabase, "sweep_region", SWEEP_REGION)
    recorder.tally(ExecutionEngine, "run", EXECUTION_RUN)
    for module in (tuner, training, generate):
        wrap(module, "collate_graphs", COLLATE, _count(0))
    wrap(data, "build_edge_plan", EDGE_PLAN)
    recorder.wrap_iterator(data.GraphDataLoader, "__iter__", LOADER_NEXT)
    wrap(InferenceProgram, "encode_pooled", PROGRAM_ENCODE, lambda a, k, r: {"n": a[1].num_graphs})
    wrap(
        InferenceProgram,
        "predict_from_pooled",
        PROGRAM_HEAD,
        lambda a, k, r: {"n": int(a[1].shape[0])},
    )
    for module in (tuner, training):
        wrap(
            module,
            "train_model",
            TRAIN,
            lambda a, k, r: {"samples": len(a[1]), "epochs": a[2].epochs},
        )
    wrap(training, "predict_labels", PREDICT_LABELS)
    wrap(PnPModel, "forward", FORWARD)
    wrap(functional, "soft_cross_entropy", LOSS)
    wrap(Tensor, "backward", BACKWARD)
    for optimizer in (AdamW, Adam, SGD):
        wrap(optimizer, "step", STEP)
    wrap(evaluation, "evaluate_power_constrained", EVALUATE)
    recorder.wrap_process_main(fleet, "node_subprocess_main")


# ------------------------------------------------------------ span maths
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return span.duration - union_length(covered)


class SpanIndex:
    """Parent → children lookup over spans of many processes."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self._children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                self._children[(span.pid, span.parent)].append(span)

    def children(self, span: Span) -> List[Span]:
        return self._children.get((span.pid, span.sid), [])

    def subtree(self, root: Span) -> List[Span]:
        found, stack = [], [root]
        while stack:
            span = stack.pop()
            found.append(span)
            stack.extend(self.children(span))
        return found

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children(span))

    def layer_self_ms(self, root: Span) -> Dict[str, float]:
        """Self time (ms) of every layer in ``root``'s subtree."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.subtree(root):
            totals[layer_of(span.name)] += self.self_time(span) * 1e3
        return totals


# ---------------------------------------------------------------- inputs
@dataclass
class LedgerInputs:
    """What the workload knows that the spans do not."""

    bench_pid: int
    traced_window: Tuple[float, float]
    traced_latencies_ms: List[float]
    untraced_p50_ms: float
    ops: int
    open_phase: Optional[Phase] = None
    closed_phase: Optional[Phase] = None
    node_pids: Dict[int, int] = field(default_factory=dict)
    counters_before: Dict[str, float] = field(default_factory=dict)
    counters_after: Dict[str, float] = field(default_factory=dict)
    execution_count: int = 0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _total(spans: Sequence[Span]) -> float:
    return float(sum(s.duration for s in spans))


def _per_unit(spans: Sequence[Span], scale: float) -> float:
    """Total duration per unit of work (``meta["n"]``, else one per call)."""
    units = sum((s.meta or {}).get("n", 1) for s in spans)
    return _ratio(_total(spans) * scale, units)


def layer_metrics(
    spans: Sequence[Span], tallies: Dict[str, List[float]], inputs: LedgerInputs
) -> Tuple[Dict[str, float], Dict[str, float], List[Tuple[Span, Span]]]:
    """Every ``PER_LAYER`` metric, the per-op attribution and the span links.

    The attribution maps each layer on the blocking path to its median self
    time per op (ms), and ``"residual"`` to the wire time no span covers;
    together they should account for the traced p50.  The links pair each
    request with its dispatch and each dispatch with its node span.
    """
    index = SpanIndex(spans)
    lo, hi = inputs.traced_window
    by_name: Dict[str, List[Span]] = defaultdict(list)
    traced: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if lo <= span.start <= hi:
            traced[span.name].append(span)

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    _loadgen(values, inputs)

    # Set-up layers: the whole traced run.
    values["core.measurements.sweep_s"] = _total(by_name[SWEEP_REGION])
    values["core.measurements.measure_calls"] = float(inputs.execution_count)
    runs, run_total = tallies.get(EXECUTION_RUN, (0, 0.0))
    values["openmp.execution.run_us_per_call"] = _ratio(run_total * 1e6, runs)
    values["core.dataset.performance_samples_s"] = _total(by_name[PERFORMANCE_SAMPLES])
    values["core.tuner.fit_s"] = _total(by_name[TUNER_FIT])
    values["distill.distill_s"] = _total(by_name[DISTILL])
    _training(values, index, by_name[TRAIN])

    # Request-path layers: the traced pass.
    values["core.dataset.inference_sample_ms_per_region"] = _per_unit(
        traced[INFERENCE_SAMPLE], 1e3
    )
    values["benchsuite.codegen.ms_per_region"] = _per_unit(traced[CODEGEN], 1e3)
    values["ir.outline.ms_per_region"] = _per_unit(traced[OUTLINE], 1e3)
    values["graphs.programl.ms_per_region"] = _per_unit(traced[PROGRAML], 1e3)
    values["graphs.encoder.ms_per_region"] = _per_unit(traced[ENCODE_GRAPH], 1e3)
    sweeps = traced[TUNER_SWEEP_MANY]
    values["core.tuner.sweep_many_ms_per_region"] = _per_unit(sweeps, 1e3)
    values["core.tuner.self_ms_per_region"] = _ratio(
        sum(index.self_time(s) for s in sweeps) * 1e3,
        sum(s.meta["n"] for s in sweeps),
    )
    values["nn.data.collate_ms_per_batch"] = _mean(
        [s.duration * 1e3 for s in traced[COLLATE]]
    )
    values["nn.data.edge_plan_ms_per_batch"] = _mean(
        [s.duration * 1e3 for s in traced[EDGE_PLAN]]
    )
    values["nn.inference.encode_ms_per_region"] = _per_unit(traced[PROGRAM_ENCODE], 1e3)
    values["nn.inference.head_us_per_row"] = _per_unit(traced[PROGRAM_HEAD], 1e6)
    values["nn.inference.arena_bytes"] = float(inputs.counters_after.get("arena_bytes", 0))
    values["distill.runtime.predict_us_per_region"] = _mean(
        [s.duration * 1e6 for s in traced[MICRO_SWEEP]]
    )
    values["core.training.predict_labels_s"] = _ratio(
        _total(traced[PREDICT_LABELS]), inputs.ops
    )
    values["core.evaluation.evaluate_s"] = _ratio(_total(traced[EVALUATE]), inputs.ops)

    traced_p50 = _median(inputs.traced_latencies_ms)
    values["bench.trace_overhead_frac"] = _ratio(
        traced_p50 - inputs.untraced_p50_ms, inputs.untraced_p50_ms
    )
    links: List[Tuple[Span, Span]] = []
    if traced[GATEWAY_PREDICT]:
        breakdown = _serve(values, index, traced, inputs, links)
    else:
        roots = traced[CV_REP] or [
            s for s in sweeps if s.pid == inputs.bench_pid and s.parent is None
        ]
        breakdown = _blocking_layers(index, roots)
    attributed = sum(v for k, v in breakdown.items() if k != "residual")
    values["bench.attributed_frac"] = _ratio(attributed, traced_p50)
    return values, breakdown, links


def _loadgen(values: Dict[str, float], inputs: LedgerInputs) -> None:
    for kind, phase in (("open", inputs.open_phase), ("closed", inputs.closed_phase)):
        if phase is None:
            continue
        values[f"loadgen.{kind}.sent"] = float(len(phase.outcomes))
        values[f"loadgen.{kind}.ok"] = float(len(phase.ok))
        values[f"loadgen.{kind}.failed"] = float(len(phase.failed))
    if inputs.open_phase is not None and inputs.open_phase.outcomes:
        values[f"loadgen.open.late_ms_p{TAIL_PERCENTILE}"] = percentile(
            [o.late * 1e3 for o in inputs.open_phase.outcomes], TAIL_PERCENTILE
        )


def _training(values: Dict[str, float], index: SpanIndex, runs: List[Span]) -> None:
    """Per-batch numbers over every ``train_model`` call of the run."""
    inside: Dict[str, List[Span]] = defaultdict(list)
    for run in runs:
        for span in index.subtree(run):
            inside[span.name].append(span)
    batches = len(inside[FORWARD])
    for metric, name in (
        ("nn.layers.forward_ms_per_batch", FORWARD),
        ("nn.tensor.backward_ms_per_batch", BACKWARD),
        ("nn.optim.step_ms_per_batch", STEP),
        ("nn.functional.loss_ms_per_batch", LOSS),
        ("nn.data.loader_next_ms_per_batch", LOADER_NEXT),
    ):
        values[metric] = _ratio(_total(inside[name]) * 1e3, batches)
    values["core.training.self_ms_per_batch"] = _ratio(
        sum(index.self_time(run) for run in runs) * 1e3, batches
    )
    values["core.training.samples_per_s"] = _ratio(
        sum(run.meta["samples"] * run.meta["epochs"] for run in runs), _total(runs)
    )


def _blocking_layers(index: SpanIndex, roots: Sequence[Span]) -> Dict[str, float]:
    """Median per-op self time (ms) of each layer under in-process op roots.

    The benchmark's own op span is left out: its self time is the glue no
    layer accounts for.
    """
    per_op = [index.layer_self_ms(root) for root in roots]
    layers = sorted({layer for op in per_op for layer in op} - {layer_of(CV_REP)})
    return {layer: _median([op.get(layer, 0.0) for op in per_op]) for layer in layers}


@dataclass
class _RoundTrip:
    """One gateway dispatch and the node work found inside it."""

    dispatch: Span
    send: Optional[Span]  # the client's request frame
    node: Optional[Span]  # the node's predictor call
    reply: Optional[Span]  # the node's reply frame

    def ms(self, span: Optional[Span]) -> float:
        return span.duration * 1e3 if span is not None else 0.0

    @property
    def residual_ms(self) -> float:
        """Wire, framing and socket-lock time no span covers."""
        return self.ms(self.dispatch) - sum(
            self.ms(s) for s in (self.send, self.node, self.reply)
        )


def _serve(
    values: Dict[str, float],
    index: SpanIndex,
    traced: Dict[str, List[Span]],
    inputs: LedgerInputs,
    links: List[Tuple[Span, Span]],
) -> Dict[str, float]:
    """Gateway → fleet → wire → node, linked per request and per dispatch."""
    node_pids = set(inputs.node_pids.values())
    dispatches = sorted(traced[SWEEP_NODE], key=lambda s: s.start)
    node_calls = [
        s
        for name in NODE_DISPATCH
        for s in traced[name]
        if s.pid in node_pids and s.parent is None
    ]
    node_replies = [
        s
        for s in traced[SEND]
        if s.pid in node_pids and s.meta["kind"] == "reply:sweep"
    ]

    def inside(candidates: List[Span], outer: Span, pid: int) -> Optional[Span]:
        for span in candidates:
            if span.pid == pid and outer.start <= span.start and span.end <= outer.end:
                return span
        return None

    # The open-loop phase's dispatches explain its latency; closed-loop ones
    # also queue for the member socket behind each other.
    phase = inputs.open_phase
    trips: Dict[int, _RoundTrip] = {}
    for dispatch in dispatches:
        if phase is None or not phase.started <= dispatch.start <= phase.finished:
            continue
        pid = inputs.node_pids.get(dispatch.meta["node"])
        trip = _RoundTrip(
            dispatch,
            send=next((s for s in index.children(dispatch) if s.name == SEND), None),
            node=inside(node_calls, dispatch, pid),
            reply=inside(node_replies, dispatch, pid),
        )
        if trip.node is not None:
            links.append((dispatch, trip.node))
        trips[dispatch.sid] = trip

    round_trips = [trip.ms(trip.dispatch) for trip in trips.values()]
    values["serve.fleet.sweep_node_ms_p50"] = _median(round_trips)
    values[f"serve.fleet.sweep_node_ms_p{TAIL_PERCENTILE}"] = (
        percentile(round_trips, TAIL_PERCENTILE) if round_trips else 0.0
    )
    requests_sent = [t.send for t in trips.values() if t.send is not None]
    replies_sent = [t.reply for t in trips.values() if t.reply is not None]
    values["serve.rpc.send_ms_per_msg"] = _mean(
        [s.duration * 1e3 for s in requests_sent + replies_sent]
    )
    values["serve.rpc.request_bytes_mean"] = _mean([s.meta["bytes"] for s in requests_sent])
    values["serve.rpc.reply_bytes_mean"] = _mean([s.meta["bytes"] for s in replies_sent])
    values["serve.rpc.unattributed_ms_per_dispatch"] = _mean(
        [trip.residual_ms for trip in trips.values()]
    )
    values["serve.node.dispatch_ms_p50"] = _median(
        [trip.ms(trip.node) for trip in trips.values() if trip.node is not None]
    )

    # Whole traced pass: batching, hedging and cache behaviour.
    values["serve.gateway.batch_size_mean"] = _mean([d.meta["n"] for d in dispatches])
    before, after = inputs.counters_before, inputs.counters_after

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    values["serve.gateway.hedge_rate"] = _ratio(delta("hedges"), len(dispatches))
    values["serve.gateway.hedge_win_ratio"] = _ratio(delta("hedge_wins"), delta("hedges"))
    values["serve.node.embedding_hit_ratio"] = _ratio(
        delta("hits"), delta("hits") + delta("misses")
    )
    values["serve.predictor.micro_hit_ratio"] = _ratio(
        delta("micro_hits"), delta("micro_hits") + delta("fallbacks")
    )

    # Per open-loop request: lateness, gateway self time, and the dispatch
    # whose answer it received (the first carrying its region to finish).
    carried_by: Dict[int, List[Span]] = defaultdict(list)
    for dispatch in dispatches:
        for region in dispatch.meta["regions"]:
            carried_by[region].append(dispatch)
    outcome_of = {id(o.item[0]): o for o in phase.outcomes} if phase else {}
    waits, rows = [], []
    for request in traced[GATEWAY_PREDICT]:
        outcome = outcome_of.get(request.meta["region"])
        carried = [
            d
            for d in carried_by.get(request.meta["region"], [])
            if request.start <= d.start <= request.end
        ]
        if outcome is None or not carried:
            continue
        links.append((request, carried[0]))
        waits.append((carried[0].start - request.start) * 1e3)
        trip = trips.get(min(carried, key=lambda d: d.end).sid)
        if trip is None:
            continue
        rows.append(
            {
                "loadgen": (outcome.latency - request.duration) * 1e3,
                "serve.gateway": (request.duration - trip.dispatch.duration) * 1e3,
                "serve.rpc": trip.ms(trip.send) + trip.ms(trip.reply),
                "serve.node": trip.ms(trip.node),
                "residual": trip.residual_ms,
            }
        )
    values["serve.gateway.queue_wait_ms_p50"] = _median(waits)
    values["serve.gateway.self_ms_per_req"] = _mean([r["serve.gateway"] for r in rows])
    layers = ("loadgen", "serve.gateway", "serve.rpc", "serve.node", "residual")
    return {layer: _median([r[layer] for r in rows]) for layer in layers}
