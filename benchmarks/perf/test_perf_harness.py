"""Checks of the benchmark harness itself: statistics, tracing, BENCHMARK.json, runs."""

import asyncio
import dataclasses
import json
import math
import os
import re
import threading

import pytest

from benchmarks.perf import compare, ledger, loadgen, tracing, workloads
from repro.experiments.profiles import smoke_profile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """Time that moves only when a sleep or a simulated service says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        target = self.now + seconds
        await asyncio.sleep(0)  # let due requests start first
        self.now = max(self.now, target)


# ------------------------------------------------------------- statistics
class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert loadgen.percentile(values, 50) == 50
        assert loadgen.percentile(values, 90) == 90
        assert loadgen.percentile(values, 100) == 100
        assert loadgen.percentile([7.0], 90) == 7.0
        assert loadgen.percentile([3, 1, 2], 50) == 2

    def test_tail_needs_ten_samples_beyond(self):
        assert loadgen.samples_beyond(100, 90) == 10
        assert loadgen.tail_supported(100, 90)
        assert not loadgen.tail_supported(99, 90)
        assert loadgen.tail_supported(200, 95)
        assert not loadgen.tail_supported(199, 95)

    def test_windowed_median_ignores_a_burst_in_a_minority_of_windows(self):
        def p80(values):
            return loadgen.percentile(values, 80)

        steady = [10.0, 11.0, 12.0, 13.0, 14.0] * 8  # 8 windows of 5
        burst = steady[:5] + [50.0] * 10 + steady[15:]  # windows 1 and 2 slow
        assert loadgen.windowed(steady, 5, p80) == 13.0
        assert loadgen.windowed(burst, 5, p80) == 13.0
        assert loadgen.percentile(burst, 80) == 50.0
        every = [v + 5.0 for v in steady]  # slower in every window: it shows
        assert loadgen.windowed(every, 5, p80) == 18.0
        assert loadgen.windowed(steady[:7], 5, p80) == 13.0  # partial window dropped
        assert loadgen.windowed(steady[:3], 5, p80) == 12.0  # unless it is the only one

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            loadgen.percentile([], 50)
        with pytest.raises(ValueError):
            loadgen.percentile([1.0], 0)


class TestLoadGeneration:
    def test_open_loop_times_from_the_schedule(self):
        """A stall is charged to every request it delayed, not hidden."""
        clock = FakeClock()

        async def send(item):
            if item == 1:
                clock.now += 0.35  # blocks the event loop: the generator falls behind
            return item

        phase = asyncio.run(loadgen.open_loop(send, range(5), 10.0, clock, clock.sleep))
        assert [o.due for o in phase.outcomes] == pytest.approx([0, 0.1, 0.2, 0.3, 0.4])
        assert [o.latency for o in phase.outcomes] == pytest.approx(
            [0, 0.35, 0.25, 0.15, 0.05]
        )
        assert [o.late for o in phase.outcomes] == pytest.approx([0, 0, 0.25, 0.15, 0.05])
        assert [o.answer for o in phase.outcomes] == list(range(5))

    def test_open_loop_counts_failures(self):
        clock = FakeClock()

        async def send(item):
            if item == 2:
                raise RuntimeError("shed")
            return item

        phase = asyncio.run(loadgen.open_loop(send, range(4), 10.0, clock, clock.sleep))
        assert len(phase.ok) == 3 and len(phase.failed) == 1
        assert str(phase.failed[0].error) == "shed"

    def test_closed_loop_runs_until_time_is_up(self):
        clock = FakeClock()
        items = iter(range(100))

        async def send(item):
            clock.now += 0.1
            return item

        phase = asyncio.run(
            loadgen.closed_loop(send, items.__next__, 1, 0.35, clock=clock)
        )
        assert [o.answer for o in phase.outcomes] == [0, 1, 2, 3]
        assert [o.latency for o in phase.outcomes] == pytest.approx([0.1] * 4)
        # The fourth answer arrived after the caller stopped: not counted.
        assert phase.throughput() == pytest.approx(3 / 0.35)

    def test_closed_loop_honours_min_requests(self):
        clock = FakeClock()
        items = iter(range(100))

        async def send(item):
            clock.now += 1.0
            return item

        phase = asyncio.run(
            loadgen.closed_loop(send, items.__next__, 1, 0.5, min_requests=3, clock=clock)
        )
        assert len(phase.outcomes) == 3


# --------------------------------------------------------------- tracing
def _span(sid, start, end, parent=None, name="x.y", pid=1, tid=1):
    return tracing.Span(pid, sid, parent, name, start, end, tid)


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert ledger.union_length([(0, 1), (2, 4), (3, 5), (6, 6)]) == 4
        assert ledger.union_length([]) == 0

    def test_nested(self):
        root = _span(1, 0, 10)
        kids = [_span(2, 1, 3, parent=1), _span(3, 4, 6, parent=1)]
        grandchild = _span(4, 4.5, 5.5, parent=3)
        index = ledger.SpanIndex([root, *kids, grandchild])
        assert index.self_time(root) == pytest.approx(6)
        assert index.self_time(kids[1]) == pytest.approx(1)

    def test_threaded_children_overlap(self):
        """Children running at once in two threads cover their union only."""
        root = _span(1, 0, 10)
        kids = [_span(2, 1, 5, parent=1, tid=2), _span(3, 2, 7, parent=1, tid=3)]
        assert ledger.self_time(root, kids) == pytest.approx(4)

    def test_async_child_outliving_its_parent_is_clipped(self):
        root = _span(1, 0, 10)
        assert ledger.self_time(root, [_span(2, 8, 12, parent=1)]) == pytest.approx(8)

    def test_layer_self_times_sum_to_the_root(self):
        spans = [
            _span(1, 0, 10, name="core.tuner.predict_sweep_many"),
            _span(2, 1, 4, parent=1, name="core.dataset.inference_sample"),
            _span(3, 2, 3, parent=2, name="graphs.programl.build_flow_graph"),
            _span(4, 5, 9, parent=1, name="nn.inference.encode_pooled"),
        ]
        index = ledger.SpanIndex(spans)
        layers = index.layer_self_ms(spans[0])
        assert layers == pytest.approx(
            {"core.tuner": 3e3, "core.dataset": 2e3, "graphs.programl": 1e3,
             "nn.inference": 4e3}
        )
        assert sum(layers.values()) == pytest.approx(10e3)


class _Layer:
    def work(self, child=None):
        if child is not None:
            child()

    async def awork(self, delay):
        await asyncio.sleep(delay)


class TestRecorder:
    def test_nesting_threads_tasks_and_restore(self, tmp_path):
        original = _Layer.work
        recorder = tracing.Recorder(str(tmp_path))
        recorder.wrap(_Layer, "work", "test.layer.work")
        recorder.wrap(_Layer, "awork", "test.layer.awork")
        layer = _Layer()
        layer.work()
        assert recorder.spans == []  # recording is off until enabled
        recorder.enable()
        layer.work(child=layer.work)
        thread = threading.Thread(target=layer.work)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

        async def parent():
            with recorder.span("test.bench.op"):
                await asyncio.gather(layer.awork(0.01), layer.awork(0.02))

        asyncio.run(parent())
        recorder.enable(False)
        recorder.restore()
        assert _Layer.work is original

        path = recorder.dump("bench")
        spans, processes = tracing.load_dumps(str(tmp_path))
        assert os.path.basename(path) in os.listdir(tmp_path)
        assert processes[os.getpid()]["role"] == "bench"
        inner, outer, threaded, *tasks, op = spans
        assert inner.parent == outer.sid and outer.parent is None
        assert threaded.parent is None and threaded.tid != outer.tid
        assert {t.parent for t in tasks} == {op.sid}
        index = ledger.SpanIndex(spans)
        assert index.self_time(op) == pytest.approx(
            op.duration - max(t.end for t in tasks) + min(t.start for t in tasks)
        )

        trace = tracing.chrome_trace(spans, processes, ledger.layer_of, [(outer, inner)])
        phases = [event["ph"] for event in trace["traceEvents"]]
        assert phases.count("X") == len(spans) and "s" in phases and "f" in phases


# --------------------------------------------------------- BENCHMARK.json
def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_harness():
    spec = _benchmark()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(workloads.END_TO_END)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(ledger.PER_LAYER)
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = names + [m[0] for m in declared + layers]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(unit) for _, unit, _ in declared + layers)
    assert len(json.dumps(spec)) <= 64 * 1024


# ------------------------------------------------------------------ runs
SECONDS = 0.6  # the serving workloads' open loop sends 4 requests


def _assert_result(report, names):
    result = report.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    json.dumps(result)


def test_tune_novel_tiny_runs_score_quality_alike_on_every_seed():
    reports = [
        workloads.run("tune_novel", seed, SECONDS, profile=smoke_profile())
        for seed in (0, 1)
    ]
    for report in reports:
        _assert_result(report, [name for name, _, _ in workloads.END_TO_END])
        assert all(value > 0 for value, _, _ in report.metrics.values())
    quality = [report.metrics["geomean_speedup"][0] for report in reports]
    assert quality[0] == quality[1]


def test_serve_warm_tiny_traced_run(tmp_path):
    report = workloads.run(
        "serve_warm", 0, SECONDS, trace_dir=str(tmp_path), profile=smoke_profile()
    )
    _assert_result(report, [name for name, _, _ in ledger.PER_LAYER])
    values = {name: value for name, (value, _, _) in report.metrics.items()}
    opened = round(workloads.OPEN_RATE_HZ * (workloads.OPEN_SHARE * SECONDS))
    assert values["loadgen.open.sent"] == opened
    assert values["serve.node.embedding_hit_ratio"] == 1.0  # warmed in set-up
    assert values["serve.fleet.sweep_node_ms_p50"] > 0
    assert values["core.measurements.measure_calls"] > 0
    assert set(report.attribution) >= {"serve.gateway", "serve.node", "residual"}
    with open(tmp_path / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    processes = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert len(processes) == 1 + workloads.FLEET_NODES  # nodes merged by pid
    assert os.listdir(tmp_path) == ["trace.json"]


def test_tampered_reference_fails_the_run(monkeypatch):
    honest = workloads.reference_answer
    calls = []

    def tampered(predictor, region, cap):
        answer = honest(predictor, region, cap)
        calls.append(region.region_id)
        if len(calls) == 2:
            return dataclasses.replace(answer, label=answer.label + 1)
        return answer

    monkeypatch.setattr(workloads, "reference_answer", tampered)
    report = workloads.run("serve_novel", 0, SECONDS, profile=smoke_profile())
    assert not report.correct and not report.result()["correct"]
    assert f"region {calls[1]}" in report.error and "request 1" in report.error


# --------------------------------------------------------------- compare
class TestCompareVerdicts:
    def test_identical_runs_are_unchanged(self):
        assert compare.verdict([10, 10.1, 9.9], [10, 10.05, 9.95], "lower", 0.1)[0] == (
            "unchanged"
        )

    def test_clear_gain_and_clear_regression(self):
        parent = [10.0, 10.1, 9.9, 10.0] * 3
        faster = [8.0, 8.1, 7.9, 8.0] * 3
        slower = [12.0, 12.1, 11.9, 12.0] * 3
        assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
        assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
        assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"

    def test_a_gain_needs_ten_runs_a_side(self):
        parent = [10.0, 10.1, 9.9, 10.0]
        assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.0], "lower", 0.1)[0] == (
            "unchanged"
        )

    def test_noisy_runs_are_unresolved(self):
        parent = [10.0, 14.0, 8.0, 12.0]
        assert compare.verdict(parent, [11, 15, 9, 13], "lower", 0.1)[0] == "unresolved"

    def test_reads_run_outputs(self, tmp_path):
        line = json.dumps({"correct": True, "attempted": 5, "failed": 1,
                           "metrics": {"setup_s": {"value": 2.0, "unit": "s"}}})
        (tmp_path / "a.txt").write_text(
            f"# perf workload=tune_novel seed=0 seconds=1 trace=0\nsetup_s = 2 s\n{line}\n"
        )
        (tmp_path / "b.txt").write_text(
            f"# perf workload=tune_novel seed=0 seconds=1 trace=1\n{line}\n"
        )
        runs = compare.load_runs([str(tmp_path)])
        assert list(runs) == ["tune_novel"]
        assert runs["tune_novel"].metrics == {"setup_s": [2.0]}
        assert (runs["tune_novel"].failed, runs["tune_novel"].attempted) == (1, 5)


def _write_runs(folder, workload, setups, failed=0, tail=None):
    folder.mkdir()
    for run, setup in enumerate(setups):
        metrics = {"setup_s": {"value": setup, "unit": "s"}}
        if tail is not None:
            metrics[workloads.TAIL] = {"value": tail[run], "unit": "ms"}
        result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
        (folder / f"{run}.txt").write_text(
            f"# perf workload={workload} seed={run} seconds=1 trace=0\n"
            f"{json.dumps(result)}\n"
        )
    return str(folder)


def _spec(workload, *metrics):
    return {
        "workloads": [{"name": workload, "why": "test"}],
        "end_to_end": [
            {"name": name, "unit": "s", "better": "lower", "bound": 0.1}
            for name in metrics
        ],
    }


class TestCompareFailures:
    def test_more_failed_requests_is_a_regression_and_voids_a_gain(self, tmp_path):
        parent = _write_runs(tmp_path / "parent", "tune_novel", [10.0] * 10)
        faster = [8.0, 8.1, 7.9, 8.0, 8.05] * 2
        change = _write_runs(tmp_path / "change", "tune_novel", faster, failed=1)
        rows, ok = compare.compare([parent], [change], _spec("tune_novel", "setup_s"))
        assert not ok
        assert "failed" in rows[1] and rows[1].rstrip().endswith("regressed")
        assert "void" in rows[2] and "improved" not in rows[2]

    def test_same_failures_and_values_pass(self, tmp_path):
        parent = _write_runs(tmp_path / "parent", "tune_novel", [10.0, 10.1, 9.9])
        change = _write_runs(tmp_path / "change", "tune_novel", [10.0, 10.05, 9.95])
        rows, ok = compare.compare([parent], [change], _spec("tune_novel", "setup_s"))
        assert ok and rows[1].rstrip().endswith("unchanged")

    def test_derived_metrics_get_no_verdict(self, tmp_path):
        setups = [10.0, 10.1, 9.9]
        parent = _write_runs(tmp_path / "parent", "tune_suite_cv", setups, tail=[1, 1, 1])
        change = _write_runs(tmp_path / "change", "tune_suite_cv", setups, tail=[9, 9, 9])
        rows, ok = compare.compare(
            [parent], [change], _spec("tune_suite_cv", "setup_s", workloads.TAIL)
        )
        assert ok and "derived, no verdict" in rows[3]
