"""The benchmark's four workloads and the run that measures one of them.

Fixed settings: system ``haswell`` at float64 with its four power caps;
serving tuners fitted for two epochs; a fleet of ``LocalFleet(num_nodes=2)``
behind a default ``Gateway``, loaded from this one process and one asyncio
thread.  ``seed`` seeds every generated input (region streams,
perturbations, cap choices); the program under test only ever sees the
generated inputs.  The tuners' own training seed is fixed (``PROFILE_SEED``)
and answer quality is scored on a fixed set of inputs, so
``geomean_speedup`` depends on the code alone and a drop of half a percent
shows on every seed.

Each workload sets up, runs timed passes of ``seconds`` each, then checks
every answer against an in-process reference — outside the timed sections —
and raises :exc:`CorrectnessError` naming the first request that differs.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import pickle
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.core.evaluation as evaluation
import repro.distill as distillation
from repro.core import PnPTuner, TrainingConfig
from repro.core.dataset import DatasetBuilder, TuningScenario
from repro.core.model import PnPModel
from repro.core.training import run_cross_validation
from repro.core.tuner import labels_to_performance_selections
from repro.distill import perturb_out_of_family, perturb_region
from repro.experiments.common import experiment_builder, pnp_cross_validated_selections
from repro.experiments.profiles import ExperimentProfile, fast_profile
from repro.serve import Gateway, LocalFleet, tiered_predictor
from repro.utils.rng import new_rng
from repro.utils.stats import geometric_mean

from benchmarks.perf import ledger
from benchmarks.perf.loadgen import (
    TAIL_PERCENTILE,
    Phase,
    closed_loop,
    open_loop,
    percentile,
    windowed,
)
from benchmarks.perf.tracing import Recorder, chrome_trace, load_dumps

SYSTEM = "haswell"
SERVE_EPOCHS = 2
FLEET_NODES = 2
#: Seed of the experiment profile: the measurement database, the training
#: runs and the cross-validation folds.  Fixed, so that answer quality is
#: the same on every ``--seed``.
PROFILE_SEED = 0
#: Regions per ``predict_sweep_many`` call in ``tune_novel``.
NOVEL_BATCH = 16
#: ``tune_novel`` checks every this-many-th call against the twin tuner.
CHECK_EVERY = 8
#: ``tune_novel`` makes this many calls per second of ``seconds``: a fixed
#: amount of work rather than a fixed duration, because the tuner keeps
#: every region it has seen, so its memory grows with the calls made.
NOVEL_CALLS_PER_SECOND = 20
#: ``tune_novel`` computes its statistics per window of this many calls and
#: reports their median over the windows (one per second of ``seconds``):
#: the host's slow spells, which come and go within seconds, then move the
#: result only when they cover most of the run.
WINDOW_CALLS = 20
#: Open-loop arrival rate.  Well below the gateway's capacity: at 10 Hz a
#: request rarely finds another in flight, so its latency is the path's own.
OPEN_RATE_HZ = 10.0
#: Share of ``seconds`` spent in the open-loop phase; the rest is closed loop.
OPEN_SHARE = 0.6
CLOSED_OUTSTANDING = 8
#: ``serve_novel``: share of requests perturbed within their family (the
#: micro tier's trust region); the rest are blown out of family.
IN_FAMILY_SHARE = 0.75
#: Requests sent through the gateway before timing starts, so it has the
#: latency history its hedging and deadline decisions read.
WARMUP_REQUESTS = 8
#: Perturbation indices of warm-up regions, far from the measured stream's.
WARMUP_INDEX = 10_000_000
#: The fixed regions answer quality is scored on: their number, the seed
#: they are generated from, and their perturbation indices.
QUALITY_REGIONS = 64
QUALITY_SEED = 0
QUALITY_INDEX = 20_000_000

TAIL = f"latency_p{TAIL_PERCENTILE}_ms"
#: (name, unit, better) of every end-to-end metric; BENCHMARK.json mirrors it.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    (TAIL, "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("geomean_speedup", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class CorrectnessError(RuntimeError):
    """An answer differs from its in-process reference."""


def fit_tuner(profile: ExperimentProfile) -> PnPTuner:
    """A serving tuner fitted on the profile's applications."""
    builder = experiment_builder(SYSTEM, profile)
    tuner = PnPTuner(
        SYSTEM,
        training_config=TrainingConfig(
            epochs=SERVE_EPOCHS, optimizer="adamw", seed=profile.seed
        ),
        database=builder.database,
        seed=profile.seed,
    )
    tuner.builder = builder
    return tuner.fit()


def reference_answer(predictor, region, cap: float):
    """The in-process answer a served request must match byte for byte."""
    return predictor.predict_sweep(region, [cap])[0]


def speedup_geomean(database, answers: Sequence[Tuple[Any, Any]]) -> float:
    """Geomean speedup over the OpenMP default of ``(region, result)`` answers."""
    speedups = []
    for region, result in answers:
        database.add_region(region)
        default = database.default_result(region.region_id, result.power_cap)
        chosen = database.measure(region.region_id, result.config, result.power_cap)
        speedups.append(default.time_s / chosen.time_s)
    return geometric_mean(speedups)


def sweep_quality(database, predictor, regions: Sequence, caps: Sequence[float]) -> float:
    """Geomean speedup of ``predictor``'s answers for ``regions`` at every cap."""
    answers = predictor.predict_sweep_many(regions, caps)
    return speedup_geomean(
        database,
        [(region, result) for region, row in zip(regions, answers) for result in row],
    )


def _check(label: str, served, expected) -> None:
    if pickle.dumps(served) != pickle.dumps(expected):
        raise CorrectnessError(f"{label}: served {served!r}, expected {expected!r}")


def _blocking(call: Callable[[Any], Any]):
    """An awaitable ``send`` for the load generator around a blocking call."""

    async def send(item):
        return call(item)

    return send


class Workload:
    """Set-up, timed passes and checks of one workload."""

    name = ""
    #: End-to-end metrics this workload computes from another one's samples
    #: rather than measuring on their own; ``compare`` gives them no verdict.
    derived: Tuple[str, ...] = ()

    def __init__(
        self, seed: int, profile: ExperimentProfile, recorder: Optional[Recorder]
    ) -> None:
        self.seed = seed
        self.profile = profile
        self.recorder = recorder

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, seconds: float) -> Dict[str, Phase]:
        raise NotImplementedError

    def throughput(self, phases: Dict[str, Phase]) -> float:
        raise NotImplementedError

    def latencies(self, phases: Dict[str, Phase]) -> Tuple[float, float, int]:
        """Median and tail latency (ms) of the latency phase, and its sample count."""
        values = self.latency_phase(phases).latencies_ms()
        return percentile(values, 50), percentile(values, TAIL_PERCENTILE), len(values)

    def verify(self, passes: Sequence[Dict[str, Phase]]) -> None:
        raise NotImplementedError

    def quality(self, phases: Dict[str, Phase]) -> float:
        """Geomean speedup over the OpenMP default on the fixed quality inputs."""
        raise NotImplementedError

    def execution_count(self) -> int:
        return self.tuner.database.execution_count

    def counters(self) -> Dict[str, float]:
        """Public stats read before and after the traced pass."""
        return {"arena_bytes": self.tuner.inference_cache_stats()["arena_bytes"]}

    def node_pids(self) -> Dict[int, int]:
        return {}

    def close(self) -> None:
        pass

    def latency_phase(self, phases: Dict[str, Phase]) -> Phase:
        return phases.get("open") or phases["closed"]


class _FirstFold:
    """A splitter yielding only the first fold of another."""

    def __init__(self, splitter) -> None:
        self._splitter = splitter

    def split(self, samples):
        return itertools.islice(self._splitter.split(samples), 1)


class TuneSuiteCV(Workload):
    """The paper's experiment: cross-validated PnP selections on the suite.

    The input is the 68-region suite whatever the seed.  One repetition per
    pass: a fixed amount of work, about ten seconds on a 2-core machine.
    """

    name = "tune_suite_cv"
    # One timed repetition per pass: the tail restates the median, and
    # throughput is the suite's selections divided by it.
    derived = (TAIL, "throughput_rps")

    def setup(self) -> None:
        self.builder = experiment_builder(SYSTEM, self.profile)
        self.samples = self.builder.performance_samples(include_counters=False)
        self._reps = itertools.count()

    def _repetition(self, _index: int):
        span = (
            self.recorder.span(ledger.CV_REP)
            if self.recorder is not None
            else contextlib.nullcontext()
        )
        with span:
            selections = pnp_cross_validated_selections(
                self.builder,
                self.samples,
                self.profile,
                TuningScenario.PERFORMANCE,
                include_counters=False,
                optimizer="adamw",
            )
            records = evaluation.evaluate_power_constrained(
                self.builder.database, selections
            )
        return selections, geometric_mean([r.speedup for r in records])

    def run_pass(self, seconds: float) -> Dict[str, Phase]:
        send = _blocking(self._repetition)
        return {"closed": asyncio.run(closed_loop(send, self._reps.__next__, 1, 0.0))}

    def throughput(self, phases: Dict[str, Phase]) -> float:
        """(region, cap) selections per second of cross-validation."""
        ok = phases["closed"].ok
        return sum(len(o.answer[0]) for o in ok) / sum(o.latency for o in ok)

    def verify(self, passes: Sequence[Dict[str, Phase]]) -> None:
        """Repetitions agree, and so does a fresh run of the first fold."""
        outcomes = [o for phases in passes for o in phases["closed"].ok]
        first = outcomes[0].answer[0]
        for outcome in outcomes[1:]:
            _check(
                f"{self.name} repetition {outcome.item}",
                sorted(outcome.answer[0].items()),
                sorted(first.items()),
            )
        space = self.builder.search_space
        model_config = self.profile.model_config(
            len(self.builder.vocabulary),
            space.num_omp_configurations,
            self.builder.aux_feature_dim(TuningScenario.PERFORMANCE, False),
        )
        rerun = labels_to_performance_selections(
            run_cross_validation(
                self.samples,
                model_factory=lambda: PnPModel(model_config),
                training_config=self.profile.training_config(optimizer="adamw"),
                splitter=_FirstFold(self.profile.splitter()),
            ),
            space,
        )
        _check(
            f"{self.name} re-run of the first fold",
            sorted(rerun.items()),
            sorted((key, first[key]) for key in rerun),
        )

    def quality(self, phases: Dict[str, Phase]) -> float:
        """Geomean speedup of the cross-validated selections (the paper's metric)."""
        return phases["closed"].ok[0].answer[1]

    def execution_count(self) -> int:
        return self.builder.database.execution_count

    def counters(self) -> Dict[str, float]:
        return {}  # cross-validation predicts through the Module path: no arenas


class TuneNovel(Workload):
    """One caller tuning batches of never-seen regions in process."""

    name = "tune_novel"

    def setup(self) -> None:
        self.tuner = fit_tuner(self.profile)
        self.caps = list(self.tuner.search_space.power_caps)
        self.suite = self.tuner.builder.regions()
        self.rng = new_rng(self.seed, f"perf/{self.name}")
        self._calls = itertools.count()
        warmup_rng = new_rng(self.seed, f"perf/{self.name}/warmup")
        self.tuner.predict_sweep_many(self._regions(warmup_rng, WARMUP_INDEX), self.caps)

    def _regions(self, rng, first_index: int, count: int = NOVEL_BATCH) -> List:
        return [
            perturb_region(
                self.suite[rng.integers(len(self.suite))], rng, index=first_index + i
            )
            for i in range(count)
        ]

    def _next_call(self) -> Tuple[int, List]:
        call = next(self._calls)
        return call, self._regions(self.rng, call * NOVEL_BATCH)

    def run_pass(self, seconds: float) -> Dict[str, Phase]:
        send = _blocking(lambda item: self.tuner.predict_sweep_many(item[1], self.caps))
        calls = max(1, round(NOVEL_CALLS_PER_SECOND * seconds))
        phase = asyncio.run(closed_loop(send, self._next_call, 1, 0.0, calls))
        return {"closed": phase}

    def throughput(self, phases: Dict[str, Phase]) -> float:
        """Regions tuned (at every cap) per second of calls, per window."""
        return windowed(
            phases["closed"].ok,
            WINDOW_CALLS,
            lambda ok: sum(len(o.item[1]) for o in ok) / sum(o.latency for o in ok),
        )

    def latencies(self, phases: Dict[str, Phase]) -> Tuple[float, float, int]:
        """Per call, per window."""
        values = phases["closed"].latencies_ms()
        return (
            windowed(values, WINDOW_CALLS, lambda v: percentile(v, 50)),
            windowed(values, WINDOW_CALLS, lambda v: percentile(v, TAIL_PERCENTILE)),
            len(values),
        )

    def verify(self, passes: Sequence[Dict[str, Phase]]) -> None:
        twin = PnPTuner(
            SYSTEM,
            model_config=self.tuner.model_config,
            database=self.tuner.database,
            seed=self.profile.seed,
        )
        twin.builder = DatasetBuilder(
            self.tuner.database,
            regions_by_app=self.tuner.builder.regions_by_app,
            seed=self.profile.seed,
        )
        twin.load_state_dict(self.tuner.state_dict())
        for phases in passes:
            for outcome in phases["closed"].ok:
                call, batch = outcome.item
                if call % CHECK_EVERY:
                    continue
                for region, served in zip(batch, outcome.answer):
                    _check(
                        f"{self.name} call {call} region {region.region_id}",
                        served,
                        twin.predict_sweep(region, self.caps),
                    )

    def quality(self, phases: Dict[str, Phase]) -> float:
        """The tuner's answers for fixed never-seen regions at every cap."""
        rng = new_rng(QUALITY_SEED, f"perf/{self.name}/quality")
        regions = self._regions(rng, QUALITY_INDEX, QUALITY_REGIONS)
        return sweep_quality(self.tuner.database, self.tuner, regions, self.caps)


class _Serve(Workload):
    """Single-region requests through a default gateway over a 2-node fleet.

    Phase A is an open loop at ``OPEN_RATE_HZ`` (latency), phase B a closed
    loop with ``CLOSED_OUTSTANDING`` requests in flight (throughput).
    """

    def setup(self) -> None:
        self.tuner = fit_tuner(self.profile)
        self.caps = list(self.tuner.search_space.power_caps)
        self.suite = self.tuner.builder.regions()
        self.fleet = self._start_fleet()
        self.loop = asyncio.new_event_loop()
        self.gateway = Gateway(self.fleet.client)
        self.loop.run_until_complete(self.gateway.start())
        self.rng = new_rng(self.seed, f"perf/{self.name}")
        self._requests = itertools.count()
        warmup_rng = new_rng(self.seed, f"perf/{self.name}/warmup")
        for index in range(WARMUP_REQUESTS):
            request = self._request(warmup_rng, WARMUP_INDEX + index)
            self.loop.run_until_complete(self._send(request))

    def _start_fleet(self) -> LocalFleet:
        raise NotImplementedError

    def _request(self, rng, index: int) -> Tuple[Any, float]:
        """The ``index``-th request drawn from ``rng``: a region and a cap."""
        raise NotImplementedError

    def quality_regions(self) -> List:
        raise NotImplementedError

    @functools.cached_property
    def reference(self):
        """The in-process predictor every served answer must match."""
        raise NotImplementedError

    def _next(self) -> Tuple[Any, float]:
        return self._request(self.rng, next(self._requests))

    async def _send(self, item):
        region, cap = item
        return await self.gateway.predict(region, cap)

    def run_pass(self, seconds: float) -> Dict[str, Phase]:
        open_seconds = OPEN_SHARE * seconds
        items = [self._next() for _ in range(max(1, round(OPEN_RATE_HZ * open_seconds)))]

        async def phases():
            opened = await open_loop(self._send, items, OPEN_RATE_HZ)
            closed = await closed_loop(
                self._send, self._next, CLOSED_OUTSTANDING, seconds - open_seconds
            )
            return {"open": opened, "closed": closed}

        return self.loop.run_until_complete(phases())

    def throughput(self, phases: Dict[str, Phase]) -> float:
        """Closed-loop answers per second."""
        return phases["closed"].throughput()

    def verify(self, passes: Sequence[Dict[str, Phase]]) -> None:
        for number, phases in enumerate(passes):
            for kind, phase in sorted(phases.items(), reverse=True):
                for position, outcome in enumerate(phase.ok):
                    region, cap = outcome.item
                    _check(
                        f"{self.name} pass {number} {kind}-loop request {position} "
                        f"(region {region.region_id}, cap {cap:g} W)",
                        outcome.answer,
                        reference_answer(self.reference, region, cap),
                    )

    def quality(self, phases: Dict[str, Phase]) -> float:
        """The reference's answers — which every served one matches — for the
        fixed quality regions at every cap."""
        return sweep_quality(
            self.tuner.database, self.reference, self.quality_regions(), self.caps
        )

    def counters(self) -> Dict[str, float]:
        nodes = self.fleet.stats().values()
        gateway = self.gateway.stats()
        return {
            "hits": sum(n["hits"] for n in nodes),
            "misses": sum(n["misses"] for n in nodes),
            "micro_hits": sum(n["tier"]["micro_hits"] for n in nodes),
            "fallbacks": sum(n["tier"]["fallbacks"] for n in nodes),
            "hedges": gateway["hedges"],
            "hedge_wins": gateway["hedge_wins"],
            "arena_bytes": sum(n["buffers"]["arena_bytes"] for n in nodes),
        }

    def node_pids(self) -> Dict[int, int]:
        return {index: n["pid"] for index, n in self.fleet.stats().items()}

    def close(self) -> None:
        if hasattr(self, "gateway"):
            self.loop.run_until_complete(self.gateway.close())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
        if hasattr(self, "fleet"):
            self.fleet.close()


class ServeWarm(_Serve):
    """Suite regions, again and again, through gateway and fleet, node caches warm."""

    name = "serve_warm"

    def _start_fleet(self) -> LocalFleet:
        fleet = LocalFleet(self.tuner, num_nodes=FLEET_NODES)
        # Every node embeds every suite region, so whichever node answers a
        # request (its home node or a hedge) finds it in its cache.
        for index in fleet.client.serving_nodes():
            fleet.client.sweep_node(index, self.suite, self.caps)
        return fleet

    def _request(self, rng, index: int) -> Tuple[Any, float]:
        base = self.suite[rng.integers(len(self.suite))]
        # An equal copy hits the same cache entry; its own object lets the
        # trace tell apart two requests for one region.
        region = dataclasses.replace(base)
        return region, self.caps[rng.integers(len(self.caps))]

    def quality_regions(self) -> List:
        return self.suite

    @functools.cached_property
    def reference(self):
        return self.tuner


class ServeNovel(_Serve):
    """Never-seen regions through gateway and a distilled fleet."""

    name = "serve_novel"

    def _start_fleet(self) -> LocalFleet:
        # Distil exactly the families served (the whole suite, on the fast profile).
        self.distilled = distillation.distill(self.tuner, self.tuner.builder.regions_by_app)
        return LocalFleet(
            self.tuner, num_nodes=FLEET_NODES, distilled=self.distilled.to_blob()
        )

    def _request(self, rng, index: int) -> Tuple[Any, float]:
        base = self.suite[rng.integers(len(self.suite))]
        if rng.random() < IN_FAMILY_SHARE:
            region = perturb_region(base, rng, index=index)
        else:
            region = perturb_out_of_family(base, index=index)
        return region, self.caps[rng.integers(len(self.caps))]

    def quality_regions(self) -> List:
        rng = new_rng(QUALITY_SEED, f"perf/{self.name}/quality")
        return [self._request(rng, QUALITY_INDEX + i)[0] for i in range(QUALITY_REGIONS)]

    @functools.cached_property
    def reference(self):
        return tiered_predictor(self.tuner, self.distilled)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TuneSuiteCV, TuneNovel, ServeWarm, ServeNovel)
}


# ------------------------------------------------------------------ runs
@dataclass
class Report:
    """One run: its metrics (name → value, unit, sample count) and checks."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None
    #: Trace runs: median self time per op (ms) of each blocking layer, and
    #: the traced pass's median latency they should add up to.
    attribution: Dict[str, float] = field(default_factory=dict)
    traced_p50_ms: float = 0.0

    @property
    def correct(self) -> bool:
        return self.error is None

    def result(self) -> dict:
        """The run's result line: ``correct``, ``attempted``, ``failed`` and ``metrics``."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _n) in self.metrics.items()
            },
        }


def _peak_rss_mb() -> float:
    """Max resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def run(
    name: str,
    seed: int,
    seconds: float,
    trace_dir: Optional[str] = None,
    profile: Optional[ExperimentProfile] = None,
    started: Optional[float] = None,
) -> Report:
    """Set up workload ``name``, time it for ``seconds``, check every answer.

    Untraced, one pass is timed and the end-to-end metrics are reported.
    With ``trace_dir`` the layers are wrapped from the start, one pass runs
    with recording off and a second with it on; the per-layer metrics come
    from the second, and ``trace_dir/trace.json`` receives every span.
    ``started`` is when the interpreter began (set-up time counts from it);
    ``profile`` defaults to the fast experiment profile at ``PROFILE_SEED``.
    """
    started = time.perf_counter() if started is None else started
    profile = profile or fast_profile(PROFILE_SEED)
    recorder = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        for entry in os.listdir(trace_dir):
            if entry.startswith("spans-"):
                os.remove(os.path.join(trace_dir, entry))
        recorder = Recorder(trace_dir)
        ledger.install(recorder)
        recorder.enable()
    report = Report(name, seed, seconds, traced=recorder is not None)
    workload = WORKLOADS[name](seed, profile, recorder)
    passes: List[Dict[str, Phase]] = []
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        execution_count = workload.execution_count()
        if recorder is not None:
            recorder.enable(False)
        passes.append(workload.run_pass(seconds))
        if recorder is not None:
            before = workload.counters()
            recorder.enable()
            window_start = time.perf_counter()
            passes.append(workload.run_pass(seconds))
            window = (window_start, time.perf_counter())
            recorder.enable(False)
            after = workload.counters()
            node_pids = workload.node_pids()
        untraced = passes[0]
        try:
            workload.verify(passes)
        except CorrectnessError as error:
            report.error = str(error)
        if recorder is None:
            quality = workload.quality(untraced)
    finally:
        workload.close()  # fleet nodes write their spans as they exit
        if recorder is not None:
            recorder.restore()

    report.attempted = sum(len(p.outcomes) for phases in passes for p in phases.values())
    report.failed = sum(len(p.failed) for phases in passes for p in phases.values())
    untraced_p50_ms = percentile(workload.latency_phase(untraced).latencies_ms(), 50)
    if recorder is None:
        p50, tail, samples = workload.latencies(untraced)
        values = {
            "setup_s": (setup_s, 1),
            "latency_p50_ms": (p50, samples),
            TAIL: (tail, samples),
            "throughput_rps": (workload.throughput(untraced), len(untraced["closed"].ok)),
            "geomean_speedup": (quality, 1),
            "peak_rss_mb": (_peak_rss_mb(), 1),
        }
        report.metrics = {
            name: (values[name][0], unit, values[name][1]) for name, unit, _ in END_TO_END
        }
        return report

    recorder.dump("bench")
    spans, processes = load_dumps(trace_dir)
    traced_phases = passes[1]
    inputs = ledger.LedgerInputs(
        bench_pid=os.getpid(),
        traced_window=window,
        traced_latencies_ms=workload.latency_phase(traced_phases).latencies_ms(),
        untraced_p50_ms=untraced_p50_ms,
        ops=len(traced_phases["closed"].ok),
        open_phase=traced_phases.get("open"),
        closed_phase=traced_phases.get("closed"),
        node_pids=node_pids,
        counters_before=before,
        counters_after=after,
        execution_count=execution_count,
    )
    report.traced_p50_ms = percentile(inputs.traced_latencies_ms, 50)
    tallies = processes[os.getpid()]["tallies"]
    layer_values, report.attribution, links = ledger.layer_metrics(spans, tallies, inputs)
    units = {name: unit for name, unit, _ in ledger.PER_LAYER}
    report.metrics = {name: (value, units[name], 1) for name, value in layer_values.items()}
    with open(os.path.join(trace_dir, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, processes, ledger.layer_of, links), handle)
    for pid in processes:
        os.remove(os.path.join(trace_dir, f"spans-{pid}.json"))
    return report
