"""Command line of the benchmark: one workload, or all of them in turn.

``--workload NAME`` runs that workload in this interpreter and prints one
line per metric (name, value, unit, sample count), then — as the last line
— the result object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` every workload runs in a fresh interpreter of its
own, so each pays its own set-up and inherits no other's caches; ``--out
DIR`` keeps each one's output as ``DIR/<workload>.txt`` for ``compare``.

``--trace 1`` reports the per-layer metrics instead and writes the spans of
the run, node processes included, to ``--trace-dir`` as ``trace.json``.
Exit status: 0 when every answer was correct, 1 otherwise.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_HEADER = "# perf"


def _run_seconds() -> float:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _print_report(report) -> None:
    from benchmarks.perf.loadgen import TAIL_PERCENTILE, tail_supported
    from benchmarks.perf.workloads import TAIL, WORKLOADS

    print(
        f"{_HEADER} workload={report.workload} seed={report.seed} "
        f"seconds={report.seconds:g} trace={int(report.traced)}"
    )
    derived = () if report.traced else WORKLOADS[report.workload].derived
    for name, (value, unit, count) in report.metrics.items():
        note = f" (n={count})" if count > 1 else ""
        if name in derived:
            note = f" (n={count}: derived from the latency_p50_ms sample)"
        elif name == TAIL and not tail_supported(count, TAIL_PERCENTILE):
            note = f" (n={count}: fewer than 10 samples beyond it)"
        print(f"{name} = {value:.6g} {unit}{note}")
    if report.attribution:
        parts = ", ".join(f"{k} {v:.3f}" for k, v in report.attribution.items())
        accounted = sum(report.attribution.values())
        print(
            f"attribution (median ms per op): {parts}; sum {accounted:.3f} = "
            f"{accounted / report.traced_p50_ms:.1%} of the traced p50 "
            f"{report.traced_p50_ms:.3f}"
        )
    if report.error:
        print(f"INCORRECT: {report.error}", file=sys.stderr)
    print(json.dumps(report.result()))


def _run_all(args) -> int:
    from benchmarks.perf.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "benchmarks.perf", "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        if args.trace_dir:
            command += ["--trace-dir", os.path.abspath(os.path.join(args.trace_dir, name))]
        child = subprocess.run(command, cwd=_ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(child.stdout)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="timed seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="where a trace run writes trace.json")
    parser.add_argument("--out", help="without --workload: keep each output here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _run_seconds()
    if args.workload is None:
        return _run_all(args)

    from benchmarks.perf.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace_dir = None
    if args.trace:
        trace_dir = args.trace_dir or os.path.join(
            _HERE, "traces", f"{args.workload}-seed{args.seed}"
        )
    report = run(args.workload, args.seed, args.seconds, trace_dir=trace_dir, started=STARTED)
    _print_report(report)
    if trace_dir:
        print(f"trace: {os.path.join(trace_dir, 'trace.json')}", file=sys.stderr)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
