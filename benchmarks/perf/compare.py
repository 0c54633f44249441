"""Compare two sets of benchmark runs: one row per workload and end-to-end metric.

    python -m benchmarks.perf.compare --parent RUNS... --change RUNS...

Each ``RUNS`` is a file holding the output of one untraced run (what
``python -m benchmarks.perf --workload NAME`` prints, or one ``--out``
file) or a directory searched for them; give at least three runs a side.
Each row shows both sides' median and quartiles, the share of (parent,
change) pairs the change wins (ties count for neither) and a verdict under
the bounds in ``BENCHMARK.json``:

``improved``
    the change is better, wins at least 90 % of the pairs, and the medians
    differ by more than the parent's quartile spread — with at least ten
    runs a side (fewer cannot support a claimed gain);
``unresolved``
    the run-to-run spread (the wider side's quartile spread) exceeds the
    bound, and not every change run beats every parent run — or the change
    is worse by more than the bound but by less than that spread;
``regressed``
    the change's median is worse than the parent's by more than the bound
    and by more than the spread;
``unchanged``
    otherwise.

Metrics a workload derives from another's sample (``Workload.derived``)
get no verdict of their own.  Each workload also gets a ``failed`` row:
failed requests over attempted ones, summed over the runs; it is
``regressed`` when the change's share is higher than the parent's, and then
none of that workload's gains counts.

Exit status 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_HEADER = "# perf "
WIN_SHARE = 0.9
MIN_RUNS_FOR_GAIN = 10


@dataclass
class Runs:
    """One side's runs of one workload."""

    metrics: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    failed: int = 0
    attempted: int = 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def parse_run(text: str):
    """``(workload, result object)`` of one untraced run's output, else ``None``."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = next((line for line in lines if line.startswith(_HEADER)), None)
    if header is None or not lines[-1].startswith("{"):
        return None
    fields = dict(item.split("=", 1) for item in header[len(_HEADER):].split())
    if fields.get("trace") != "0":
        return None
    return fields["workload"], json.loads(lines[-1])


def _files(paths: Iterable[str]) -> List[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for folder, _dirs, names in sorted(os.walk(path)):
                found.extend(os.path.join(folder, name) for name in sorted(names))
        else:
            found.append(path)
    return found


def load_runs(paths: Iterable[str]) -> Dict[str, Runs]:
    """Each workload's runs, from files and directories."""
    runs: Dict[str, Runs] = defaultdict(Runs)
    for path in _files(paths):
        with open(path, encoding="utf-8", errors="replace") as handle:
            parsed = parse_run(handle.read())
        if parsed is None:
            continue
        workload, result = parsed
        side = runs[workload]
        side.failed += result["failed"]
        side.attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            side.metrics[name].append(metric["value"])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """``(verdict, win share, spread as a share of the parent median)``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    dominates = all(sign * (c - p) > 0 for p, c in pairs)
    scale = abs(pm) or 1.0
    spread = max(p3 - p1, c3 - c1)
    gain = sign * (cm - pm)
    enough = min(len(parent), len(change)) >= MIN_RUNS_FOR_GAIN
    if enough and gain > 0 and wins >= WIN_SHARE and abs(cm - pm) > p3 - p1:
        return "improved", wins, spread / scale
    if spread / scale > bound and not dominates:
        return "unresolved", wins, spread / scale
    if -gain / scale > bound:
        kind = "regressed" if abs(cm - pm) > spread else "unresolved"
        return kind, wins, spread / scale
    return "unchanged", wins, spread / scale


def compare(parent_paths, change_paths, benchmark: dict) -> Tuple[List[str], bool]:
    """Formatted rows and whether every row is improved or unchanged."""
    from benchmarks.perf.workloads import WORKLOADS

    parent, change = load_runs(parent_paths), load_runs(change_paths)
    rows = [
        f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'diff':>8} {'wins':>5} {'spread':>7} "
        f"{'bound':>6}  verdict"
    ]
    ok = True
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in parent or name not in change:
            rows.append(f"{name:<14} missing runs")
            ok = False
            continue
        before, after = parent[name], change[name]
        more_failures = after.failed_share > before.failed_share
        ok = ok and not more_failures
        rows.append(
            f"{name:<14} {'failed':<16} {f'{before.failed}/{before.attempted}':>32} "
            f"{f'{after.failed}/{after.attempted}':>32} "
            f"{'':>30}  {'regressed' if more_failures else 'unchanged'}"
        )
        derived = WORKLOADS[name].derived if name in WORKLOADS else ()
        for metric in benchmark["end_to_end"]:
            old = before.metrics.get(metric["name"], [])
            new = after.metrics.get(metric["name"], [])
            if not old or not new:
                rows.append(f"{name:<14} {metric['name']:<16} missing runs")
                ok = False
                continue
            kind, wins, spread = verdict(old, new, metric["better"], metric["bound"])
            if metric["name"] in derived:
                kind = "derived, no verdict"
            elif kind == "improved" and more_failures:
                kind = "void: more requests failed"
            else:
                ok = ok and kind in ("improved", "unchanged")
            (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
            rows.append(
                f"{name:<14} {metric['name']:<16} "
                f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>32} "
                f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>32} "
                f"{(cm - pm) / (abs(pm) or 1.0):>+8.2%} {wins:>5.2f} {spread:>7.2%} "
                f"{metric['bound']:>6.1%}  {kind} (n={len(old)}/{len(new)})"
            )
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True, help="parent runs")
    parser.add_argument("--change", nargs="+", required=True, help="change runs")
    parser.add_argument(
        "--benchmark", default=os.path.join(_ROOT, "BENCHMARK.json"),
        help="benchmark definition holding the bounds",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows, ok = compare(args.parent, args.change, benchmark)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
