"""End-to-end and per-layer performance benchmark of the PnP tuner.

Run one workload (what ``BENCHMARK.json`` invokes) or all of them, each in
a fresh interpreter::

    python -m benchmarks.perf --workload serve_warm --seed 0 --seconds 10
    python -m benchmarks.perf --seed 0

See ``benchmarks/perf/README.md`` for the workloads, the metrics and how to
trace and compare runs.  Importing the package puts the in-tree ``src``
layout on ``sys.path`` so the benchmark runs from a plain checkout.
"""

import os
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
