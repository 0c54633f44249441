"""Process-wide cache of expensive experiment results shared across benches.

Figure 7 re-uses the EDP experiment of Figure 6, and the headline-summary
bench re-uses Figures 2, 3 and 6; caching the experiment results keeps the
whole benchmark suite's runtime close to the sum of unique experiments.

This module also owns the benchmark output conventions: formatted text goes
to ``benchmarks/results/<name>.txt`` (see ``conftest.save_result``) and
machine-readable payloads to ``benchmarks/results/<name>.json`` via
:func:`save_json` (used by ``shuffle_study``).
"""

from __future__ import annotations

import json
import os
from typing import Dict

# NOTE: the repro.experiments stack is imported lazily inside the accessor
# functions — this module is also imported for its results-path conventions
# (by conftest.py at pytest collection time and by shuffle_study), which must
# stay cheap and not depend on the experiment code importing cleanly.

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def results_path(name: str, extension: str = "txt") -> str:
    """Canonical path of a benchmark artifact under ``benchmarks/results``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, f"{name}.{extension}")


def save_json(name: str, payload: Dict[str, object]) -> str:
    """Write a JSON benchmark payload following the results conventions."""
    path = results_path(name, "json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

_POWER: Dict[str, object] = {}
_EDP: Dict[str, object] = {}
_UNSEEN: Dict[str, object] = {}


def bench_profile(seed: int = 0):
    """The profile used by every figure bench (fast; full suite)."""
    from repro.experiments import fast_profile

    return fast_profile(seed=seed)


def power_constrained(system: str):
    """Cached Fig. 2/3 experiment result for ``system``."""
    from repro.experiments import run_power_constrained

    if system not in _POWER:
        _POWER[system] = run_power_constrained(system, bench_profile())
    return _POWER[system]


def edp(system: str):
    """Cached Fig. 6/7 experiment result for ``system``."""
    from repro.experiments import run_edp

    if system not in _EDP:
        _EDP[system] = run_edp(system, bench_profile())
    return _EDP[system]


def unseen_power(system: str):
    """Cached Fig. 4/5 experiment result for ``system``."""
    from repro.experiments import run_unseen_power

    if system not in _UNSEEN:
        # The unseen-cap experiment trains one model per held-out cap and
        # fold; a slightly smaller epoch count keeps it tractable.
        _UNSEEN[system] = run_unseen_power(system, bench_profile().with_overrides(epochs=10))
    return _UNSEEN[system]
