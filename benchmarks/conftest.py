"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper using
the ``fast`` experiment profile (grouped application folds, short training).
Because several figures share expensive intermediate results (the trained
cross-validated models and the exhaustive oracle sweeps), those results are
cached per process in :mod:`figure_cache`.

The formatted tables are written to ``benchmarks/results/*.txt`` and the
headline numbers are attached to each benchmark's ``extra_info`` so they
appear in pytest-benchmark's output.
"""

import os
import sys

import pytest

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_THIS_DIR), "src")
for path in (_SRC, _THIS_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import figure_cache  # noqa: E402  (owns the results-directory conventions)

RESULTS_DIR = figure_cache.RESULTS_DIR


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write a figure/table rendering to ``benchmarks/results/<name>.txt``."""

    def _save(name: str, text: str) -> str:
        path = figure_cache.results_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n[{name}] written to {path}\n")
        print(text)
        return path

    return _save
