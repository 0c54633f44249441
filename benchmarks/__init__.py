"""Benchmark harness package.

Importing the package bootstraps ``sys.path`` (the ``src`` layout and the
benchmarks directory itself) so ``python -m benchmarks.floors`` works from a
repository checkout without setting ``PYTHONPATH``.
"""

import os
import sys

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_THIS_DIR), "src")
for _path in (_SRC, _THIS_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)
