"""The package imports with numpy as its only third-party dependency.

``networkx`` and ``scipy`` are not dependencies: importing ``repro`` and
every module in it, in a fresh interpreter, must load neither.
"""

import os
import subprocess
import sys

import repro

FORBIDDEN = ("networkx", "scipy")

SCRIPT = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(sorted({name.split(".")[0] for name in sys.modules} & set(sys.argv[1:])))
"""


def test_importing_every_module_loads_no_unused_dependency():
    # repro is a namespace package: locate it by its path, not a __file__.
    source_root = os.path.dirname(list(repro.__path__)[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT, *FORBIDDEN],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.strip()
    assert output == "[]"
