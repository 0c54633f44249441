"""``setup.py`` ships every module of ``repro``.

``src/repro`` has no ``__init__.py`` (it is a namespace package), so a plain
``find_packages`` finds nothing under it and ``pip install .`` would install
no ``repro`` at all.  Building the package into a scratch directory must
copy exactly the modules under ``src/repro``.
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _modules(root):
    return {path.relative_to(root).as_posix() for path in root.rglob("*.py")}


def test_build_ships_every_module(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        check=True,
    )
    built = _modules(tmp_path / "lib" / "repro")
    assert built and built == _modules(REPO / "src" / "repro")
