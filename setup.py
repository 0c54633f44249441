"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments whose pip/setuptools cannot build PEP-660 editable
wheels (no ``wheel`` package available); pip falls back to the legacy
``setup.py develop`` path in that case.
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Power Constrained Autotuning using Graph Neural "
        "Networks' (IPDPS 2023): the PnP tuner, its substrates, baselines "
        "and experiment harness."
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_namespace_packages(where="src", include=["repro", "repro.*"]),
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0"]},
)
