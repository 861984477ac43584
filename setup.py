"""Package metadata: ``pip install -e .`` installs ``repro`` from ``src/``."""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
