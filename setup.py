"""Setuptools build script; all package metadata lives here.

The sandboxed environment has no ``wheel`` package, so PEP 517 editable
installs fail; ``pip install -e . --no-use-pep517 --no-build-isolation``
goes through this script instead.  The version is read from
``src/repro/__init__.py`` so it has one source of truth.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
