"""Package metadata and the ``repro-bench`` / ``repro-serve`` scripts.

Install with ``pip install -e .``.  PEP 660 editable installs build a
wheel, so on a host without the ``wheel`` package that command stops at
``bdist_wheel``; ``python setup.py develop`` installs the same package
and scripts there.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Multi-class item mining under local differential privacy",
    python_requires=">=3.9",
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro-bench = repro.cli:main",
            "repro-serve = repro.cli:serve_main",
        ]
    },
)
