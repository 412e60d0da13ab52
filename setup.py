"""Legacy setup shim.

The offline build environment has setuptools but no ``wheel``, so PEP 660
editable installs are unavailable; this file lets ``pip install -e .`` use
the classic ``setup.py develop`` code path.  All package metadata lives
in this file; there is no ``pyproject.toml``.  Test settings are in
``pytest.ini``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
