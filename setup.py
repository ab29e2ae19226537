"""Packaging for the ``repro`` library (the code under ``src/``).

All metadata lives here; there is no pyproject.toml.  Without network
access or the ``wheel`` package a PEP 660 editable install cannot
build its wheel, so install through the legacy path::

    pip install --no-deps --no-build-isolation --no-use-pep517 -e .

The tests and examples need no install: they run with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Flash-Cosmos: in-flash bulk bitwise operations on a simulated "
        "NAND flash SSD"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
