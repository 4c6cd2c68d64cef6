"""Setup shim carrying the package metadata directly.

The execution environment has no ``wheel`` package and no network, so
PEP 517 editable installs (which need ``bdist_wheel``) fail.  This shim
lets ``pip install -e . --no-use-pep517 --no-build-isolation`` work with
the stock setuptools.  Metadata lives here (there is no
``pyproject.toml``): the ``src`` layout, and the ``repro-lint`` console
entry point for the invariant linter (``repro.analysis.lint``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-dht-joins",
    description=(
        "Reproduction of multi-way join evaluation over discounted "
        "hitting time (ICDE 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro-lint=repro.analysis.lint:main",
        ],
    },
)
