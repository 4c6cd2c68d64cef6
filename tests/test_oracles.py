"""The oracle stays independent of the code it checks.

``tests/oracles/`` may import numpy, scipy, the standard library and
``repro.graph`` (the input data type); an import of any join, walk,
bound, planner, executor or service module would let a bug agree with
itself.  The guard reads the import statements, so it also catches an
import nobody has executed yet.
"""

import ast
from pathlib import Path

import pytest

ORACLE_DIR = Path(__file__).parent / "oracles"

FORBIDDEN = (
    "repro.walks", "repro.core", "repro.rankjoin", "repro.extensions",
    "repro.planner", "repro.exec", "repro.service",
)


def _imported_modules(source: str):
    """Every module an ``import`` / ``from ... import`` statement names
    (``from repro import walks`` names ``repro.walks``)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _violations(source: str):
    """Imported ``repro`` names outside ``repro.graph``."""
    return sorted({
        name for name in _imported_modules(source)
        if name == "repro"
        or (name.startswith("repro.") and name.split(".")[1] != "graph")
    })


@pytest.mark.parametrize(
    "path", sorted(ORACLE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_oracle_imports_no_code_under_test(path):
    assert _violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", FORBIDDEN)
def test_guard_catches_every_forbidden_layer(module):
    package, layer = module.split(".")
    for statement in (
        f"import {module}.x",
        f"from {module}.x import y",
        f"from {package} import {layer}",
    ):
        assert _violations(statement), statement


def test_guard_allows_the_graph_layer():
    assert _violations(
        "import numpy as np\n"
        "from repro.graph.digraph import Graph\n"
        "from repro.graph.validation import GraphValidationError\n"
    ) == []
