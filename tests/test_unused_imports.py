"""No module-level import under ``tests/``, ``examples/`` or
``benchmarks/`` goes unused.

An unused import in a test hides which module a test really exercises,
and keeps a deleted or renamed name looking alive.  The check is the
AST alone: a module-level ``import`` (including those inside top-level
``if`` / ``try`` blocks) binds a name, and that name must be read
somewhere in the file as a plain name or listed in its ``__all__``.
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("tests", "examples", "benchmarks")


def _module_imports(body):
    """``(name, line)`` for every name a module-level import binds."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _module_imports(block)


def unused_imports(source: str):
    """Sorted ``(line, name)`` of the module-level imports ``source``
    never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted(
        (line, name) for name, line in _module_imports(tree.body)
        if name not in read
    )


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import List, Optional\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import pickle as json\n"
        "__all__ = ['Optional']\n"
        "def f(x: List[int]):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "osp"), (6, "json"), (8, "json")]


def test_no_unused_module_imports():
    offenders = {
        str(path.relative_to(ROOT)): unused
        for folder in CHECKED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not offenders, f"unused module-level imports: {offenders}"
