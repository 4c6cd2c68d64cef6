"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module registers a *reporter* (via ``_harness``) that
prints the paper-style sweep tables its tests produced; they run at
session end.  Datasets and walk engines are session-cached so generation
cost is paid once.

Run with (178 tests, ~85 s; ``-s`` shows the tables)::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py

A bare ``pytest benchmarks/`` collects nothing: the figure scripts are
``bench_*.py``, not ``test_*.py``.
"""

from __future__ import annotations

import pytest

import _harness
from repro.walks.engine import WalkEngine


@pytest.fixture(scope="session", autouse=True)
def _print_reports_at_end():
    yield
    _harness.print_all_reports()


@pytest.fixture(scope="session")
def yeast_data():
    return _harness.yeast()


@pytest.fixture(scope="session")
def yeast_engine(yeast_data):
    return WalkEngine(yeast_data.graph)


@pytest.fixture(scope="session")
def dblp_data():
    return _harness.dblp()


@pytest.fixture(scope="session")
def dblp_engine(dblp_data):
    return WalkEngine(dblp_data.graph)


@pytest.fixture(scope="session")
def youtube_data():
    return _harness.youtube_small()
