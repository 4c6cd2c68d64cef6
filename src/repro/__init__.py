"""Reproduction of *Evaluating Multi-Way Joins over Discounted Hitting
Time* (Zhang, Cheng, Kao — ICDE 2014).

Quick start::

    import numpy as np
    from repro import Graph, QueryGraph, two_way_join, multi_way_join

    graph = Graph.from_undirected_edges(5, [(0, 1, 1.0), (1, 2, 1.0),
                                            (2, 3, 1.0), (3, 4, 2.0)])
    pairs = two_way_join(graph, left=[0, 1], right=[3, 4], k=2)
    answers = multi_way_join(graph, QueryGraph.chain(3),
                             [[0], [2], [4]], k=1)

See ``README.md`` for the architecture map and paper-name glossary, and
``docs/BENCHMARKS.md`` for how performance is measured (``bench/run.py``
against ``BENCHMARK.json``).
"""

from repro.api import explain_multi_way_plan, multi_way_join, run, two_way_join
from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.core.nway.aggregates import AVG, MAX, MIN, SUM
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import ScoredPair
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.query import (
    ExplainRequest,
    MultiWayRequest,
    QueryOptions,
    TwoWayRequest,
)
from repro.walks.engine import WalkEngine

__version__ = "1.0.0"

__all__ = [
    "AVG",
    "BoundPlanCache",
    "DHTParams",
    "ExplainRequest",
    "Graph",
    "GraphValidationError",
    "MAX",
    "MIN",
    "MultiWayRequest",
    "QueryOptions",
    "QueryGraph",
    "SUM",
    "ScoredPair",
    "TwoWayRequest",
    "WalkEngine",
    "explain_multi_way_plan",
    "multi_way_join",
    "run",
    "two_way_join",
    "__version__",
]
