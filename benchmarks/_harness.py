"""What the paper-figure scripts share: result tables, the session
report registry, and the dataset instances and query constructions.

Each ``bench_*.py`` module regenerates one table or figure: it runs the
relevant parameter sweep, collects :class:`SeriesResult` rows, and
registers a reporter that prints them in the layout the paper reports
(series per algorithm, one row per x value); ``conftest.py`` runs the
reporters at session end.  Absolute times are not comparable with the
paper's C++ testbed — the scripts assert the *shape* of each figure.
Wall-clock claims about this repo come from ``bench/run.py`` and
``BENCHMARK.json``, not from here.

Scale notes: the Yeast substitute runs at the paper's true scale (2.4k
nodes); the DBLP and YouTube substitutes are scaled down for pure-Python
benchmarking, which shrinks absolute times but preserves the algorithm
ranking the paper reports.  Datasets are generated once per process and
memoised, so every script uses identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.nway.query_graph import QueryGraph
from repro.datasets.dblp import DBLPDataset, generate_dblp
from repro.datasets.yeast import YeastDataset, generate_yeast
from repro.datasets.youtube import YouTubeDataset, generate_youtube
from repro.graph.validation import GraphValidationError


@dataclass
class TimedRun:
    """One measured configuration."""

    x: object
    seconds: float
    extra: dict = field(default_factory=dict)


@dataclass
class SeriesResult:
    """A named series (one algorithm) over a sweep."""

    name: str
    runs: List[TimedRun] = field(default_factory=list)

    def add(self, x: object, seconds: float, **extra: object) -> None:
        """Append one measurement."""
        self.runs.append(TimedRun(x=x, seconds=seconds, extra=dict(extra)))

    def seconds_at(self, x: object) -> Optional[float]:
        """Time measured at sweep value ``x`` (``None`` if absent —
        e.g. NL marked infeasible)."""
        for run in self.runs:
            if run.x == x:
                return run.seconds
        return None


def format_seconds(seconds: Optional[float]) -> str:
    """Human-oriented fixed-width time formatting (or ``--`` / ``inf``)."""
    if seconds is None:
        return "      --"
    if math.isinf(seconds):
        return "     inf"
    if seconds >= 100:
        return f"{seconds:8.1f}"
    if seconds >= 1:
        return f"{seconds:8.3f}"
    return f"{seconds:8.4f}"


def print_sweep_table(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Sequence[SeriesResult],
    note: str = "",
) -> str:
    """Render a paper-style sweep table; returns (and prints) the text."""
    lines = [f"== {title} =="]
    if note:
        lines.append(f"   {note}")
    header = f"{x_label:>10} | " + " | ".join(f"{s.name:>10}" for s in series)
    lines.append(header)
    lines.append("-" * len(header))
    for x in x_values:
        cells = []
        for s in series:
            cells.append(format_seconds(s.seconds_at(x)).rjust(10))
        lines.append(f"{str(x):>10} | " + " | ".join(cells))
    text = "\n".join(lines)
    print(text)
    return text


def print_kv_table(title: str, rows: Dict[str, object], note: str = "") -> str:
    """Render a simple key/value table (for AUC tables etc.)."""
    lines = [f"== {title} =="]
    if note:
        lines.append(f"   {note}")
    width = max(len(k) for k in rows) if rows else 1
    for key, value in rows.items():
        if isinstance(value, float):
            lines.append(f"{key:<{width}} : {value:.4f}")
        else:
            lines.append(f"{key:<{width}} : {value}")
    text = "\n".join(lines)
    print(text)
    return text


# ----------------------------------------------------------------------
# Session report registry.  ``benchmarks/`` is not a package, so
# pytest's default ``prepend`` import mode puts it on ``sys.path``: every
# script and the conftest import this module under the one name
# ``_harness`` and share the list.
# ----------------------------------------------------------------------

_REPORTERS: List[Callable[[], None]] = []


def register_reporter(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a reporter; returns it unchanged (decorator-friendly)."""
    _REPORTERS.append(fn)
    return fn


def print_all_reports() -> None:
    """Run every registered reporter (idempotent per registration)."""
    if not _REPORTERS:
        return
    print("\n")
    print("#" * 72)
    print("# Paper-reproduction sweep tables")
    print("#" * 72)
    for reporter in _REPORTERS:
        print()
        reporter()


# ----------------------------------------------------------------------
# Datasets and query constructions.
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def yeast() -> YeastDataset:
    """The Yeast substitute at the paper's scale (2.4k / ~7k edges)."""
    return generate_yeast(num_proteins=2400, seed=2014)


@lru_cache(maxsize=1)
def dblp() -> DBLPDataset:
    """The DBLP substitute (3 areas x 1000 authors by default)."""
    return generate_dblp(authors_per_area=1000, seed=2014)


@lru_cache(maxsize=1)
def dblp_large() -> DBLPDataset:
    """A larger DBLP instance (12k authors) for the pruning study.

    The ``Y_l^+`` bound's pruning power depends on how much the walk
    mass from ``P`` dilutes across the graph (Fig. 10(b) was measured on
    the 188k-node real DBLP); this is the largest instance that keeps
    the benchmark session fast.
    """
    return generate_dblp(authors_per_area=4000, seed=2014)


@lru_cache(maxsize=1)
def youtube_small() -> YouTubeDataset:
    """The YouTube substitute (5k users, 20 groups)."""
    return generate_youtube(num_users=5_000, num_groups=20, seed=2014)


def sample_node_sets(
    universe: Sequence[int],
    count: int,
    size: int,
    seed: int,
) -> List[List[int]]:
    """``count`` disjoint node sets of ``size`` nodes from ``universe``.

    The efficiency experiments (Section VII-C) join synthetic node sets;
    disjointness matches the paper's group semantics.
    """
    rng = np.random.default_rng(seed)
    universe = list(universe)
    if count * size > len(universe):
        raise GraphValidationError(
            f"cannot draw {count} x {size} disjoint nodes from {len(universe)}"
        )
    chosen = rng.choice(len(universe), size=count * size, replace=False)
    return [
        sorted(universe[int(i)] for i in chosen[c * size : (c + 1) * size])
        for c in range(count)
    ]


def yeast_node_sets(count: int, size: int = 50, seed: int = 7) -> List[List[int]]:
    """Disjoint node sets drawn from the Yeast graph."""
    data = yeast()
    return sample_node_sets(range(data.graph.num_nodes), count, size, seed)


def dblp_node_sets(count: int, size: int = 50, seed: int = 7) -> List[List[int]]:
    """Disjoint node sets drawn from the DBLP graph."""
    data = dblp()
    return sample_node_sets(range(data.graph.num_nodes), count, size, seed)


def query_graph_with_edges(num_edges: int) -> QueryGraph:
    """3-vertex query graphs with ``|E_Q| = 2 .. 6`` (Fig. 7(b)/8(b)).

    * 2: chain ``R1 -> R2 -> R3``
    * 3: directed 3-cycle
    * 4: cycle plus one reverse edge
    * 5: cycle plus two reverse edges
    * 6: fully bidirectional triangle
    """
    base = [(0, 1), (1, 2)]
    extras = [(2, 0), (1, 0), (2, 1), (0, 2)]
    if not (2 <= num_edges <= 6):
        raise GraphValidationError(f"|E_Q| must be in [2, 6], got {num_edges}")
    return QueryGraph(3, base + extras[: num_edges - 2])
