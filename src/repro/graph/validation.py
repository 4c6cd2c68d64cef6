"""Input validation for graph construction.

Centralises the failure modes the test suite injects: out-of-range node
ids, non-positive or non-finite weights, self-loops, and parallel edges
(which are merged, not rejected).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple

import numpy as np


class GraphValidationError(ValueError):
    """Raised when a graph, node set, or query input is malformed."""


def validate_edges(
    num_nodes: int,
    edges: Iterable[Tuple[int, int, float]],
    allow_self_loops: bool = False,
) -> Dict[Tuple[int, int], float]:
    """Validate an edge iterable and merge parallel edges.

    Returns a dict ``{(u, v): weight}`` with parallel edge weights summed.

    Raises
    ------
    GraphValidationError
        On out-of-range endpoints, non-finite or non-positive weights, or
        (by default) self-loops.  Self-loops are meaningless for hitting
        times — a walker standing on ``v`` has already hit ``v`` — so the
        paper's model excludes them.
    """
    merged: Dict[Tuple[int, int], float] = {}
    for item in edges:
        try:
            u, v, w = item
        except (TypeError, ValueError) as exc:
            raise GraphValidationError(f"edge {item!r} is not a (u, v, w) triple") from exc
        u = int(u)
        v = int(v)
        w = float(w)
        if not (0 <= u < num_nodes) or not (0 <= v < num_nodes):
            raise GraphValidationError(
                f"edge ({u}, {v}) out of node range [0, {num_nodes})"
            )
        if u == v and not allow_self_loops:
            raise GraphValidationError(f"self-loop on node {u} is not allowed")
        if not math.isfinite(w) or w <= 0:
            raise GraphValidationError(
                f"edge ({u}, {v}) has invalid weight {w}; weights must be finite and > 0"
            )
        key = (u, v)
        merged[key] = merged.get(key, 0.0) + w
    return merged


_BOOLS = frozenset({bool, np.bool_})


def node_ids(values: Iterable) -> Tuple[int, ...]:
    """``values`` as ints; a bool or non-integral id is an error, never
    truncated (``1.5``, ``True`` and ``"3"`` are all rejected)."""
    try:
        values = tuple(values)
        ids = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ids = None
    if ids != values or _BOOLS & set(map(type, values)):
        raise GraphValidationError(f"node ids must be integers, got {values!r}")
    return ids


def validate_node_set(graph_num_nodes: int, nodes: Iterable[int], name: str = "node set"):
    """Validate a query node set: in range, non-empty, duplicates removed.

    Returns the node ids as a list preserving first-seen order.  The
    range is checked once over the deduplicated ids; only a failing set
    is walked again, to name its first out-of-range node in input order.
    """
    seen = list(dict.fromkeys(map(int, nodes)))
    if not seen:
        raise GraphValidationError(f"{name} is empty")
    if min(seen) < 0 or max(seen) >= graph_num_nodes:
        bad = next(u for u in seen if not 0 <= u < graph_num_nodes)
        raise GraphValidationError(
            f"{name} contains node {bad} outside [0, {graph_num_nodes})"
        )
    return seen
