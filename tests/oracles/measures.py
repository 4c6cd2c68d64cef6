"""Dense reference scores: DHT first hits and truncated PPR.

Every function builds the graph's transition matrix from
the adjacency dicts with a plain Python loop and then works on dense
``(n, n)`` arrays, so the cost is quadratic in the node count — small
graphs only.  Entry ``[u, v]`` of a score matrix is the score of the
pair ``(u, v)`` (``u`` the left node, ``v`` the right one); diagonal
entries are whatever the recurrence leaves there, and every join
excludes reflexive pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError


def transition_matrix(graph: Graph) -> np.ndarray:
    """Row-stochastic ``T[u, v] = w_uv / sum_w w_uw`` (dangling rows 0)."""
    n = graph.num_nodes
    matrix = np.zeros((n, n), dtype=np.float64)
    for u in graph.nodes():
        neighbors = graph.out_neighbors(u)
        if not neighbors:
            continue
        total = sum(neighbors.values())
        for v, w in neighbors.items():
            matrix[u, v] = w / total
    return matrix


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise GraphValidationError(f"steps must be >= 1, got {steps}")


def first_hit_series(graph: Graph, steps: int) -> np.ndarray:
    """``P[i - 1, u, v] = P_i(u, v)``, the probability that a walk from
    ``u`` reaches ``v`` for the first time at step ``i``.

    First-step analysis: ``P_1 = T`` and
    ``P_i(u, v) = sum_{w != v} T[u, w] P_{i-1}(w, v)`` — a walker
    already at ``v`` has stopped, which is zeroing the diagonal of
    ``P_{i-1}`` before the next matrix power.
    """
    _check_steps(steps)
    transition = transition_matrix(graph)
    series = np.empty((steps,) + transition.shape, dtype=np.float64)
    hits = transition.copy()
    series[0] = hits
    for i in range(1, steps):
        np.fill_diagonal(hits, 0.0)
        hits = transition @ hits
        series[i] = hits
    return series


def dht_scores(graph: Graph, params, steps: int) -> np.ndarray:
    """Truncated DHT ``alpha * sum_{i <= steps} lambda^i P_i + beta``.

    ``params`` is anything with ``alpha`` / ``beta`` / ``decay``.
    """
    series = first_hit_series(graph, steps)
    weights = params.decay ** np.arange(1, steps + 1)
    return params.alpha * np.tensordot(weights, series, axes=1) + params.beta


def exact_dht_to_target(graph: Graph, params, target: int) -> np.ndarray:
    """Untruncated ``h(u, target)`` for every ``u`` by a linear solve.

    With ``g(u) = sum_i lambda^i P_i(u, v)``, first-step analysis gives
    ``(I - lambda T_{-v}) g = lambda T e_v`` where ``T_{-v}`` is ``T``
    with column ``v`` zeroed; ``lambda < 1`` makes the system strictly
    diagonally dominant.  ``h(target, target)`` is reported as 0.
    """
    n = graph.num_nodes
    if not (0 <= target < n):
        raise GraphValidationError(f"target {target} out of range")
    transition = transition_matrix(graph)
    masked = transition.copy()
    masked[:, target] = 0.0
    g = np.linalg.solve(
        np.eye(n) - params.decay * masked, params.decay * transition[:, target]
    )
    scores = params.alpha * g + params.beta
    scores[target] = 0.0
    return scores


def ppr_scores(graph: Graph, damping: float, steps: int) -> np.ndarray:
    """Truncated Personalized PageRank
    ``(1 - c) * sum_{i = 0 .. steps} c^i T^i`` — the walker may revisit
    the target, so these are plain matrix powers."""
    _check_steps(steps)
    transition = transition_matrix(graph)
    power = np.eye(graph.num_nodes)
    total = power.copy()
    for i in range(1, steps + 1):
        power = power @ transition
        total += damping ** i * power
    return (1.0 - damping) * total


def exact_ppr(graph: Graph, damping: float) -> np.ndarray:
    """Untruncated PPR ``(1 - c) (I - c T)^{-1}``."""
    n = graph.num_nodes
    return (1.0 - damping) * np.linalg.inv(
        np.eye(n) - damping * transition_matrix(graph)
    )


def scores_for(graph: Graph, d: int, params=None, measure=None) -> np.ndarray:
    """The score matrix a join configured with ``params`` / ``measure``
    (as a two-way context or an n-way spec holds them) ranks by.

    The measure is read by duck typing, like the joins read it: DHT
    coefficients (``alpha``) directly or under ``params``, or a PPR
    ``damping``.
    """
    config = params if measure is None else getattr(measure, "params", measure)
    if hasattr(config, "alpha"):
        return dht_scores(graph, config, d)
    if hasattr(config, "damping"):
        return ppr_scores(graph, config.damping, d)
    raise TypeError(f"no oracle for {config!r}")


def simulate_first_hit_series(
    graph: Graph,
    source: int,
    target: int,
    steps: int,
    num_walks: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Monte-Carlo estimate of ``P_i(source, target)``, ``i = 1..steps``.

    Runs ``num_walks`` independent walks of at most ``steps`` moves and
    records the step at which each first reaches ``target`` — a check
    that shares no algebra with the matrix forms above.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    counts = np.zeros(steps, dtype=np.float64)
    neighbor_ids, neighbor_cdf = [], []
    for u in graph.nodes():
        adj = graph.out_neighbors(u)
        ids = np.fromiter(adj.keys(), dtype=np.int64, count=len(adj))
        cdf = np.cumsum(np.fromiter(adj.values(), dtype=np.float64, count=len(adj)))
        neighbor_ids.append(ids)
        neighbor_cdf.append(cdf / cdf[-1] if adj else cdf)
    for _ in range(num_walks):
        node = source
        for step in range(1, steps + 1):
            ids = neighbor_ids[node]
            if ids.size == 0:
                break  # stuck at a dangling node
            node = int(ids[np.searchsorted(neighbor_cdf[node], rng.random())])
            if node == target:
                counts[step - 1] += 1.0
                break
    return counts / num_walks
