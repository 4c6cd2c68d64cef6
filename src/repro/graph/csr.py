"""Compressed-sparse-row views of a graph.

The random-walk kernels in :mod:`repro.walks` advance probability mass one
step at a time; each step is a sparse matrix-vector product with the
row-stochastic transition matrix ``T`` (backward propagation, Eq. 5 of the
paper) or its transpose (forward propagation).  This module builds those
matrices once per graph; :class:`repro.graph.digraph.Graph` caches them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.graph.digraph import Graph


def build_transition_matrix(graph: "Graph") -> sparse.csr_matrix:
    """Row-stochastic transition matrix ``T[u, v] = p_uv`` as CSR.

    ``p_uv = w_uv / sum_{v'} w_uv'`` per Section V-A.  Rows of dangling
    nodes (no out-edges) are all zero, so walk mass parked there simply
    disappears from subsequent steps — it can never hit the target.
    """
    n = graph.num_nodes
    rows = np.empty(graph.num_edges, dtype=np.int64)
    cols = np.empty(graph.num_edges, dtype=np.int64)
    vals = np.empty(graph.num_edges, dtype=np.float64)
    idx = 0
    for u in graph.nodes():
        neighbors = graph.out_neighbors(u)
        if not neighbors:
            continue
        total = sum(neighbors.values())
        for v, w in neighbors.items():
            rows[idx] = u
            cols[idx] = v
            vals[idx] = w / total
            idx += 1
    matrix = sparse.csr_matrix(
        (vals[:idx], (rows[:idx], cols[:idx])), shape=(n, n), dtype=np.float64
    )
    matrix.sum_duplicates()
    return matrix
