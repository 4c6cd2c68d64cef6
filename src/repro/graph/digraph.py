"""Directed, weighted graph store used by every other subsystem.

The paper (Section III-A) assumes a directed weighted graph ``G`` stored as
an adjacency list, so that the out-neighbours (and their transition
probabilities) of a node can be enumerated quickly.  :class:`Graph` stores
exactly that list as compressed sparse rows (CSR): one row pointer plus
the heads, tails and weights of every edge, each row keeping its edges in
first-appearance order.  Those four read-only arrays are the graph's only
copy of its edges: the accessors read them, and the row-stochastic
transition matrix ``T`` (and its transpose) that the random-walk kernels
in :mod:`repro.walks` multiply by is built from them without a Python
loop over the edges.

Nodes are dense integer ids ``0 .. num_nodes - 1``; an optional label table
maps ids to human-readable names (author names, protein ids, ...).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.graph.validation import GraphValidationError, validate_edges

Edge = Tuple[int, int, float]


class Graph:
    """A directed, weighted graph with dense integer node ids.

    Parameters
    ----------
    num_nodes:
        Number of nodes; ids are ``0 .. num_nodes - 1``.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Weights must be positive.
        Parallel edges are merged by summing their weights (the DBLP
        convention: the weight of a co-authorship edge is the number of
        joint papers).
    labels:
        Optional sequence of ``num_nodes`` display labels.

    Notes
    -----
    The transition probability of edge ``(u, v)`` is
    ``w_uv / sum_{v'} w_uv'`` (Section V-A).  Nodes with no out-edges have
    an all-zero transition row: a walker there is stuck and contributes
    nothing to any hitting probability, which is the conservative
    interpretation used throughout.
    """

    __slots__ = (
        "_num_nodes",
        "_indptr",
        "_heads",
        "_tails",
        "_weights",
        "_out_weight_sum",
        "_labels",
        "_label_index",
        "_memo",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if num_nodes < 0:
            raise GraphValidationError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = n = int(num_nodes)
        merged = validate_edges(n, edges)
        m = len(merged)
        pairs = np.fromiter(
            chain.from_iterable(merged), dtype=np.int64, count=2 * m
        ).reshape(m, 2)
        # A stable sort by head keeps each row in first-appearance order.
        order = np.argsort(pairs[:, 0], kind="stable")
        self._heads = _frozen(pairs[order, 0])
        self._tails = _frozen(pairs[order, 1])
        self._weights = _frozen(
            np.fromiter(merged.values(), dtype=np.float64, count=m)[order]
        )
        self._indptr = _frozen(
            np.concatenate(([0], np.cumsum(np.bincount(self._heads, minlength=n))))
        )
        self._out_weight_sum = _frozen(
            np.bincount(self._heads, weights=self._weights, minlength=n)
        )
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise GraphValidationError(
                    f"labels has {len(labels)} entries for {n} nodes"
                )
        self._labels: Optional[List[str]] = labels
        self._label_index: Optional[Dict[str, int]] = None
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_undirected_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int, float]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph where every undirected edge becomes two arcs.

        The paper's DBLP/Yeast/YouTube graphs are all undirected; DHT is
        computed on the symmetrised directed version.
        """
        directed: List[Edge] = []
        for u, v, w in edges:
            directed.append((u, v, w))
            if u != v:
                directed.append((v, u, w))
        return cls(num_nodes, directed, labels=labels)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges (after parallel-edge merging)."""
        return len(self._tails)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer: ``u``'s out-edges are positions
        ``indptr[u] .. indptr[u + 1]``, so ``np.diff(indptr)`` is the
        out-degree array.  Read-only."""
        return self._indptr

    def nodes(self) -> range:
        """All node ids."""
        return range(self._num_nodes)

    def has_node(self, u: int) -> bool:
        """Whether ``u`` is a valid node id."""
        return 0 <= u < self._num_nodes

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists."""
        return self.has_node(u) and self._position(u, v) >= 0

    def edges(self) -> Iterator[Edge]:
        """Iterate over all ``(u, v, weight)`` arcs, row by row."""
        for u in range(self._num_nodes):
            for v, w in self._row(u):
                yield (u, v, w)

    def out_neighbors(self, u: int) -> Dict[int, float]:
        """Out-neighbour map ``{v: weight}`` of ``u`` (``O_u`` in the paper),
        a fresh dict in first-appearance order."""
        self._check_node(u)
        return dict(self._row(u))

    def in_neighbors(self, u: int) -> Dict[int, float]:
        """In-neighbour map ``{v: weight}`` of ``u`` (``I_u`` in the paper),
        read off ``T^T``'s row ``u``, so in source-id order."""
        self._check_node(u)
        transpose = self.transition_matrix_transpose()
        sources = transpose.indices[transpose.indptr[u]:transpose.indptr[u + 1]]
        return {v: self.weight(v, u) for v in sources.tolist()}

    def out_degree(self, u: int) -> int:
        """Number of out-neighbours of ``u``."""
        self._check_node(u)
        return int(self._indptr[u + 1] - self._indptr[u])

    def in_degree(self, u: int) -> int:
        """Number of in-neighbours of ``u``."""
        self._check_node(u)
        indptr = self.transition_matrix_transpose().indptr
        return int(indptr[u + 1] - indptr[u])

    def weight(self, u: int, v: int) -> float:
        """Weight ``w_uv`` of edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_node(u)
        i = self._position(u, v)
        if i < 0:
            raise KeyError(v)
        return float(self._weights[i])

    def transition_probability(self, u: int, v: int) -> float:
        """Transition probability ``p_uv = w_uv / sum_{v'} w_uv'``.

        Returns 0.0 when the edge does not exist (so always for a
        dangling ``u``).
        """
        self._check_node(u)
        self._check_node(v)
        i = self._position(u, v)
        if i < 0:
            return 0.0
        return float(self._weights[i]) / self._out_weight_sum[u]

    def is_dangling(self, u: int) -> bool:
        """Whether ``u`` has no out-edges (walker gets stuck there)."""
        self._check_node(u)
        return bool(self._indptr[u] == self._indptr[u + 1])

    def _row(self, u: int) -> Iterator[Tuple[int, float]]:
        """``(v, w_uv)`` over ``u``'s out-edges, in first-appearance order."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return zip(self._tails[lo:hi].tolist(), self._weights[lo:hi].tolist())

    def _position(self, u: int, v: int) -> int:
        """Index of edge ``(u, v)`` in the CSR arrays, or -1."""
        lo = self._indptr[u]
        hits = np.flatnonzero(self._tails[lo:self._indptr[u + 1]] == v)
        return int(lo + hits[0]) if hits.size else -1

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    @property
    def has_labels(self) -> bool:
        """Whether a label table is attached."""
        return self._labels is not None

    def label(self, u: int) -> str:
        """Display label of node ``u`` (falls back to ``str(u)``)."""
        self._check_node(u)
        if self._labels is None:
            return str(u)
        return self._labels[u]

    def node_by_label(self, label: str) -> int:
        """Node id for ``label``; raises ``KeyError`` if unknown."""
        if self._labels is None:
            raise KeyError(f"graph has no labels (looked up {label!r})")
        if self._label_index is None:
            self._label_index = {name: i for i, name in enumerate(self._labels)}
        return self._label_index[label]

    # ------------------------------------------------------------------
    # Matrix views (built lazily, cached)
    # ------------------------------------------------------------------

    def memoized(self, key: str, build):
        """``build()``, computed once per graph and kept under ``key``.

        For immutable artifacts that are a function of the graph alone
        (the CSR views below, the planner's degree statistics).  Safe to
        call from concurrent queries: two racing first calls may both
        build, but ``setdefault`` publishes one result and every caller
        gets that same object.
        """
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo.setdefault(key, build())
        return cached

    def transition_matrix(self) -> sparse.csr_matrix:
        """Row-stochastic transition matrix ``T`` as ``scipy.sparse.csr_matrix``.

        ``T[u, v] = p_uv`` per Section V-A, with sorted column indices.
        Rows of dangling nodes are all zero, so walk mass parked there
        simply disappears from subsequent steps — it can never hit the
        target.
        """
        return self.memoized("T", self._build_transition_matrix)

    def _build_transition_matrix(self) -> sparse.csr_matrix:
        n = self._num_nodes
        probabilities = self._weights / self._out_weight_sum[self._heads]
        matrix = sparse.csr_matrix(
            (probabilities, self._tails, self._indptr), shape=(n, n), copy=True
        )
        matrix.sort_indices()
        return matrix

    def transition_matrix_transpose(self):
        """``T^T`` as CSR, used by forward propagation kernels."""
        return self.memoized(
            "T_t", lambda: self.transition_matrix().transpose().tocsr()
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, keep: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``keep``.

        Returns the new graph (nodes re-indexed densely in the order of
        ``keep``) and the old-id -> new-id mapping.
        """
        keep = list(dict.fromkeys(keep))  # dedupe, preserve order
        mapping = {old: new for new, old in enumerate(keep)}
        edges = [
            (mapping[u], mapping[v], w)
            for u in keep
            for v, w in self.out_neighbors(u).items()
            if v in mapping
        ]
        labels = [self.label(u) for u in keep] if self._labels is not None else None
        return Graph(len(keep), edges, labels=labels), mapping

    def without_edges(self, removed: Iterable[Tuple[int, int]]) -> "Graph":
        """Copy of the graph with the given *undirected* pairs removed.

        Used to derive link-prediction test graphs (Section VII-B): both
        arcs ``(u, v)`` and ``(v, u)`` are dropped.
        """
        removed_set = set()
        for u, v in removed:
            removed_set.add((u, v))
            removed_set.add((v, u))
        edges = [(u, v, w) for u, v, w in self.edges() if (u, v) not in removed_set]
        return Graph(self._num_nodes, edges, labels=self._labels)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def degree_statistics(self) -> Dict[str, float]:
        """Summary statistics used by dataset generators and docs."""
        out_degrees = np.diff(self._indptr).astype(np.float64)
        return {
            "num_nodes": float(self._num_nodes),
            "num_edges": float(self.num_edges),
            "mean_out_degree": float(out_degrees.mean()) if self._num_nodes else 0.0,
            "max_out_degree": float(out_degrees.max()) if self._num_nodes else 0.0,
            "dangling_nodes": float((out_degrees == 0).sum()),
        }

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._num_nodes):
            raise GraphValidationError(
                f"node id {u} out of range [0, {self._num_nodes})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
