"""Directed, weighted graph store used by every other subsystem.

The paper (Section III-A) assumes a directed weighted graph ``G`` stored as
an adjacency list, so that the out-neighbours (and their transition
probabilities) of a node can be enumerated quickly.  :class:`Graph` keeps
that adjacency-list view and additionally exposes compressed sparse row
(CSR) transition matrices for the vectorised random-walk kernels in
:mod:`repro.walks`.

Nodes are dense integer ids ``0 .. num_nodes - 1``; an optional label table
maps ids to human-readable names (author names, protein ids, ...).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
        "_out_adj",
        "_in_adj",
        "_out_weight_sum",
        "_labels",
        "_label_index",
        "_num_edges",
        "_csr_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if num_nodes < 0:
            raise GraphValidationError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        merged = validate_edges(self._num_nodes, edges)
        self._out_adj: List[Dict[int, float]] = [dict() for _ in range(self._num_nodes)]
        self._in_adj: List[Dict[int, float]] = [dict() for _ in range(self._num_nodes)]
        for (u, v), w in merged.items():
            self._out_adj[u][v] = w
            self._in_adj[v][u] = w
        self._num_edges = len(merged)
        if merged:
            heads = np.fromiter(
                (uv[0] for uv in merged), dtype=np.int64, count=len(merged)
            )
            weights = np.fromiter(
                merged.values(), dtype=np.float64, count=len(merged)
            )
            self._out_weight_sum = np.bincount(
                heads, weights=weights, minlength=self._num_nodes
            )
        else:
            self._out_weight_sum = np.zeros(self._num_nodes, dtype=np.float64)
        if labels is not None:
            labels = list(labels)
            if len(labels) != self._num_nodes:
                raise GraphValidationError(
                    f"labels has {len(labels)} entries for {self._num_nodes} nodes"
                )
        self._labels: Optional[List[str]] = labels
        self._label_index: Optional[Dict[str, int]] = None
        self._csr_cache: dict = {}

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
        return self._num_edges

    def nodes(self) -> range:
        """All node ids."""
        return range(self._num_nodes)

    def has_node(self, u: int) -> bool:
        """Whether ``u`` is a valid node id."""
        return 0 <= u < self._num_nodes

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists."""
        return self.has_node(u) and v in self._out_adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all ``(u, v, weight)`` arcs."""
        for u in range(self._num_nodes):
            for v, w in self._out_adj[u].items():
                yield (u, v, w)

    def out_neighbors(self, u: int) -> Dict[int, float]:
        """Out-neighbour map ``{v: weight}`` of ``u`` (``O_u`` in the paper)."""
        self._check_node(u)
        return self._out_adj[u]

    def in_neighbors(self, u: int) -> Dict[int, float]:
        """In-neighbour map ``{v: weight}`` of ``u`` (``I_u`` in the paper)."""
        self._check_node(u)
        return self._in_adj[u]

    def out_degree(self, u: int) -> int:
        """Number of out-neighbours of ``u``."""
        self._check_node(u)
        return len(self._out_adj[u])

    def in_degree(self, u: int) -> int:
        """Number of in-neighbours of ``u``."""
        self._check_node(u)
        return len(self._in_adj[u])

    def weight(self, u: int, v: int) -> float:
        """Weight ``w_uv`` of edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_node(u)
        return self._out_adj[u][v]

    def transition_probability(self, u: int, v: int) -> float:
        """Transition probability ``p_uv = w_uv / sum_{v'} w_uv'``.

        Returns 0.0 when the edge does not exist.  Raises
        ``ZeroDivisionError``-free: dangling ``u`` simply yields 0.0.
        """
        self._check_node(u)
        self._check_node(v)
        w = self._out_adj[u].get(v)
        if w is None:
            return 0.0
        total = self._out_weight_sum[u]
        return w / total if total > 0 else 0.0

    def is_dangling(self, u: int) -> bool:
        """Whether ``u`` has no out-edges (walker gets stuck there)."""
        self._check_node(u)
        return not self._out_adj[u]

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
        cached = self._csr_cache.get(key)
        if cached is None:
            cached = self._csr_cache.setdefault(key, build())
        return cached

    def transition_matrix(self):
        """Row-stochastic transition matrix ``T`` as ``scipy.sparse.csr_matrix``.

        ``T[u, v] = p_uv``.  Rows of dangling nodes are all zero.
        """
        from repro.graph.csr import build_transition_matrix

        return self.memoized("T", lambda: build_transition_matrix(self))

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
            for v, w in self._out_adj[u].items()
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
        out_degrees = np.array([len(a) for a in self._out_adj], dtype=np.float64)
        return {
            "num_nodes": float(self._num_nodes),
            "num_edges": float(self._num_edges),
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
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self._num_edges})"
