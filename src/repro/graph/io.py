"""Reading and writing graphs and node sets.

Formats are deliberately plain so that generated datasets can be inspected
and re-used outside this library:

* **Edge list** (TSV): ``u<TAB>v<TAB>weight`` per line, ``#`` comments,
  with a mandatory ``# nodes: N`` header so isolated nodes survive a
  round trip.
* **Node sets** (JSON): ``{"set name": [node ids...]}``.
* **Labels** (TSV): ``id<TAB>label``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError, node_ids

PathLike = Union[str, Path]

_NODES_HEADER = "# nodes:"


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write the graph as a TSV edge list with a node-count header."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{_NODES_HEADER} {graph.num_nodes}\n")
        for u, v, w in graph.edges():
            fh.write(f"{u}\t{v}\t{w!r}\n")


def read_edge_list(path: PathLike, labels: Optional[Sequence[str]] = None) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Raises
    ------
    GraphValidationError
        If the node-count header is missing or a line is malformed.
    """
    path = Path(path)
    num_nodes: Optional[int] = None
    edges = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(_NODES_HEADER):
                num_nodes = int(line[len(_NODES_HEADER) :].strip())
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise GraphValidationError(
                    f"{path}:{line_no}: expected 'u<TAB>v[<TAB>w]', got {line!r}"
                )
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            edges.append((u, v, w))
    if num_nodes is None:
        raise GraphValidationError(f"{path}: missing '{_NODES_HEADER} N' header")
    return Graph(num_nodes, edges, labels=labels)


def write_node_sets(node_sets: Dict[str, Sequence[int]], path: PathLike) -> None:
    """Write named node sets as JSON."""
    path = Path(path)
    serialisable = {name: [int(u) for u in nodes] for name, nodes in node_sets.items()}
    path.write_text(json.dumps(serialisable, indent=2), encoding="utf-8")


def read_node_sets(path: PathLike) -> Dict[str, List[int]]:
    """Read node sets written by :func:`write_node_sets`; ids go through
    the requests' :func:`~repro.graph.validation.node_ids` check."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise GraphValidationError(f"{path}: expected a JSON object of node sets")
    try:
        return {str(name): list(node_ids(nodes)) for name, nodes in data.items()}
    except GraphValidationError as exc:
        raise GraphValidationError(f"{path}: {exc}") from None


def write_labels(labels: Sequence[str], path: PathLike) -> None:
    """Write node labels as ``id<TAB>label`` lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i, label in enumerate(labels):
            fh.write(f"{i}\t{label}\n")


def read_labels(path: PathLike) -> List[str]:
    """Read labels written by :func:`write_labels` (ids must be dense)."""
    path = Path(path)
    entries: Dict[int, str] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            idx, _, label = line.partition("\t")
            entries[int(idx)] = label
    if set(entries) != set(range(len(entries))):
        raise GraphValidationError(f"{path}: label ids are not dense 0..n-1")
    return [entries[i] for i in range(len(entries))]
