"""The graph is its CSR arrays: every accessor against a dict reference.

:class:`~repro.graph.digraph.Graph` keeps one copy of its edges, a row
pointer plus heads, tails and weights in CSR order.  The property test
builds plain adjacency dicts (out- and in-maps, parallel edges summed in
input order) from the same edge list and compares every accessor with
them; the pin holds what the earlier dict-backed store wrote and built
on one fixed graph, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.io import write_edge_list


@st.composite
def edge_lists(draw):
    """``(n, edges)``: up to 8 nodes and 30 arcs, so parallel edges,
    isolated and dangling nodes all turn up often."""
    n = draw(st.integers(0, 8))
    if n < 2:
        return n, []
    edge = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.5, 1e-3]),
                  st.floats(1e-3, 10.0)),
    ).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(edge, max_size=30))


def reference(n, edges):
    """Out- and in-adjacency dicts, parallel weights summed in order."""
    out = [{} for _ in range(n)]
    for u, v, w in edges:
        out[u][v] = out[u].get(v, 0.0) + w
    incoming = [{} for _ in range(n)]
    for u in range(n):
        for v, w in out[u].items():
            incoming[v][u] = w
    return out, incoming


def row_total(row):
    total = 0.0
    for w in row.values():
        total += w
    return total


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.data())
@example((0, []), None)
@example((3, []), None)
@example((3, [(0, 1, 0.1), (0, 1, 0.2), (1, 0, 1.0)]), None)
def test_accessors_match_adjacency_dicts(case, data):
    n, edges = case
    g = Graph(n, edges)
    out, incoming = reference(n, edges)
    assert g.num_nodes == n
    assert g.num_edges == sum(map(len, out))
    assert list(g.edges()) == [
        (u, v, w) for u in range(n) for v, w in out[u].items()
    ]
    assert not g.indptr.flags.writeable
    assert np.diff(g.indptr).tolist() == [len(row) for row in out]
    dense = g.transition_matrix().toarray()
    for u in range(n):
        # Same pairs, and for out-neighbours the same (insertion) order.
        assert list(g.out_neighbors(u).items()) == list(out[u].items())
        assert g.in_neighbors(u) == incoming[u]
        assert g.out_degree(u) == len(out[u])
        assert g.in_degree(u) == len(incoming[u])
        assert g.is_dangling(u) == (not out[u])
        for v in range(n):
            assert g.has_edge(u, v) == (v in out[u])
            expected = out[u][v] / row_total(out[u]) if v in out[u] else 0.0
            assert g.transition_probability(u, v) == expected
            assert dense[u, v] == expected
            if v in out[u]:
                assert g.weight(u, v) == out[u][v]
            else:
                with pytest.raises(KeyError):
                    g.weight(u, v)
    degrees = np.array([len(row) for row in out], dtype=np.float64)
    assert g.degree_statistics() == {
        "num_nodes": float(n),
        "num_edges": float(g.num_edges),
        "mean_out_degree": float(degrees.mean()) if n else 0.0,
        "max_out_degree": float(degrees.max()) if n else 0.0,
        "dangling_nodes": float((degrees == 0).sum()),
    }
    if data is None or n == 0:
        return

    keep = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    sub, mapping = g.subgraph(keep)
    order = list(dict.fromkeys(keep))
    assert mapping == {old: new for new, old in enumerate(order)}
    assert list(sub.edges()) == [
        (mapping[u], mapping[v], w)
        for u in order for v, w in out[u].items() if v in mapping
    ]

    removed = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4
    ))
    gone = {(u, v) for u, v in removed} | {(v, u) for u, v in removed}
    assert list(g.without_edges(removed).edges()) == [
        (u, v, w) for u in range(n) for v, w in out[u].items()
        if (u, v) not in gone
    ]


def test_out_neighbors_is_a_copy():
    """Mutating the returned map cannot reach the graph's edges."""
    g = Graph(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)])
    before = list(g.edges())
    neighbors = g.out_neighbors(0)
    neighbors[1] = 99.0
    neighbors.pop(2)
    neighbors[0] = 5.0
    assert list(g.edges()) == before
    assert g.out_neighbors(0) == {1: 1.0, 2: 2.0}


# Written by the earlier dict-backed store (two adjacency dicts plus a
# per-edge matrix builder).  Parallel arcs 0->2 and 3->1 merge, nodes 2
# and 4 are dangling, node 6 is isolated.
PIN_EDGES = [
    (3, 1, 0.3), (0, 2, 0.1), (0, 1, 0.7), (3, 0, 1.25), (0, 2, 0.2),
    (1, 2, 2.5), (5, 3, 0.4), (1, 0, 1e-3), (3, 2, 0.3), (5, 1, 3.0),
    (0, 4, 0.45), (3, 1, 0.15),
]
PIN_EDGE_LIST = (
    "# nodes: 7\n0\t2\t0.30000000000000004\n0\t1\t0.7\n0\t4\t0.45\n"
    "1\t2\t2.5\n1\t0\t0.001\n3\t1\t0.44999999999999996\n3\t0\t1.25\n"
    "3\t2\t0.3\n5\t3\t0.4\n5\t1\t3.0\n"
)
PIN_T = (
    [0.48275862068965514, 0.20689655172413796, 0.3103448275862069,
     0.00039984006397441024, 0.9996001599360256, 0.625,
     0.22499999999999998, 0.15, 0.8823529411764706, 0.11764705882352942],
    [1, 2, 4, 0, 2, 0, 1, 2, 1, 3],
    [0, 3, 5, 5, 8, 8, 10, 10],
)
PIN_T_T = (
    [0.00039984006397441024, 0.625, 0.48275862068965514,
     0.22499999999999998, 0.8823529411764706, 0.20689655172413796,
     0.9996001599360256, 0.15, 0.11764705882352942, 0.3103448275862069],
    [1, 3, 0, 3, 5, 0, 1, 3, 5, 0],
    [0, 2, 5, 8, 9, 10, 10, 10],
)


def test_pinned_edge_list_and_transition_arrays(tmp_path):
    g = Graph(7, PIN_EDGES)
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    assert path.read_bytes() == PIN_EDGE_LIST.encode("utf-8")
    for matrix, (data, indices, indptr) in (
        (g.transition_matrix(), PIN_T),
        (g.transition_matrix_transpose(), PIN_T_T),
    ):
        assert (matrix.data.dtype, matrix.indices.dtype, matrix.indptr.dtype) == (
            np.float64, np.int32, np.int32
        )
        assert matrix.data.tolist() == data
        assert matrix.indices.tolist() == indices
        assert matrix.indptr.tolist() == indptr
