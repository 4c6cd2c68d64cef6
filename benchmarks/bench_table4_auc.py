"""Table IV: AUC for link prediction and 3-clique prediction on all
three datasets.

Link prediction reuses the Fig. 6(a) protocol.  3-clique prediction
(Section VII-B.3): remove one random edge from each cross-set 3-clique,
rank all candidate triples with a bidirectional-triangle aggregate on
the damaged graph, and measure how well the damaged cliques are
recovered.

Clique node sets: Yeast uses partitions 3-U / 5-F / 8-D; DBLP uses the
three research areas; YouTube uses three interest groups.  Sets are
truncated (the candidate space is |P||Q||R| triples) — sizes are printed
with the results.
"""

from __future__ import annotations

import pytest

from _harness import dblp, register_reporter, yeast, youtube_small
from repro.datasets.splits import (
    enumerate_cross_cliques,
    remove_edge_per_clique,
    remove_random_cross_edges,
)
from repro.eval.clique_prediction import evaluate_clique_prediction
from repro.eval.link_prediction import evaluate_link_prediction

_link_auc = {}
_clique_auc = {}

CLIQUE_SET_SIZE = 40


def _clique_sets(name):
    """Three node sets per dataset, chosen to actually contain cliques."""
    if name == "yeast":
        data = yeast()
        graph = data.graph
        sets = (
            data.partitions["3-U"],
            data.partitions["5-F"],
            data.partitions["8-D"],
        )
    elif name == "dblp":
        data = dblp()
        graph = data.graph
        sets = (
            data.areas["DB"],
            data.areas["AI"],
            data.areas["SYS"],
        )
    else:
        data = youtube_small()
        graph = data.graph
        sets = (data.group(1), data.group(5), data.group(8))
    # Keep nodes that participate in cross-set cliques first, so the
    # truncated sets still contain positives.
    cliques = enumerate_cross_cliques(graph, *sets)
    involved = [set(), set(), set()]
    for p, q, r in cliques:
        involved[0].add(p)
        involved[1].add(q)
        involved[2].add(r)
    final = []
    for full, part in zip(sets, involved):
        ordered = sorted(part) + [u for u in full if u not in part]
        final.append(ordered[:CLIQUE_SET_SIZE])
    return graph, final


@pytest.mark.parametrize("name", ["yeast", "dblp", "youtube"])
def test_table4_link_prediction(benchmark, name):
    if name == "yeast":
        data = yeast()
        graph = data.graph
        left, right = data.largest_pair
        split = remove_random_cross_edges(graph, left, right, 0.5, seed=42)
        test_graph = split.test_graph
    elif name == "dblp":
        data = dblp()
        graph = data.graph
        left, right = data.areas["DB"], data.areas["AI"]
        test_graph = data.snapshot_before(2010)
    else:
        data = youtube_small()
        graph = data.graph
        left, right = data.group(1), data.group(5)
        split = remove_random_cross_edges(graph, left, right, 0.5, seed=42)
        test_graph = split.test_graph
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(graph, test_graph, left, right),
        rounds=1, iterations=1,
    )
    _link_auc[name] = result.auc
    assert result.auc > 0.5


@pytest.mark.parametrize("name", ["yeast", "dblp", "youtube"])
def test_table4_clique_prediction(benchmark, name):
    graph, (set_p, set_q, set_r) = _clique_sets(name)
    split = remove_edge_per_clique(graph, set_p, set_q, set_r, seed=42)
    result = benchmark.pedantic(
        lambda: evaluate_clique_prediction(
            graph, split.test_graph, set_p, set_q, set_r
        ),
        rounds=1, iterations=1,
    )
    _clique_auc[name] = result.auc
    assert result.auc > 0.5


@register_reporter
def report():
    paper = {
        "yeast": (0.9453, 0.9536),
        "dblp": (0.9222, 0.9998),
        "youtube": (0.9544, 0.9609),
    }
    print("== Table IV: AUC for link- and 3-clique prediction ==")
    print(f"{'dataset':>10} | {'link (ours)':>12} | {'link (paper)':>12} | "
          f"{'clique (ours)':>13} | {'clique (paper)':>14}")
    print("-" * 74)
    for name in ("yeast", "dblp", "youtube"):
        link = _link_auc.get(name)
        clique = _clique_auc.get(name)
        link_s = f"{link:12.4f}" if link is not None else "          --"
        clique_s = f"{clique:13.4f}" if clique is not None else "           --"
        print(
            f"{name:>10} | {link_s} | {paper[name][0]:12.4f} | "
            f"{clique_s} | {paper[name][1]:14.4f}"
        )
