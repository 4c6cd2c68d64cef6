"""A star n-way join under Personalized PageRank (the measure layer).

The paper's future work (Section VIII) asks for n-way joins over
proximity measures beyond DHT.  This example runs the same star query
twice — once under DHT, once under PPR — through one entry point
(``multi_way_join(..., measure=...)``), and checks the PPR answers
against brute force over every star.  Run with::

    python examples/ppr_star_join.py
"""

import itertools

from repro import Graph, QueryGraph, WalkEngine, multi_way_join
from repro.extensions import TruncatedPPR
from repro.walks import WalkState


def main() -> None:
    # Two friend circles bridged by node 4 (the quickstart graph).
    #
    #   0 - 1        5 - 6
    #   |   |    4   |   |
    #   2 - 3 -/  \- 7 - 8
    edges = [
        (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
        (3, 4, 1.0), (4, 7, 1.0),
        (5, 6, 1.0), (5, 7, 1.0), (6, 8, 1.0), (7, 8, 1.0),
    ]
    graph = Graph.from_undirected_edges(9, edges, labels=[
        "ana", "ben", "cal", "dee", "eve", "fay", "gus", "hal", "ivy",
    ])

    # Star query: who bridges both circles?  Centre = the bridge
    # candidates, spokes = one circle each.
    query = QueryGraph.star(2, names=["bridge", "L", "R"])
    sets = [[3, 4, 7], [0, 1, 2], [5, 6, 8]]

    for measure in ("dht", "ppr"):
        answers = multi_way_join(
            graph, query, sets, k=3, algorithm="pj", measure=measure
        )
        print(f"Top-3 star join under {measure.upper()}:")
        for rank, answer in enumerate(answers, start=1):
            names = ", ".join(graph.label(u) for u in answer.nodes)
            print(f"  {rank}. ({names})  f = {answer.score:+.4f}")
        print()
        # eve (4) sits on the bridge under either measure.
        assert answers[0].nodes[0] == 4

    # The measure-generic PJ answers equal brute force: score every
    # star (the MIN of its two spokes) from one walk of the measure's
    # kernel over every node (``h[u, v]`` scores ``u`` towards ``v``).
    ppr = TruncatedPPR()
    pj_answers = multi_way_join(
        graph, query, sets, k=3, algorithm="pj", measure=ppr
    )
    engine = WalkEngine(graph)
    walk = WalkState(engine, ppr.kernel(), list(range(9))).advance_to(ppr.d)
    h = walk.scores_matrix()
    stars = sorted(
        (-min(h[bridge, left], h[bridge, right]), (bridge, left, right))
        for bridge, left, right in itertools.product(*sets)
    )
    assert [(a.nodes, round(a.score, 10)) for a in pj_answers] == [
        (nodes, round(-negated, 10)) for negated, nodes in stars[:3]
    ]
    print("PPR PJ answers match brute force over every star.")


if __name__ == "__main__":
    main()
