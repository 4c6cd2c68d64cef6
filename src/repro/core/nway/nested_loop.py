"""The Nested Loop baseline ``NL`` (Section III-B, solution 1).

Enumerates the full cross product ``R_1 x ... x R_n`` and, for every
candidate answer, computes a fresh DHT score for every query edge with a
forward walk — no sharing, no pruning.  This is the paper's strawman: it
is exponential in ``n`` and repeats identical DHT computations across
tuples, which is exactly why it "cannot complete in a reasonable time" at
``n >= 3`` (Fig. 7(a)).
"""

from __future__ import annotations

import itertools
from typing import List

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.spec import NWayJoinSpec


class NestedLoopJoin:
    """``NL``: exhaustive enumeration with per-tuple DHT evaluation.

    Built like every n-way executor, ``cls(spec, m=m, plan=plan)``; ``m``
    is unused, ``plan`` (or ``spec.plan``) must be ``"fixed"``, and with
    no threshold state ``reasons`` / ``intervals`` stay empty.
    """

    name = "NL"

    def __init__(self, spec: NWayJoinSpec, m: int = 50, plan=None) -> None:
        if (spec.plan if plan is None else plan) != "fixed":
            spec.resolve_plan("nl", plan=plan)  # the planner rejects NL
        self._spec = spec
        self.tuples_scored = 0
        self.dht_computations = 0
        self.reasons: List[str] = []
        self.intervals: dict = {}

    def run(self) -> List[CandidateAnswer]:
        """Enumerate, score, sort, and return the top-``k`` answers.

        Tuples in which some query edge would relate a node to itself are
        skipped (reflexive DHT is not a similarity; the fast algorithms
        exclude these pairs too).
        """
        spec = self._spec
        if spec.k == 0:
            return []
        edges = spec.query_graph.edges
        answers: List[CandidateAnswer] = []
        for nodes in itertools.product(*spec.node_sets):
            if any(nodes[i] == nodes[j] for i, j in edges):
                continue
            edge_scores = tuple(
                self._pair_score(nodes[i], nodes[j]) for i, j in edges
            )
            self.tuples_scored += 1
            answers.append(
                CandidateAnswer(tuple(nodes), spec.aggregate(edge_scores), edge_scores)
            )
        answers.sort(key=lambda a: (-a.score, a.nodes))
        return answers[: spec.k]

    def _pair_score(self, source: int, target: int) -> float:
        spec = self._spec
        series = spec.engine.forward_first_hit_series(source, target, spec.d)
        self.dht_computations += 1
        return spec.measure.params.score_from_series(series)
