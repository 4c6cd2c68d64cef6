"""Brute-force top-k by exhaustive enumeration, and the comparison rule.

Answers are ranked by ``(-score, nodes)``: descending score, ties by
the node tuple — the documented order every join returns.  A join
computes its scores in a different summation order than the dense
oracle, so two answers the oracle ties may come back in either order;
:func:`assert_top_k` therefore compares scores position by position and
each returned tuple by lookup in the oracle's full ranking.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

#: One ranked answer: the node tuple and its score.
Ranked = Tuple[Hashable, float]

ATOL = 1e-12


def rank_pairs(
    scores: np.ndarray, left: Sequence[int], right: Sequence[int],
    k: Optional[int] = None,
) -> List[Ranked]:
    """Every non-reflexive ``((p, q), scores[p, q])``, ranked; the first
    ``k`` (``None``: all of them)."""
    ranked = [
        ((p, q), float(scores[p, q]))
        for p in left for q in right if p != q
    ]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def rank_answers(
    edge_scores: Sequence[np.ndarray],
    node_sets: Sequence[Sequence[int]],
    edges: Sequence[Tuple[int, int]],
    aggregate: Callable[[Sequence[float]], float] = min,
    k: Optional[int] = None,
) -> List[Tuple[Tuple[int, ...], float, Tuple[float, ...]]]:
    """Every n-way answer as ``(nodes, aggregate score, edge scores)``,
    ranked; the first ``k`` (``None``: all of them).

    ``edge_scores[e][u, v]`` scores query edge ``e = (i, j)`` with
    ``u = nodes[i]`` and ``v = nodes[j]``; a tuple in which some query
    edge would relate a node to itself is not an answer.
    """
    answers = []
    for nodes in itertools.product(*node_sets):
        if any(nodes[i] == nodes[j] for i, j in edges):
            continue
        per_edge = tuple(
            float(edge_scores[e][nodes[i], nodes[j]])
            for e, (i, j) in enumerate(edges)
        )
        answers.append((tuple(nodes), float(aggregate(per_edge)), per_edge))
    answers.sort(key=lambda answer: (-answer[1], answer[0]))
    return answers[:k]


def as_ranked(results) -> List[Ranked]:
    """A join's results — ``(left, right, score)`` pairs or answers with
    ``nodes`` / ``score`` — as ``(nodes, score)`` items, in order."""
    return [
        (tuple(r.nodes), r.score) if hasattr(r, "nodes") else ((r[0], r[1]), r[2])
        for r in results
    ]


def assert_top_k(
    got: Sequence[Ranked], ranking: Sequence[Ranked], k: int,
    atol: float = ATOL,
) -> None:
    """``got`` is a correct top-``k`` of the oracle's full ``ranking``.

    It holds ``min(k, len(ranking))`` distinct answers, its scores match
    the ranking's position by position, and every answer carries the
    oracle's score for that answer — all within ``atol``.
    """
    expected = list(ranking[:k])
    assert len(got) == len(expected), (len(got), len(expected))
    keys = [key for key, _ in got]
    assert len(set(keys)) == len(keys), "duplicate answers"
    got_scores = np.array([score for _, score in got], dtype=np.float64)
    want_scores = np.array([score for _, score in expected], dtype=np.float64)
    assert np.allclose(got_scores, want_scores, rtol=0.0, atol=atol), (
        np.max(np.abs(got_scores - want_scores)) if got else None
    )
    lookup = dict(ranking)
    for key, score in got:
        assert key in lookup, f"{key} is not an answer"
        assert abs(score - lookup[key]) <= atol, (key, score, lookup[key])
