"""Answer checking: a sampled op is re-evaluated on a different code path.

Two top-``k`` lists agree when their score vectors match position by
position to ``1e-9`` and, wherever a score is *untied*, the node tuple at
that rank is identical.  Positions inside a run of equal scores may hold
their tuples in any order (the operators break ties differently only in
the last float digits), and the final position of a full list is exempt
from the tuple check because it may tie with a candidate just past the
cut-off that neither list shows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

SCORE_TOLERANCE = 1e-9

Answer = List[Tuple[Tuple[int, ...], float]]


def normalise(results: Sequence) -> Answer:
    """``[(node tuple, score)]`` from ``ScoredPair`` / ``CandidateAnswer`` rows."""
    answer: Answer = []
    for row in results:
        nodes = row.nodes if hasattr(row, "nodes") else (row.left, row.right)
        answer.append((tuple(int(u) for u in nodes), float(row.score)))
    return answer


def mismatch(got: Answer, want: Answer, k: int) -> Optional[str]:
    """Why ``got`` disagrees with ``want`` (``None`` when they agree)."""
    if len(got) != len(want):
        return f"{len(got)} answers, expected {len(want)}"
    for rank, ((_, g), (_, w)) in enumerate(zip(got, want)):
        if abs(g - w) > SCORE_TOLERANCE:
            return f"score at rank {rank}: {g!r} != {w!r}"
    scores = [score for _, score in want]
    last = len(want) - 1
    for rank, ((g_nodes, _), (w_nodes, _)) in enumerate(zip(got, want)):
        tied = (
            (rank > 0 and scores[rank - 1] - scores[rank] <= SCORE_TOLERANCE)
            or (rank < last and scores[rank] - scores[rank + 1] <= SCORE_TOLERANCE)
            or (rank == last and len(want) == k)
        )
        if not tied and g_nodes != w_nodes:
            return f"nodes at rank {rank}: {g_nodes} != {w_nodes}"
    return None
