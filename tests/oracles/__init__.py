"""The one independent oracle for every join in the repo.

The paper's 2-way algorithms and its n-way strategies are all defined to
return the same top-k, so one brute-force answer checks them all: dense
matrix-power scores (:mod:`oracles.measures` — DHT first hits, truncated
PPR, SimRank iterates) ranked by exhaustive enumeration
(:mod:`oracles.joins`).  Small graphs only.

Independence is the point: this package imports numpy, the standard
library and :mod:`repro.graph` (the data it scores) and nothing else of
``repro`` — ``tests/test_oracles.py`` enforces that on the import
statements, so an oracle can never agree with a join by sharing its
code.
"""

from oracles.joins import (
    ATOL,
    as_ranked,
    assert_top_k,
    rank_answers,
    rank_pairs,
)
from oracles.measures import (
    dht_scores,
    exact_dht_to_target,
    exact_ppr,
    first_hit_series,
    in_weight_matrix,
    ppr_scores,
    scores_for,
    simrank_scores,
    simulate_first_hit_series,
    transition_matrix,
)

__all__ = [
    "ATOL",
    "as_ranked",
    "assert_top_k",
    "dht_scores",
    "exact_dht_to_target",
    "exact_ppr",
    "first_hit_series",
    "in_weight_matrix",
    "ppr_scores",
    "rank_answers",
    "rank_pairs",
    "scores_for",
    "simrank_scores",
    "simulate_first_hit_series",
    "transition_matrix",
]
