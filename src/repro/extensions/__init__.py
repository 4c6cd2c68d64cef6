"""Measure layer (paper Section VIII): n-way joins beyond DHT.

:mod:`repro.extensions.measures` defines the :class:`SeriesMeasure`
contract (per-target + batched-block backward kernels, tail bounds,
cache identity) with PPR and DHT instantiations;
:mod:`repro.extensions.simrank` adds SimRank (solver, measure, oracle
joins); :mod:`repro.extensions.series_join` names the core operators and
executors under their measure names (``Series-B-BJ`` / ``Series-IDJ`` /
``Series-AP`` / ``Series-PJ``): a measure is a context field, so the
same joins run it.
"""

from repro.extensions.measures import (
    DHTMeasure,
    TruncatedPPR,
    exact_ppr_to_target,
    measure_by_name,
)
from repro.extensions.series_join import (
    SeriesAllPairsJoin,
    SeriesBackwardJoin,
    SeriesIDJ,
    SeriesPartialJoin,
)
from repro.extensions.simrank import (
    SimRankJoin,
    SimRankMeasure,
    simrank_matrix,
)

__all__ = [
    "DHTMeasure",
    "SeriesAllPairsJoin",
    "SeriesBackwardJoin",
    "SeriesIDJ",
    "SeriesPartialJoin",
    "SimRankJoin",
    "SimRankMeasure",
    "TruncatedPPR",
    "exact_ppr_to_target",
    "measure_by_name",
    "simrank_matrix",
]
