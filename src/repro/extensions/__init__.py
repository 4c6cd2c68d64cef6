"""Measure layer (paper Section VIII): n-way joins beyond DHT.

:mod:`repro.extensions.measures` defines the :class:`SeriesMeasure`
contract (per-target + batched-block backward kernels, tail bounds,
cache identity) with PPR and DHT instantiations;
:mod:`repro.extensions.simrank` adds SimRank (solver, measure, oracle
joins); :mod:`repro.extensions.series_join` runs the measure-generic
2-way (``Series-B-BJ`` / ``Series-IDJ``) and n-way (``Series-AP`` /
``Series-PJ``) joins on the shared walk/bound-cache stack.
"""

from repro.extensions.measures import (
    DHTMeasure,
    SeriesYBound,
    TruncatedPPR,
    exact_ppr_to_target,
    measure_by_name,
)
from repro.extensions.series_join import (
    SeriesAllPairsJoin,
    SeriesBackwardJoin,
    SeriesIDJ,
    SeriesPartialJoin,
    make_series_context,
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
    "SeriesYBound",
    "SimRankJoin",
    "SimRankMeasure",
    "TruncatedPPR",
    "exact_ppr_to_target",
    "make_series_context",
    "measure_by_name",
    "simrank_matrix",
]
