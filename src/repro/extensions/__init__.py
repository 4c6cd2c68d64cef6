"""Measure layer (paper Section VIII): n-way joins beyond DHT.

:mod:`repro.extensions.measures` defines the :class:`SeriesMeasure`
contract (per-target + batched-block backward kernels, tail bounds,
cache identity) with PPR and DHT instantiations;
:mod:`repro.extensions.simrank` adds the SimRank measure;
:mod:`repro.extensions.series_join` names the core operators and
executors under their measure names (``Series-B-BJ`` / ``Series-IDJ`` /
``Series-PJ``): a measure is a context field, so the same joins run it.
"""

from repro.extensions.measures import (
    DHTMeasure,
    TruncatedPPR,
    measure_by_name,
)
from repro.extensions.series_join import (
    SeriesBackwardJoin,
    SeriesIDJ,
    SeriesPartialJoin,
)
from repro.extensions.simrank import SimRankMeasure

__all__ = [
    "DHTMeasure",
    "SeriesBackwardJoin",
    "SeriesIDJ",
    "SeriesPartialJoin",
    "SimRankMeasure",
    "TruncatedPPR",
    "measure_by_name",
]
