"""Measure layer (paper Section VIII): n-way joins beyond DHT.

:mod:`repro.extensions.measures` defines the :class:`SeriesMeasure`
contract (per-target + batched-block backward kernels, tail bounds, a
block kernel that is also the cache identity) with the PPR
instantiation, and re-exports the core's
:class:`~repro.core.dht.DHTMeasure`;
:mod:`repro.extensions.series_join` names the core operators and
executors under their measure names (``Series-B-BJ`` / ``Series-IDJ`` /
``Series-PJ``): a measure is a context field, so the same joins run it.
"""

from repro.extensions.measures import DHTMeasure, TruncatedPPR
from repro.extensions.series_join import (
    SeriesBackwardJoin,
    SeriesIDJ,
    SeriesPartialJoin,
)

__all__ = [
    "DHTMeasure",
    "SeriesBackwardJoin",
    "SeriesIDJ",
    "SeriesPartialJoin",
    "TruncatedPPR",
]
