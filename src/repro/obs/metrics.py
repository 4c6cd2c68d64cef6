"""The unified metrics registry: one named, labeled snapshot surface.

Telemetry was fragmented across four counter families —
:class:`~repro.walks.engine.WalkEngineStats` (sharded engine counters),
:class:`~repro.walks.cache.WalkCacheStats` /
:class:`~repro.bounds_cache.cache.BoundCacheStats` (per-tier cache
accounting), and the service's frozen
:class:`~repro.service.stats.ServiceStats`.  A
:class:`MetricsRegistry` registers live sources from any of them and
:meth:`~MetricsRegistry.collect` renders one consistent list of
:class:`MetricSample` rows, exportable as JSON lines
(:func:`render_jsonl`) or Prometheus text (:func:`render_prometheus`).

Metric names are *generated* from the underlying counter fields (so a
new engine counter or ``ServiceStats`` field becomes a metric in the
same diff) and frozen into :data:`METRIC_NAMES`;
``tests/test_docs_consistency.py`` asserts the names documented in
``docs/OBSERVABILITY.md`` are exactly this set, so docs and code cannot
drift.

Exporter failures never propagate into query code:
:meth:`MetricsRegistry.write_snapshot` swallows and counts them.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Tuple

from repro.walks.engine import STAT_COUNTERS, STAT_PEAKS

#: WalkCacheStats counter fields surfaced per registered walk cache.
WALK_CACHE_FIELDS = ("hits", "misses", "extensions", "steps_saved",
                     "evictions")

#: BoundCacheStats counter fields surfaced per registered bound cache.
BOUND_CACHE_FIELDS = ("y_hits", "y_builds", "plan_hits", "plan_builds",
                      "x_hits", "x_builds", "evictions")

_CACHE_FIELDS = {"walk_cache": WALK_CACHE_FIELDS,
                 "bound_cache": BOUND_CACHE_FIELDS}

#: ServiceStats fields that are point-in-time gauges (everything else
#: numeric is a monotone counter).
SERVICE_GAUGES = ("in_flight", "qps", "p50_ms", "p99_ms",
                  "walk_cache_hit_rate")

_SERVICE_FIELDS = (
    "submitted", "completed", "exact", "partial", "rejected", "errors",
    "in_flight", "qps", "p50_ms", "p99_ms", "walk_cache_hits",
    "walk_cache_misses", "walk_cache_hit_rate", "bound_cache_hits",
    "plan_cache_hits", "budget_stops",
)


def _engine_metric(field: str) -> str:
    suffix = "" if field in STAT_PEAKS else "_total"
    return f"repro_engine_{field}{suffix}"


#: Every metric name the registry can emit — the docs-drift contract.
METRIC_NAMES = frozenset(
    [_engine_metric(f) for f in STAT_COUNTERS + STAT_PEAKS]
    + [
        f"repro_{tier}_{f}_total"
        for tier, fields in _CACHE_FIELDS.items() for f in fields
    ]
    + [
        f"repro_service_{f}" + ("" if f in SERVICE_GAUGES else "_total")
        for f in _SERVICE_FIELDS
    ]
)


@dataclasses.dataclass(frozen=True)
class MetricSample:
    """One named, labeled measurement at collection time."""

    name: str
    value: float
    labels: Tuple[Tuple[str, str], ...] = ()
    kind: str = "counter"  # "counter" (monotone) or "gauge"

    def label_dict(self) -> Dict[str, str]:
        """The labels as a plain dict."""
        return dict(self.labels)


def _label_tuple(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def cache_samples(
    tier: str, cache, labels: Tuple[Tuple[str, str], ...] = ()
) -> List[MetricSample]:
    """``repro_<tier>_<field>_total`` for every counter of a
    ``"walk_cache"`` / ``"bound_cache"`` tier, read off ``cache.stats``
    now."""
    stats = cache.stats
    return [
        MetricSample(
            f"repro_{tier}_{field}_total", float(getattr(stats, field)), labels
        )
        for field in _CACHE_FIELDS[tier]
    ]


class MetricsRegistry:
    """Live metric sources, snapshotted on demand.

    Sources are registered once and read at every :meth:`collect`; the
    registry holds references, never copies, so snapshots always show
    the current counters.  Collection is lock-free by design — each
    underlying stats object does its own consistent read (the engine
    snapshot merges shards under its lock; cache stats are plain ints).
    """

    def __init__(self) -> None:
        self._sources: List[Callable[[], List[MetricSample]]] = []
        self.export_errors = 0

    def register_source(
        self, source: Callable[[], List[MetricSample]]
    ) -> None:
        """Register a raw sample-producing callable."""
        self._sources.append(source)

    def register_engine(self, stats, **labels) -> None:
        """Surface a :class:`WalkEngineStats` (counters + peak gauge)."""
        label_t = _label_tuple(labels)

        def source() -> List[MetricSample]:
            merged = stats.snapshot()
            return [
                MetricSample(
                    _engine_metric(field),
                    float(merged[field]),
                    label_t,
                    kind="gauge" if field in STAT_PEAKS else "counter",
                )
                for field in STAT_COUNTERS + STAT_PEAKS
            ]

        self._sources.append(source)

    def register_walk_cache(self, cache, **labels) -> None:
        """Surface a :class:`WalkCache`'s hit/miss/spill counters."""
        label_t = _label_tuple(labels)
        self._sources.append(lambda: cache_samples("walk_cache", cache, label_t))

    def register_bound_cache(self, cache, **labels) -> None:
        """Surface a :class:`BoundPlanCache`'s build/hit counters."""
        label_t = _label_tuple(labels)
        self._sources.append(lambda: cache_samples("bound_cache", cache, label_t))

    def register_service(self, service, **labels) -> None:
        """Surface a :class:`QueryService` via its ``stats()`` snapshot."""
        label_t = _label_tuple(labels)

        def source() -> List[MetricSample]:
            snapshot = service.stats()
            samples = []
            for field in _SERVICE_FIELDS:
                gauge = field in SERVICE_GAUGES
                samples.append(MetricSample(
                    f"repro_service_{field}" + ("" if gauge else "_total"),
                    float(getattr(snapshot, field)),
                    label_t,
                    kind="gauge" if gauge else "counter",
                ))
            return samples

        self._sources.append(source)

    def collect(self) -> List[MetricSample]:
        """One snapshot across every registered source."""
        samples: List[MetricSample] = []
        for source in self._sources:
            samples.extend(source())
        return samples

    def write_snapshot(self, path: str) -> bool:
        """Append one snapshot to ``path`` (never raises).

        The format follows the extension: ``.prom`` gets a full
        Prometheus text exposition (truncating, as scrape endpoints
        overwrite), anything else appends one JSON line.  Returns
        ``True`` on success; failures are counted in
        :attr:`export_errors` and swallowed — an unwritable metrics
        file must never change query results.
        """
        try:
            samples = self.collect()
            if path.endswith(".prom"):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(render_prometheus(samples))
            else:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(render_jsonl(samples))
                    fh.write("\n")
        except Exception:
            self.export_errors += 1
            return False
        return True


def render_jsonl(samples: List[MetricSample]) -> str:
    """One JSON object per snapshot: ``{"ts": ..., "metrics": [...]}``."""
    return json.dumps(
        {
            "ts": time.time(),
            "metrics": [
                {
                    "name": s.name,
                    "value": s.value,
                    "labels": s.label_dict(),
                    "kind": s.kind,
                }
                for s in samples
            ],
        },
        sort_keys=True,
    )


def render_prometheus(samples: List[MetricSample]) -> str:
    """Prometheus text exposition format (one ``# TYPE`` per name)."""
    lines: List[str] = []
    seen_types = set()
    for sample in samples:
        if sample.name not in seen_types:
            seen_types.add(sample.name)
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if sample.labels:
            label_text = ",".join(
                f'{k}="{v}"' for k, v in sample.labels
            )
            lines.append(f"{sample.name}{{{label_text}}} {sample.value:g}")
        else:
            lines.append(f"{sample.name} {sample.value:g}")
    return "\n".join(lines) + "\n"
