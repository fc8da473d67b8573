"""Metric primitives: counters, gauges, fixed-bucket histograms.

Everything here is designed around two constraints the simulators
impose:

* **near-zero cost when disabled** — instrument sites guard on the
  module-level flags in :mod:`repro.telemetry.runtime`, so the
  primitives themselves only pay when telemetry is on;
* **mergeable across processes** — experiment jobs run in pool
  workers, so every metric can :meth:`~MetricsRegistry.snapshot` to a
  JSON-safe dict and be re-absorbed with :meth:`~MetricsRegistry.merge`
  in the parent.  Counters and histograms merge by addition; gauges
  merge by maximum (the useful cross-worker semantics for peaks like
  queue depth).

Histograms are fixed-bucket: a sorted tuple of upper edges, one count
per bucket plus an overflow bucket, and running sum/count.  Two
histograms merge iff their edges match exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.collectors import Mergeable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Fallback histogram edges (powers of four): fine enough for counts
#: and wide enough for latencies in ns.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(labels: LabelKey) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


def _fmt(value: float) -> str:
    """Full-precision value rendering: integral values as integers
    (large counters must not round through %g), floats via repr."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value; merges across processes by maximum."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with an overflow (+Inf) bucket.

    ``edges`` are inclusive upper bounds, strictly increasing.  A value
    ``v`` lands in the first bucket whose edge satisfies ``v <= edge``,
    or in the overflow bucket past the last edge.
    """

    __slots__ = ("name", "labels", "edges", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 edges: Sequence[float] = DEFAULT_BUCKETS):
        edges = tuple(float(e) for e in edges)
        if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be non-empty and strictly increasing")
        self.name = name
        self.labels = labels
        self.edges = edges
        self.counts: List[int] = [0] * (len(edges) + 1)  # last = overflow
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket
        holding the q-th observation; +Inf bucket reports the last edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.edges[min(i, len(self.edges) - 1)]
        return self.edges[-1]


Metric = Any  # Counter | Gauge | Histogram


class MetricsRegistry(Mergeable):
    """A process-local collection of named, labeled metrics.

    Metrics are identified by ``(name, labels)``; the first touch
    creates the series, later touches return the same object.  The
    registry is intentionally not thread-safe: the simulators are
    single-threaded per process, and cross-process aggregation happens
    via :meth:`snapshot` / :meth:`merge`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: (m.name, m.labels)))

    def clear(self) -> None:
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Series accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, Any], **kwargs) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, edges: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], edges=edges or DEFAULT_BUCKETS)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already registered as {metric.kind}")
        elif edges is not None and tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(f"histogram {name!r} re-declared with different edges")
        return metric

    def get(self, name: str, **labels: Any) -> Optional[Metric]:
        """Look up an existing series without creating it."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> float:
        """Convenience: the value of a counter/gauge series (0 if absent)."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0

    def total(self, name: str) -> float:
        """Sum of a counter/gauge name across all its label sets."""
        return sum(m.value for m in self._metrics.values()
                   if m.name == name and not isinstance(m, Histogram))

    # ------------------------------------------------------------------
    # Snapshot / merge (the cross-process protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every series, stable ordering."""
        counters, gauges, histograms = [], [], []
        for metric in self:
            entry: Dict[str, Any] = {"name": metric.name, "labels": dict(metric.labels)}
            if isinstance(metric, Histogram):
                entry.update(edges=list(metric.edges), counts=list(metric.counts),
                             sum=metric.sum, count=metric.count)
                histograms.append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                gauges.append(entry)
            else:
                entry["value"] = metric.value
                counters.append(entry)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Absorb a snapshot: counters/histograms add, gauges take max."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry.get("labels", {})).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry.get("labels", {})).set_max(entry["value"])
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(entry["name"], edges=entry["edges"],
                                  **entry.get("labels", {}))
            if len(entry["counts"]) != len(hist.counts):
                raise ValueError(f"histogram {entry['name']!r} bucket count mismatch")
            for i, c in enumerate(entry["counts"]):
                hist.counts[i] += c
            hist.sum += entry["sum"]
            hist.count += entry["count"]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Delegates to :mod:`repro.telemetry.export`, the single renderer
        shared with the live ``--serve-metrics`` exporter (HELP/TYPE
        lines, name sanitization, label escaping, ``_total`` suffix).
        """
        from repro.telemetry.export import render_exposition

        return render_exposition(self)

    def render_table(self) -> str:
        """Human-readable fixed-width table (the ``repro stats`` default)."""
        rows: List[Tuple[str, str, str]] = []
        for metric in self:
            series = metric.name + _label_str(metric.labels)
            if isinstance(metric, Histogram):
                detail = (f"count={metric.count} sum={_fmt(metric.sum)} "
                          f"mean={metric.mean:.4g} p50~{metric.quantile(0.5):g} "
                          f"p99~{metric.quantile(0.99):g}")
                rows.append((series, metric.kind, detail))
            else:
                rows.append((series, metric.kind, _fmt(metric.value)))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(r[0]) for r in rows)
        kind_w = max(len(r[1]) for r in rows)
        return "\n".join(f"{name:<{width}}  {kind:<{kind_w}}  {value}"
                         for name, kind, value in rows)
