"""Process-global telemetry state and the hot-path guard flags.

Instrumented simulator code imports this module once and guards every
metric/trace touch on the two module globals::

    from repro.telemetry import runtime as telem

    if telem.metrics_on:
        telem.counter("dram_activations_total", bank=self.index).inc()
    if telem.trace_on:
        telem.trace("activate", t=time, bank=self.index, row=row)

When telemetry is disabled (the default) each site costs exactly one
module-attribute read and a falsy branch — the "near-zero when off"
contract the overhead benchmark enforces.

The per-job collector kinds — metrics, spans, physics — are one table,
:data:`COLLECTORS` (see :mod:`repro.telemetry.collectors`); the
``enable_*``/``disable_*``/``get_*``/``swap_*`` switches below are its
rows' methods.

This module imports only the telemetry package, never the simulator,
so any simulator layer can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.telemetry import events as _events
from repro.telemetry import physics as _physics
from repro.telemetry.collectors import Collector, Sink
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanProfile, SpanProfiler, span_name
from repro.telemetry.trace import TraceRecorder

__all__ = [
    "metrics_on",
    "trace_on",
    "spans_on",
    "enable_metrics",
    "disable_metrics",
    "enable_tracing",
    "disable_tracing",
    "enable_profiling",
    "disable_profiling",
    "disable_all",
    "get_registry",
    "swap_registry",
    "get_tracer",
    "swap_tracer",
    "get_profiler",
    "swap_profiler",
    "counter",
    "gauge",
    "histogram",
    "trace",
    "span",
    "profiled",
    "COLLECTORS",
]

#: Hot-path guards. Read directly (``telem.metrics_on``) by instrument
#: sites; mutate only through the enable/disable helpers below.
metrics_on: bool = False
trace_on: bool = False
spans_on: bool = False

_registry = MetricsRegistry()
_tracer = TraceRecorder()
_profiler = SpanProfiler()

#: Distinguishes "argument not passed" from an explicit ``None``.
_UNSET: Any = object()


# ----------------------------------------------------------------------
# Switches and current sinks
# ----------------------------------------------------------------------
#: A job's registry streams when live streaming is armed, so instrument
#: touches double as worker heartbeats.
METRICS = Collector("metrics", globals(), "metrics_on", "_registry",
                    MetricsRegistry, merged=MetricsRegistry, seeded=True,
                    job_sink=_events.job_registry,
                    summary=lambda registry: f"{len(registry)} series")
#: Spans time the host, so a cached result is not expected to carry one.
PROFILE = Collector("profile", globals(), "spans_on", "_profiler",
                    SpanProfiler, merged=SpanProfile, seeded=False)
COLLECTORS: Dict[str, Collector] = {
    kind.name: kind for kind in (METRICS, PROFILE, _physics.PHYSICS)}

#: The event tracer is a sink too, though not a per-job collector.
TRACE = Sink(globals(), "trace_on", "_tracer", TraceRecorder)

enable_metrics, disable_metrics = METRICS.enable, METRICS.disable
get_registry, swap_registry = METRICS.get, METRICS.swap
enable_profiling, disable_profiling = PROFILE.enable, PROFILE.disable
get_profiler, swap_profiler = PROFILE.get, PROFILE.swap
disable_tracing, get_tracer, swap_tracer = TRACE.disable, TRACE.get, TRACE.swap


def enable_tracing(capacity: Optional[int] = None,
                   spill_path: Any = _UNSET,
                   fresh: bool = False) -> TraceRecorder:
    """Turn event tracing on, optionally rebuilding the recorder.

    The recorder is rebuilt (with an empty buffer) when ``fresh`` is
    set or when any field is passed; fields *not* passed carry over
    from the current recorder, so re-enabling with only ``spill_path``
    keeps the configured capacity.  Pass ``spill_path=None`` explicitly
    to drop an existing spill destination.
    """
    if capacity is not None and capacity < 1:
        raise ValueError(f"trace capacity must be >= 1, got {capacity}")
    if fresh or capacity is not None or spill_path is not _UNSET:
        TRACE.swap(TraceRecorder(
            capacity=capacity if capacity is not None else _tracer.capacity,
            spill_path=spill_path if spill_path is not _UNSET else _tracer.spill_path,
        ))
    return TRACE.enable()


def disable_all() -> None:
    for sink in (TRACE, *COLLECTORS.values()):
        sink.disable()


# ----------------------------------------------------------------------
# Recording helpers (call only behind the guards)
# ----------------------------------------------------------------------
def counter(name: str, **labels: Any) -> Counter:
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _registry.gauge(name, **labels)


def histogram(name: str, edges: Optional[Sequence[float]] = None,
              **labels: Any) -> Histogram:
    return _registry.histogram(name, edges=edges, **labels)


def trace(kind: str, t: Optional[float] = None, **fields: Any) -> None:
    _tracer.emit(kind, t, **fields)


# ----------------------------------------------------------------------
# Span profiling (see repro.telemetry.spans)
# ----------------------------------------------------------------------
class _Span:
    """One open span; created per ``with`` entry, never shared."""

    __slots__ = ("name", "_profiler")

    def __init__(self, name: str):
        self.name = name
        self._profiler: Optional[SpanProfiler] = None

    def __enter__(self) -> "_Span":
        if spans_on:
            # Pin the sink so a profiler swap mid-span cannot unbalance
            # the new profiler's stack.
            self._profiler = _profiler
            self._profiler.push(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._profiler is not None:
            self._profiler.pop()
            self._profiler = None


class _NullSpan:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(_name: str, **labels: Any):
    """Open a profiling span: ``with telem.span("ecc.evaluate", code=c):``.

    Near-zero when profiling is off: one flag check, then a shared
    no-op context manager (no allocation, no clock reads).  The span
    name is positional-only in spirit (``_name``) so any label key —
    including ``name`` — stays usable.
    """
    if not spans_on:
        return _NULL_SPAN
    return _Span(span_name(_name, labels))


def profiled(_name: str, **labels: Any):
    """Decorator form of :func:`span` for whole-function phases::

        @telem.profiled("retention.profile")
        def profile_population(...): ...

    The flag is checked per call, so decorated functions stay on the
    undecorated fast path while profiling is off.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not spans_on:
                return fn(*args, **kwargs)
            with _Span(span_name(_name, labels)):
                return fn(*args, **kwargs)
        return wrapper

    return decorate
