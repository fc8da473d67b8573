"""Per-job collectors: one table row per kind, one lifecycle for all.

A collector is a process-global sink that instrumented code writes into
behind a module-global guard: the metrics registry (``telem.metrics_on``),
the span profiler (``telem.spans_on``) and the physics collector
(``phys.physics_on``).  Each kind is one :class:`Collector` row, declared
next to the globals it owns; :data:`repro.telemetry.runtime.COLLECTORS`
is the table.  Instrument sites never go through a row: they keep
reading the guard and the sink global directly.  :class:`Mergeable`
gives every parent-side type the same snapshot constructors.

This module is a leaf: it imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, Mapping,
                    Optional, Type, TypeVar)

__all__ = ["Collector", "Mergeable", "Sink", "collecting"]

M = TypeVar("M", bound="Mergeable")


class Mergeable:
    """Snapshot constructors for a type that defines ``merge(snapshot)``."""

    @classmethod
    def from_snapshot(cls: Type[M], snapshot: Mapping[str, Any]) -> M:
        merged = cls()
        merged.merge(snapshot)  # type: ignore[attr-defined]
        return merged

    @classmethod
    def from_snapshots(cls: Type[M],
                       snapshots: Iterable[Optional[Mapping[str, Any]]]) -> M:
        """Merge every snapshot, skipping ``None`` and empty ones."""
        merged = cls()
        for snapshot in snapshots:
            if snapshot:
                merged.merge(snapshot)  # type: ignore[attr-defined]
        return merged


class Sink:
    """A guarded process-global sink: the globals ``sink`` and ``guard``
    of ``namespace`` (the owning module's ``globals()``).  Its methods
    are that module's public ``enable``/``disable``/``get``/``swap``
    switches; ``sink_type`` builds an empty sink."""

    def __init__(self, namespace: Dict[str, Any], guard: str, sink: str,
                 sink_type: Callable[[], Any]):
        self._ns = namespace
        self._guard = guard
        self._sink = sink
        self.sink_type = sink_type

    @property
    def on(self) -> bool:
        return self._ns[self._guard]

    def enable(self, fresh: bool = False) -> Any:
        """Turn collection on; optionally start from an empty sink."""
        if fresh:
            self._ns[self._sink] = self.sink_type()
        self._ns[self._guard] = True
        return self._ns[self._sink]

    def disable(self) -> None:
        self._ns[self._guard] = False

    def get(self) -> Any:
        return self._ns[self._sink]

    def swap(self, sink: Any) -> Any:
        """Install ``sink`` as the process sink; return the previous one."""
        previous = self._ns[self._sink]
        self._ns[self._sink] = sink
        return previous


class Collector(Sink):
    """One per-job collector kind: a row of the collector table.

    ``name`` is the :class:`~repro.experiments.result.ExperimentResult`
    field the kind's per-job snapshot fills.  ``job_sink`` builds a
    per-job sink (default ``sink_type``), and ``merged`` the parent-side
    object whose ``merge`` absorbs snapshots.  ``seeded`` says whether
    the snapshot is a function of ``(name, params, seed)``: a stored
    result serves a run only if it carries every seeded snapshot the run
    asked for.  ``artifact`` and ``summary`` give the record fields and
    the one-line summary of the CLI's ``--<name>-out`` file.
    """

    def __init__(self, name: str, namespace: Dict[str, Any], guard: str,
                 sink: str, sink_type: Callable[[], Any],
                 merged: Callable[[], Any], seeded: bool,
                 job_sink: Optional[Callable[[], Any]] = None,
                 artifact: Optional[Callable[[Any], Dict[str, Any]]] = None,
                 summary: Callable[[Any], str] = lambda merged: ""):
        super().__init__(namespace, guard, sink, sink_type)
        self.name = name
        self.job_sink = job_sink or sink_type
        self.merged = merged
        self.seeded = seeded
        self.artifact = artifact or (lambda merged: {name: merged.snapshot()})
        self.summary = summary


@contextmanager
def collecting(kinds: Iterable[Collector]) -> Iterator[Dict[str, Any]]:
    """Run the body with a fresh per-job sink of each kind, guard on.

    On exit, raising or not, the yielded dict maps each kind's result
    field to its sink's snapshot, and the caller's sinks and guards are
    back as they were.
    """
    snapshots: Dict[str, Any] = {}
    saved = []
    for kind in kinds:
        saved.append((kind, kind.swap(kind.job_sink()), kind.on))
        kind.enable()
    try:
        yield snapshots
    finally:
        for kind, previous, was_on in reversed(saved):
            snapshots[kind.name] = kind.swap(previous).snapshot()
            if not was_on:
                kind.disable()
