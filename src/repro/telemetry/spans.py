"""Wall-clock span profiling: where does an experiment spend its time?

A *span* is one named, possibly labeled phase of execution — ``job``,
``dram.bulk_activate``, ``ecc.evaluate`` — opened and closed around a
region of simulator code.  Spans nest: the profiler keeps a stack, so
every completed span is attributed to its full call path, and a parent
distinguishes *total* time (everything under it) from *self* time
(total minus its children).

Two layers live here:

* :class:`SpanProfiler` — the recording device: a frame stack fed by
  ``push``/``pop`` (instrument sites reach it through
  :func:`repro.telemetry.runtime.span`), aggregating per-path
  count/total/self as it goes;
* :class:`SpanProfile` — the mergeable result: a JSON-safe mapping
  from span paths to aggregates, with the same snapshot/merge
  protocol metrics use (so per-job profiles travel inside
  :class:`~repro.experiments.result.ExperimentResult`, survive the
  result cache, and add up across process-pool workers), plus the
  renderers behind ``repro profile``: a top-down tree and a
  flamegraph-style folded-stack export.

Like every other telemetry signal, profiling is **off by default** and
instrument sites are guarded on ``telem.spans_on`` — one
module-attribute read and a falsy branch when disabled.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.telemetry.collectors import Mergeable

__all__ = ["SpanProfile", "SpanProfiler", "span_name"]

#: A span's identity: the names of every open span above it, then its own.
SpanPath = Tuple[str, ...]


def span_name(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Fold labels into the span's display name (``io{file=x}``).

    Labels are part of span identity — two label sets aggregate as two
    distinct phases — and are rendered sorted so identity is stable.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class SpanProfiler:
    """The active recording stack plus running per-path aggregates.

    Not thread-safe by design (simulators are single-threaded per
    process); cross-process aggregation goes through
    :meth:`profile` → :meth:`SpanProfile.merge`.
    """

    def __init__(self) -> None:
        # Open frames: [name, start_s, child_s] — child_s accumulates
        # the total time of already-closed direct children.
        self._stack: List[List[Any]] = []
        # path -> [count, total_s, self_s]
        self._agg: Dict[SpanPath, List[float]] = {}

    def __len__(self) -> int:
        return len(self._agg)

    @property
    def depth(self) -> int:
        """Currently open (unclosed) spans."""
        return len(self._stack)

    def push(self, name: str) -> None:
        """Open a span named ``name`` under whatever is currently open."""
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> float:
        """Close the innermost open span; return its elapsed seconds.

        A pop with nothing open is a no-op (the profiler may have been
        swapped mid-span at a job boundary) rather than an error.
        """
        if not self._stack:
            return 0.0
        name, start, child_s = self._stack.pop()
        elapsed = time.perf_counter() - start
        path = tuple(frame[0] for frame in self._stack) + (name,)
        agg = self._agg.get(path)
        if agg is None:
            self._agg[path] = [1, elapsed, elapsed - child_s]
        else:
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def clear(self) -> None:
        self._stack.clear()
        self._agg.clear()

    def profile(self) -> "SpanProfile":
        """The aggregates recorded so far, as a mergeable profile."""
        return SpanProfile(
            {path: (int(c), float(t), float(s))
             for path, (c, t, s) in self._agg.items()}
        )

    def snapshot(self) -> Dict[str, Any]:
        """Shorthand for ``profiler.profile().snapshot()``."""
        return self.profile().snapshot()


class SpanProfile(Mergeable):
    """Mergeable per-path span aggregates: ``path -> (count, total, self)``."""

    def __init__(self, entries: Optional[Dict[SpanPath, Tuple[int, float, float]]] = None):
        self.entries: Dict[SpanPath, Tuple[int, float, float]] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def total_s(self) -> float:
        """Wall clock attributed to root (depth-1) spans — the tree's
        whole coverage, free of double counting."""
        return sum(t for path, (_, t, _s) in self.entries.items() if len(path) == 1)

    def get(self, *path: str) -> Tuple[int, float, float]:
        """(count, total_s, self_s) of one path; zeros if never recorded."""
        return self.entries.get(tuple(path), (0, 0.0, 0.0))

    # ------------------------------------------------------------------
    # Snapshot / merge (the cross-process protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump, sorted by path for stable output."""
        return {
            "spans": [
                {"path": list(path), "count": c, "total_s": t, "self_s": s}
                for path, (c, t, s) in sorted(self.entries.items())
            ]
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Absorb a snapshot: counts and times add per path."""
        for entry in snapshot.get("spans", ()):
            path = tuple(entry["path"])
            count, total, self_s = self.entries.get(path, (0, 0.0, 0.0))
            self.entries[path] = (
                count + int(entry["count"]),
                total + float(entry["total_s"]),
                self_s + float(entry["self_s"]),
            )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_tree(self) -> str:
        """Top-down tree, siblings sorted by total time descending::

            span                            count     total      self    %
            job{name=rowhammer_basic}           1   2.301 s   0.012 s  100.0
              dram.bulk_activate              128   2.105 s   2.105 s   91.5
        """
        if not self.entries:
            return "(no spans recorded)"
        whole = self.total_s() or 1e-12
        ordered = self._ordered_paths()
        name_w = max(len("  " * (len(p) - 1) + p[-1]) for p in ordered)
        name_w = max(name_w, len("span"))
        lines = [f"{'span':<{name_w}}  {'count':>7}  {'total':>10}  "
                 f"{'self':>10}  {'%':>5}"]
        for path in ordered:
            count, total, self_s = self.entries[path]
            name = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{name:<{name_w}}  {count:>7}  {_fmt_s(total):>10}  "
                f"{_fmt_s(self_s):>10}  {100.0 * total / whole:>5.1f}"
            )
        return "\n".join(lines)

    def render_folded(self) -> str:
        """Flamegraph folded stacks: ``a;b;c <self-microseconds>``.

        Feed the output straight to ``flamegraph.pl`` or speedscope.
        """
        lines = []
        for path in self._ordered_paths():
            _count, _total, self_s = self.entries[path]
            micros = int(round(self_s * 1e6))
            if micros > 0:
                lines.append(";".join(path) + f" {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def _ordered_paths(self) -> List[SpanPath]:
        """Depth-first order, children under parents, heaviest first."""
        children: Dict[SpanPath, List[SpanPath]] = {}
        for path in self.entries:
            children.setdefault(path[:-1], []).append(path)
        for sibs in children.values():
            sibs.sort(key=lambda p: -self.entries[p][1])
        ordered: List[SpanPath] = []

        def walk(prefix: SpanPath) -> None:
            for path in children.get(prefix, ()):
                ordered.append(path)
                walk(path)

        walk(())
        # Paths whose parents were never closed (profiler swapped
        # mid-span) are unreachable from the root walk; append them flat.
        seen = set(ordered)
        ordered.extend(p for p in sorted(self.entries) if p not in seen)
        return ordered


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} µs"
