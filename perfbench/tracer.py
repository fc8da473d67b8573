"""Outside-in layer trace: wrappers around each layer's public entry points.

The traced pass patches the functions and methods listed below with
timing wrappers, runs the workload's jobs, and restores the originals.
Nothing under ``src/`` changes.  Each wrapper opens a *frame* named by
a bucket such as ``dram.activate``; a frame's self time is its duration
minus the time of the frames opened inside it.  So the self times of
all buckets, plus the time spent outside any frame, add up to the
traced wall time exactly (see :meth:`Tracer.check_sums`).

Methods are patched on the class that defines them; module functions
are patched at the name their caller looks up (a function imported by
name into ``repro.experiments.*`` is patched there, not at its home).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

OnReturn = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Frame stack, per-bucket self time, call counts and named counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # summed duration of outermost frames
        self._buckets: Dict[str, list] = {}  # name -> [self_s, calls, open frames]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def self_s(self) -> Dict[str, float]:
        return {name: rec[0] for name, rec in self._buckets.items()}

    @property
    def calls(self) -> Dict[str, int]:
        return {name: rec[1] for name, rec in self._buckets.items()}

    def is_open(self, bucket: str) -> bool:
        """Whether a frame of ``bucket`` is on the stack."""
        rec = self._buckets.get(bucket)
        return bool(rec and rec[2])

    # -- wrappers -------------------------------------------------------
    def wrap(self, fn: Callable, bucket: str,
             on_return: Optional[OnReturn] = None) -> Callable:
        """``fn`` timed as a frame of ``bucket``.

        A call made while a frame of the same bucket is on top of the
        stack (a subclass override calling ``super()``, or recursion)
        runs unwrapped, so it is neither counted twice nor split.
        """
        tracer, stack, clock = self, self._stack, self.clock
        rec = self._buckets.setdefault(bucket, [0.0, 0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is rec:
                return fn(*args, **kwargs)
            frame = [rec, 0.0]
            stack.append(frame)
            rec[2] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[0] += elapsed - frame[1]
                rec[1] += 1
                rec[2] -= 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def count_calls(self, fn: Callable, key: str) -> Callable:
        """``fn`` with its calls counted under ``key`` but not timed (its
        time stays in the enclosing frame)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self, owner: Any, attr: str) -> bool:
        return any(o is owner and a == attr for o, a, _ in self._patches)

    # -- totals ---------------------------------------------------------
    def check_sums(self, wall_s: float) -> Optional[str]:
        """``None`` when bucket self times plus the unattributed time add
        up to ``wall_s``; otherwise a description of the gap."""
        unattributed = wall_s - self.top_s
        total = sum(rec[0] for rec in self._buckets.values()) + unattributed
        if self._stack:
            return f"{len(self._stack)} frames still open"
        if abs(total - wall_s) > 1e-6 * max(wall_s, 1.0):
            return f"self times + unattributed = {total:.6f} s != wall {wall_s:.6f} s"
        if unattributed < 0:
            return f"negative unattributed time {unattributed:.6f} s"
        return None


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Host nanoseconds one timing wrapper adds to a call (calibrated
    on a no-op, best of three)."""
    def noop(x):
        return x

    traced = Tracer().wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            traced(i)
        best = min(best, time.perf_counter() - start - bare)
    return max(best, 0.0) / calls * 1e9


# ----------------------------------------------------------------------
# Simulated-work census
# ----------------------------------------------------------------------
class ModuleCensus:
    """Simulated ACT and flip totals over every ``DramModule`` built
    while installed.

    Each module's bank stats are read when the module is collected (or
    at :meth:`totals`), so the census keeps no module alive.
    """

    def __init__(self) -> None:
        self.acts = 0
        self.flips = 0
        self._pending: List[weakref.finalize] = []
        self._original: Optional[Callable] = None

    def _retire(self, stats: list) -> None:
        self.acts += sum(s.activations for s in stats)
        self.flips += sum(s.flips_materialized for s in stats)

    def install(self) -> None:
        from repro.dram.module import DramModule

        original = self._original = DramModule.__dict__["__init__"]
        pending, retire = self._pending, self._retire

        @functools.wraps(original)
        def __init__(module, *args, **kwargs):
            original(module, *args, **kwargs)
            fin = weakref.finalize(module, retire, [bank.stats for bank in module.banks])
            fin.atexit = False
            pending.append(fin)

        DramModule.__init__ = __init__

    def uninstall(self) -> None:
        from repro.dram.module import DramModule

        DramModule.__init__ = self._original

    def totals(self) -> Tuple[int, int]:
        """``(activations, flips)`` over every module seen so far."""
        for fin in self._pending:
            fin()  # no-op when the module was already collected
        self._pending.clear()
        return self.acts, self.flips


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _count_victim_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["controller.victim_refresh.rows"] += result  # rows refreshed


def _count_refreshed_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    # refresh_row(self, row, ...) -> 1 row; refresh_rows(self, rows, ...)
    rows = args[1]
    n = len(rows) if hasattr(rows, "__len__") else 1
    tracer.counts["dram.refresh.rows"] += n
    if tracer.is_open("mitigations.on_activate"):
        tracer.counts["mitigations.victim_rows"] += n


def _count_cache_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result:
        tracer.counts["cpu.cache.hits"] += 1


#: (module, class, methods, bucket, on_return).  Each method is patched
#: on the named class only if that class defines it.
CLASS_METHODS = [
    ("repro.controller.controller", "MemoryController", ("activate",),
     "controller.activate", None),
    ("repro.controller.controller", "MemoryController", ("run_activation_pattern",),
     "controller.pattern", None),
    ("repro.controller.refresh", "RefreshEngine", ("tick",),
     "controller.refresh", None),
    ("repro.controller.controller", "MemoryController", ("refresh_neighbors",),
     "controller.victim_refresh", _count_victim_rows),
    ("repro.mitigations.para", "Para", ("on_activate",),
     "mitigations.on_activate", None),
    ("repro.mitigations.cra", "CounterBasedMitigation", ("on_activate",),
     "mitigations.on_activate", None),
    ("repro.mitigations.anvil", "AnvilMitigation", ("on_activate",),
     "mitigations.on_activate", None),
    ("repro.mitigations.trr", "TrrMitigation", ("on_activate",),
     "mitigations.on_activate", None),
    ("repro.dram.module", "DramModule", ("activate",), "dram.activate", None),
    ("repro.dram.module", "DramModule", ("precharge",), "dram.precharge", None),
    ("repro.dram.bank", "DramBank", ("execute",), "dram.execute", None),
    ("repro.dram.columnar", "ColumnarDramBank", ("execute",), "dram.execute", None),
    ("repro.dram.disturbance", "DisturbanceModel", ("weak_cells_block",),
     "dram.weak_cells", None),
    ("repro.dram.bank", "DramBank", ("refresh_row", "refresh_rows"),
     "dram.refresh", _count_refreshed_rows),
    ("repro.dram.columnar", "ColumnarDramBank", ("refresh_row", "refresh_rows"),
     "dram.refresh", _count_refreshed_rows),
    ("repro.dram.bank", "DramBank", ("refresh_all",), "dram.refresh", None),
    ("repro.dram.columnar", "ColumnarDramBank", ("refresh_all",), "dram.refresh", None),
    ("repro.dram.bank", "DramBank", ("settle",), "dram.settle", None),
    ("repro.dram.columnar", "ColumnarDramBank", ("settle",), "dram.settle", None),
    ("repro.cpu.cache", "SetAssociativeCache", ("access",), "cpu.cache", _count_cache_hit),
    ("repro.cpu.cache", "SetAssociativeCache", ("flush",), "cpu.flush", None),
    ("repro.cpu.system", "CpuMemorySystem", ("load",), "cpu.load", None),
    ("repro.cpu.system", "CpuMemorySystem", ("clflush",), "cpu.clflush", None),
    ("repro.cpu.system", "CpuMemorySystem",
     ("naive_hammer", "flush_hammer", "eviction_hammer"), "cpu.hammer", None),
    ("repro.telemetry.metrics", "Counter", ("inc",), "telemetry", None),
    ("repro.telemetry.metrics", "Gauge", ("set", "set_max", "inc"), "telemetry", None),
    ("repro.telemetry.metrics", "Histogram", ("observe",), "telemetry", None),
    ("repro.telemetry.physics", "PhysicsCollector",
     ("record_activation", "record_activation_batch", "record_flip_window",
      "audit_count", "audit"), "telemetry", None),
]

#: (module, functions, bucket, on_return), patched at that module's name.
MODULE_FUNCTIONS = [
    ("repro.telemetry.runtime", ("counter",), "telemetry.counter", None),
    ("repro.telemetry.runtime", ("gauge", "histogram"), "telemetry", None),
    ("repro.telemetry.physics", ("get_collector",), "telemetry", None),
    ("repro.experiments.runner", ("execute_job",), "experiments.runner", None),
]

#: (caller module, layer package, bucket): every function or class the
#: caller imported from the package is patched at the caller's name
#: (classes through their ``__init__``).  ``fleet_study`` imports its
#: two entry points inside its body, so they are patched at home.
IMPORTED = [
    ("repro.experiments.mitigations", "repro.mitigations.ecc_eval", "ecc"),
    ("repro.experiments.mitigations", "repro.ecc", "ecc"),
    ("repro.experiments.retention", "repro.retention", "retention"),
    ("repro.experiments.emerging", "repro.pcm", "pcm"),
    ("repro.experiments.flash", "repro.flash", "flash"),
    ("repro.experiments.dram", "repro.fieldstudy", "fieldstudy"),
    ("repro.experiments.mitigations", "repro.fieldstudy", "fieldstudy"),
    ("repro.fieldstudy.fleet", "repro.fieldstudy", "fieldstudy"),
]

#: Calls counted without a frame of their own.
COUNTED = [
    ("repro.pcm.array", "PcmArray", "write", "pcm.write.calls"),
]


def _in_package(obj: Any, package: str) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return module == package or module.startswith(package + ".")


def install(tracer: Tracer) -> None:
    """Patch every layer boundary with ``tracer``'s wrappers."""
    for module_name, class_name, methods, bucket, on_return in CLASS_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in methods:
            if attr in vars(cls):
                tracer.patch(cls, attr, tracer.wrap(vars(cls)[attr], bucket, on_return))
    for module_name, functions, bucket, on_return in MODULE_FUNCTIONS:
        module = importlib.import_module(module_name)
        for attr in functions:
            tracer.patch(module, attr, tracer.wrap(vars(module)[attr], bucket, on_return))
    for caller_name, package, bucket in IMPORTED:
        caller = importlib.import_module(caller_name)
        for attr, obj in list(vars(caller).items()):
            if attr.startswith("_") or not _in_package(obj, package):
                continue
            if inspect.isfunction(obj):
                tracer.patch(caller, attr, tracer.wrap(obj, bucket))
            elif inspect.isclass(obj) and "__init__" in vars(obj) \
                    and not tracer.patched(obj, "__init__"):
                tracer.patch(obj, "__init__", tracer.wrap(vars(obj)["__init__"], bucket))
    for module_name, class_name, attr, key in COUNTED:
        cls = getattr(importlib.import_module(module_name), class_name)
        tracer.patch(cls, attr, tracer.count_calls(vars(cls)[attr], key))
    _install_experiment_body(tracer)


def _install_experiment_body(tracer: Tracer) -> None:
    """Give each experiment function its own ``experiments.body`` frame,
    so ``experiments.runner`` keeps only ``execute_job``'s own work."""
    from repro.experiments import registry

    get = registry.get

    def traced_get(name: str):
        spec = get(name)
        return dataclasses.replace(spec, fn=tracer.wrap(spec.fn, "experiments.body"))

    tracer.patch(registry, "get", functools.wraps(get)(traced_get))
