"""CPU-side memory system: cache in front of the DRAM module.

Loads that miss the cache become row activations at the device (via
the address mapping), which is exactly the attacker-visible interface
of §II-A: a user program controls only virtual loads and (optionally)
CLFLUSH, yet can drive the activation stream underneath.

The three canonical strategies:

* ``naive_hammer`` — plain loads: the cache absorbs them, nothing
  reaches DRAM (the reason caches were once thought to prevent this);
* ``flush_hammer`` — the released test program's CLFLUSH loop: every
  load misses, the maximum hammer rate;
* ``eviction_hammer`` — no flush instruction (JavaScript [33]): each
  target load is followed by an eviction-set walk, so only a fraction
  of issued loads hammer the target and the within-window activation
  budget shrinks accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.cache import SetAssociativeCache, build_eviction_set
from repro.dram.mapping import AddressMapping
from repro.dram.module import DramModule

#: Latency charged per CLFLUSH.
CLFLUSH_NS = 3.0

#: Iterations one fast-forward step accumulates at once, which bounds
#: its temporary arrays (chunk × program length floats) and so peak RSS.
FAST_FORWARD_CHUNK = 4096

#: One program item: ``("load" | "target load" | "clflush", address)``.
Op = Tuple[str, int]


@dataclass
class HammerRunStats:
    """Outcome of a user-level hammer run.

    Attributes:
        loads: CPU loads issued.
        dram_activations: activations that reached the device (any row).
        target_activations: activations of the *aggressor* rows.
        flips: disturbance flips materialized by the run.
        elapsed_ns: simulated time.
    """

    loads: int
    dram_activations: int
    target_activations: int
    flips: int
    elapsed_ns: float

    @property
    def activation_efficiency(self) -> float:
        """Fraction of issued loads that hammered a target row."""
        return self.target_activations / self.loads if self.loads else 0.0

    def target_rate_per_us(self) -> float:
        """Aggressor activations per microsecond of simulated time."""
        return self.target_activations / (self.elapsed_ns / 1000.0) if self.elapsed_ns else 0.0

    def activations_per_window(self, tREFW_ns: float) -> float:
        """Aggressor activations achievable inside one refresh window."""
        return self.target_rate_per_us() * tREFW_ns / 1000.0


class CpuMemorySystem:
    """A cache + DRAM module driven by virtual loads.

    Args:
        module: the DRAM device.
        cache: the last-level cache in front of it.
        mapping: physical-address decomposition.
        hit_ns: latency charged per cache hit.
    """

    def __init__(
        self,
        module: DramModule,
        cache: Optional[SetAssociativeCache] = None,
        mapping: Optional[AddressMapping] = None,
        hit_ns: float = 1.2,
    ) -> None:
        self.module = module
        self.cache = cache if cache is not None else SetAssociativeCache()
        self.mapping = mapping if mapping is not None else AddressMapping(module.geometry)
        self.hit_ns = hit_ns
        self.time_ns = 0.0
        self.dram_accesses = 0

    # ------------------------------------------------------------------
    def load(self, address: int) -> bool:
        """One CPU load; returns True if it reached DRAM (cache miss)."""
        if self.cache.access(address):
            self.time_ns += self.hit_ns
            return False
        coord = self.mapping.decode(address)
        self.module.activate(coord.bank, coord.row, self.time_ns)
        self.module.precharge(coord.bank)
        self.time_ns += self.module.timing.tRC
        self.dram_accesses += 1
        return True

    def clflush(self, address: int) -> None:
        """Flush one line (costs a few ns)."""
        self.cache.flush(address)
        self.time_ns += CLFLUSH_NS

    def row_address(self, bank: int, row: int) -> int:
        """Physical address of a (bank, row) — attacker address arithmetic."""
        return self.mapping.row_address(bank, row)

    # ------------------------------------------------------------------
    # The §II-A attack programs
    # ------------------------------------------------------------------
    def _run(self, program: Sequence[Op], iterations: int, time_budget_ns: Optional[float]) -> HammerRunStats:
        """Execute ``program`` up to ``iterations`` times, stopping after
        the first iteration that ends ``time_budget_ns`` or more past the
        start (see the module docstring for the three phases)."""
        cache, module = self.cache, self.module
        start_time = self.time_ns
        start_loads = cache.hits + cache.misses
        start_acts = self.dram_accesses
        before_flips = module.total_flips()
        tRC = module.timing.tRC
        sets = sorted({cache.set_index(address) for _, address in program})

        def snapshot() -> tuple:
            return tuple(tuple(cache._sets[i]) for i in sets)

        def counters() -> Tuple[int, int, int, int]:
            return cache.hits, cache.misses, cache.evictions, self.dram_accesses

        def expired(t: float) -> bool:
            return time_budget_ns is not None and t - start_time >= time_budget_ns

        # 1. Simulate until the touched sets reach a fixed point.
        done = target_acts = 0
        state = snapshot()
        period = None
        while done < iterations:
            before = counters()
            steps = []  # per op: (bank, row) of a miss or None, and its latency
            acts = 0
            for op, address in program:
                if op == "clflush":
                    self.clflush(address)
                    steps.append((None, CLFLUSH_NS))
                elif self.load(address):
                    coord = self.mapping.decode(address)
                    steps.append(((coord.bank, coord.row), tRC))
                    acts += op == "target load"
                else:
                    steps.append((None, self.hit_ns))
            done += 1
            target_acts += acts
            if expired(self.time_ns):
                break
            previous, state = state, snapshot()
            if state == previous:
                period = steps, [b - a for a, b in zip(before, counters())] + [acts]
                break

        # 2./3. Replay the period, or fast-forward it if it never misses.
        replayed = 0
        if period is not None and done < iterations:
            steps, deltas = period
            t = self.time_ns
            if any(coord for coord, _ in steps):
                activate, precharge = module.activate, module.precharge
                while done + replayed < iterations:
                    for coord, latency in steps:
                        if coord is not None:
                            activate(coord[0], coord[1], t)
                            precharge(coord[0])
                        t += latency
                    replayed += 1
                    if expired(t):
                        break
            else:
                latencies = np.array([latency for _, latency in steps], dtype=np.float64)
                while done + replayed < iterations:
                    m = min(FAST_FORWARD_CHUNK, iterations - done - replayed)
                    times = np.add.accumulate(np.concatenate(([t], np.tile(latencies, m))))
                    ends = times[np.arange(1, m + 1) * len(latencies)]
                    over = np.flatnonzero(ends - start_time >= time_budget_ns) if time_budget_ns is not None else ()
                    if len(over):
                        m = int(over[0]) + 1
                    t = float(ends[m - 1])
                    replayed += m
                    if len(over):
                        break
            self.time_ns = t
            hits, misses, evictions, accesses, acts = deltas
            cache.hits += replayed * hits
            cache.misses += replayed * misses
            cache.evictions += replayed * evictions
            self.dram_accesses += replayed * accesses
            target_acts += replayed * acts

        module.settle(self.time_ns)
        return HammerRunStats(
            loads=cache.hits + cache.misses - start_loads,
            dram_activations=self.dram_accesses - start_acts,
            target_activations=target_acts,
            flips=module.total_flips() - before_flips,
            elapsed_ns=self.time_ns - start_time,
        )

    def flush_hammer(
        self, bank: int, rows: Sequence[int], iterations: int, time_budget_ns: Optional[float] = None
    ) -> HammerRunStats:
        """The CLFLUSH hammer loop of the released test program:
        ``loop { mov (X); mov (Y); clflush (X); clflush (Y); }``."""
        addresses = [self.row_address(bank, row) for row in rows]
        program = [("target load", a) for a in addresses] + [("clflush", a) for a in addresses]
        return self._run(program, iterations, time_budget_ns)

    def naive_hammer(
        self, bank: int, rows: Sequence[int], iterations: int, time_budget_ns: Optional[float] = None
    ) -> HammerRunStats:
        """The same loop without CLFLUSH: the cache absorbs everything
        after the first touch — no hammering, the §II-A control case."""
        program = [("target load", self.row_address(bank, row)) for row in rows]
        return self._run(program, iterations, time_budget_ns)

    def eviction_hammer(
        self,
        bank: int,
        rows: Sequence[int],
        iterations: int,
        eviction_region_rows: Sequence[int] = (),
        time_budget_ns: Optional[float] = None,
    ) -> HammerRunStats:
        """Flush-free (JavaScript-style) hammering: after each target
        load, walk an eviction set congruent with the target line.

        Only the target loads count as hammering; the eviction walk
        consumes most of the loop's time, cutting the within-window
        activation budget — the engineering constraint [33] works under.
        """
        targets = [self.row_address(bank, row) for row in rows]
        region_rows = list(eviction_region_rows) or [max(rows) + 64 + i for i in range(128)]
        region_base = self.row_address(bank, region_rows[0])
        region_bytes = self.module.geometry.row_bytes * len(region_rows)
        program: List[Op] = []
        for target in targets:
            program.append(("target load", target))
            program.extend(("load", a) for a in build_eviction_set(self.cache, target, region_base, region_bytes))
        return self._run(program, iterations, time_budget_ns)
