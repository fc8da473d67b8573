"""Tests for the CPU cache substrate and user-level attack programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenarios import scaled_scenario
from repro.cpu import CpuMemorySystem, HammerRunStats, SetAssociativeCache, build_eviction_set
from repro.cpu.system import FAST_FORWARD_CHUNK
from repro.dram.disturbance import VulnerabilityProfile
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule

ENGINES = ("columnar", "reference")


class TestCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        assert not cache.access(0)
        assert cache.access(0)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        sets = cache.n_sets
        stride = 64 * sets  # same set, different tags
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts tag of address 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(stride)
        assert cache.contains(2 * stride)

    def test_access_refreshes_lru(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        stride = 64 * cache.n_sets
        cache.access(0)
        cache.access(stride)
        cache.access(0)             # 0 becomes MRU
        cache.access(2 * stride)    # evicts `stride`, not 0
        assert cache.contains(0)
        assert not cache.contains(stride)

    def test_flush(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        cache.access(128)
        assert cache.flush(128)
        assert not cache.contains(128)
        assert not cache.flush(128)

    def test_miss_rate(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=100, line_bytes=64, ways=2)

    def test_eviction_set_congruent(self):
        cache = SetAssociativeCache(size_bytes=64 * 1024, line_bytes=64, ways=4)
        target = 4096
        ev_set = build_eviction_set(cache, target, region_base=1 << 20, region_bytes=1 << 22)
        assert len(ev_set) == cache.ways
        assert all(cache.set_index(a) == cache.set_index(target) for a in ev_set)
        assert target not in ev_set

    def test_eviction_set_region_too_small(self):
        cache = SetAssociativeCache(size_bytes=1 << 20, line_bytes=64, ways=16)
        with pytest.raises(ValueError):
            build_eviction_set(cache, 0, region_base=1 << 20, region_bytes=4096)

    def test_eviction_set_actually_evicts(self):
        cache = SetAssociativeCache(size_bytes=64 * 1024, line_bytes=64, ways=4)
        target = 4096
        ev_set = build_eviction_set(cache, target, region_base=1 << 20, region_bytes=1 << 22)
        cache.access(target)
        for address in ev_set:
            cache.access(address)
        assert not cache.contains(target)


class TestUserLevelHammer:
    @pytest.fixture(scope="class")
    def scenario(self):
        return scaled_scenario(scale=20.0)

    def _system(self, scenario, seed=7):
        return CpuMemorySystem(
            scenario.make_module(serial="cpu-test", seed=seed),
            cache=SetAssociativeCache(size_bytes=1 << 20, ways=8),
        )

    def test_naive_loads_absorbed_by_cache(self, scenario):
        stats = self._system(scenario).naive_hammer(0, [999, 1001], 5_000)
        assert stats.target_activations <= len([999, 1001])
        assert stats.flips == 0

    def test_flush_hammer_reaches_dram_every_load(self, scenario):
        stats = self._system(scenario).flush_hammer(
            0, [999, 1001], 10**9, time_budget_ns=scenario.timing.tREFW
        )
        assert stats.activation_efficiency == pytest.approx(1.0)
        assert stats.flips > 0

    def test_eviction_hammer_pays_rate_penalty(self, scenario):
        window = scenario.timing.tREFW
        flush = self._system(scenario).flush_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        evict = self._system(scenario).eviction_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        assert 0 < evict.activation_efficiency < 0.5
        assert evict.target_activations < flush.target_activations / 3

    def test_time_budget_respected(self, scenario):
        window = scenario.timing.tREFW
        stats = self._system(scenario).flush_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        assert stats.elapsed_ns <= window * 1.01

    def test_row_address_roundtrip(self, scenario):
        system = self._system(scenario)
        address = system.row_address(1, 42)
        coord = system.mapping.decode(address)
        assert (coord.bank, coord.row) == (1, 42)


# ----------------------------------------------------------------------
# Period replay against op-by-op execution
# ----------------------------------------------------------------------
def reference_run(system, program, iterations, time_budget_ns=None):
    """Every op of every iteration through ``load``/``clflush``: the
    per-load loop the period replay must reproduce exactly.  Also
    returns ``time_ns`` at each iteration boundary."""
    start_time = system.time_ns
    start_loads = system.cache.hits + system.cache.misses
    start_acts = system.dram_accesses
    before_flips = system.module.total_flips()
    target_acts = 0
    boundaries = []
    for _ in range(iterations):
        for op, address in program:
            if op == "clflush":
                system.clflush(address)
            elif system.load(address) and op == "target load":
                target_acts += 1
        boundaries.append(system.time_ns)
        if time_budget_ns is not None and system.time_ns - start_time >= time_budget_ns:
            break
    system.module.settle(system.time_ns)
    stats = HammerRunStats(
        loads=system.cache.hits + system.cache.misses - start_loads,
        dram_activations=system.dram_accesses - start_acts,
        target_activations=target_acts,
        flips=system.module.total_flips() - before_flips,
        elapsed_ns=system.time_ns - start_time,
    )
    return stats, boundaries


def assert_same_run(replayed, reference):
    """Two (system, stats) pairs ended in identical states."""
    (system, stats), (ref_system, ref_stats) = replayed, reference
    assert stats == ref_stats  # elapsed_ns included, bit for bit
    for counter in ("hits", "misses", "evictions"):
        assert getattr(system.cache, counter) == getattr(ref_system.cache, counter)
    assert system.cache._sets == ref_system.cache._sets
    assert system.time_ns == ref_system.time_ns
    assert system.dram_accesses == ref_system.dram_accesses
    for bank, ref_bank in zip(system.module.banks, ref_system.module.banks):
        assert bank.stats.flip_log == ref_bank.stats.flip_log
        assert bank.stats.activations == ref_bank.stats.activations


LINE, N_SETS = 64, 4
SMALL_GEOMETRY = DramGeometry(banks=2, rows=64, row_bytes=64)  # 128 lines
LOW_THRESHOLDS = VulnerabilityProfile(
    weak_cell_density=0.05, hc_first_median=60.0, hc_first_min=15.0,
    hc_first_sigma=0.5, distance2_weight=0.1)


def line_address(set_index, tag):
    return (tag * N_SETS + set_index) * LINE


def small_system(engine, ways, warmup=()):
    system = CpuMemorySystem(
        DramModule(geometry=SMALL_GEOMETRY, profile=LOW_THRESHOLDS, seed=5, engine=engine),
        cache=SetAssociativeCache(size_bytes=LINE * N_SETS * ways, line_bytes=LINE, ways=ways),
    )
    for address in warmup:
        system.cache.access(address)
    return system


@st.composite
def hammer_loops(draw):
    """A small cache with random prior contents and a random program
    over 1-3 of its sets, with pools of up to ``ways + 2`` congruent
    lines, so sets may thrash, targets may start cached or not, and
    programs may be flush-only."""
    ways = draw(st.integers(1, 4))
    sets = draw(st.lists(st.integers(0, N_SETS - 1), min_size=1, max_size=3, unique=True))
    pool = [
        line_address(s, tag)
        for s in sets
        for tag in draw(st.lists(st.integers(0, 31), min_size=1, max_size=ways + 2, unique=True))
    ]
    ops = st.sampled_from(("load", "target load", "clflush"))
    program = draw(st.lists(st.tuples(ops, st.sampled_from(pool)), min_size=1, max_size=8))
    warmup = draw(st.lists(
        st.builds(line_address, st.sampled_from(sets), st.integers(0, 31)), max_size=10))
    return ways, warmup, program


class TestPeriodReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=60, deadline=None)
    @given(
        loop=hammer_loops(),
        iterations=st.sampled_from((1, 2, 3, 200)),
        # None, or the index of the iteration boundary the budget ends
        # on (early: during simulation; late: during replay), exactly
        # or halfway into that iteration.
        budget=st.none() | st.tuples(st.integers(0, 3) | st.integers(4, 199), st.booleans()),
    )
    def test_matches_op_by_op_execution(self, engine, loop, iterations, budget):
        ways, warmup, program = loop
        time_budget_ns = None
        if budget is not None:
            _, boundaries = reference_run(small_system(engine, ways, warmup), program, iterations)
            index, exact = min(budget[0], len(boundaries) - 1), budget[1]
            end = boundaries[index]
            if not exact:
                end = ((boundaries[index - 1] if index else 0.0) + end) / 2
            time_budget_ns = end
        replayed = small_system(engine, ways, warmup)
        reference = small_system(engine, ways, warmup)
        assert_same_run(
            (replayed, replayed._run(program, iterations, time_budget_ns)),
            (reference, reference_run(reference, program, iterations, time_budget_ns)[0]),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("boundary", [None, 0, 1, 2, FAST_FORWARD_CHUNK,
                                          FAST_FORWARD_CHUNK + 1, FAST_FORWARD_CHUNK + 2,
                                          2 * FAST_FORWARD_CHUNK + 1])
    def test_fast_forward_budget_on_chunk_edges(self, engine, boundary):
        # Two cache hits per iteration once warm: the fixed point is found
        # after iteration 2, so fast-forward chunks end on boundaries
        # 1 + k * FAST_FORWARD_CHUNK (0-based).
        program = [("target load", line_address(0, 1)), ("target load", line_address(2, 3))]
        iterations = 2 * FAST_FORWARD_CHUNK + 7
        time_budget_ns = None
        if boundary is not None:
            _, boundaries = reference_run(small_system(engine, 2), program, iterations)
            time_budget_ns = boundaries[boundary]
        replayed, reference = small_system(engine, 2), small_system(engine, 2)
        stats = replayed._run(program, iterations, time_budget_ns)
        assert_same_run(
            (replayed, stats),
            (reference, reference_run(reference, program, iterations, time_budget_ns)[0]),
        )
        assert stats.loads == 2 * (iterations if boundary is None else boundary + 1)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("boundary", [None, 1, 2, 3])
    def test_thrashing_period_replays_misses_and_evictions(self, engine, boundary):
        # Three congruent lines in a 2-way set miss on every load: each
        # replayed iteration activates rows and evicts lines.  The fixed
        # point is found after iteration 2, so boundary 2 (0-based) ends
        # the first replayed iteration.
        program = [("target load", line_address(1, tag)) for tag in (4, 5, 6)]
        time_budget_ns = None
        if boundary is not None:
            _, boundaries = reference_run(small_system(engine, 2), program, 400)
            time_budget_ns = boundaries[boundary]
        replayed, reference = small_system(engine, 2), small_system(engine, 2)
        stats = replayed._run(program, 400, time_budget_ns)
        assert_same_run(
            (replayed, stats),
            (reference, reference_run(reference, program, 400, time_budget_ns)[0]))
        iterations = 400 if boundary is None else boundary + 1
        assert stats.dram_activations == 3 * iterations
        assert replayed.cache.evictions == 3 * iterations - 2
        if boundary is None:
            assert stats.flips > 0


class TestAttackProgramsReplayExactly:
    """Each strategy against op-by-op execution of the loop it documents,
    on the experiment's scaled scenario and cache, for half a window."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return scaled_scenario(scale=20.0)

    def _system(self, scenario, engine):
        return CpuMemorySystem(
            scenario.make_module(serial="cpu-test", seed=3, engine=engine),
            cache=SetAssociativeCache(size_bytes=1 << 20, ways=8),
        )

    def _program(self, system, strategy, rows):
        addresses = [system.row_address(0, row) for row in rows]
        loads = [("target load", a) for a in addresses]
        if strategy == "naive":
            return loads
        if strategy == "flush":
            return loads + [("clflush", a) for a in addresses]
        region_base = system.row_address(0, max(rows) + 64)
        region_bytes = system.module.geometry.row_bytes * 128
        program = []
        for load in loads:
            program.append(load)
            program.extend(("load", a) for a in build_eviction_set(
                system.cache, load[1], region_base, region_bytes))
        return program

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("strategy", ["naive", "flush", "eviction"])
    def test_strategy_matches_op_by_op_execution(self, scenario, engine, strategy):
        rows = [999, 1001]
        budget = scenario.timing.tREFW / 2
        replayed, reference = self._system(scenario, engine), self._system(scenario, engine)
        stats = getattr(replayed, f"{strategy}_hammer")(0, rows, 10**9, time_budget_ns=budget)
        program = self._program(reference, strategy, rows)
        assert_same_run(
            (replayed, stats),
            (reference, reference_run(reference, program, 10**9, budget)[0]),
        )
        if strategy == "flush":
            assert stats.flips > 0

    def test_cache_runs_only_until_the_fixed_point(self, scenario, monkeypatch):
        system = self._system(scenario, None)
        accesses = []
        lookup = system.cache.access
        monkeypatch.setattr(system.cache, "access", lambda address: accesses.append(address) or lookup(address))
        stats = system.naive_hammer(0, [999, 1001], 100_000)
        assert stats.loads == 200_000
        assert len(accesses) <= 6
