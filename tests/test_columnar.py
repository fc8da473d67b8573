"""Columnar engine plumbing: engine selection, state views, the
bounded flip log, weak-cell cache eviction, batched refresh, and
telemetry symmetry between the engines."""

import numpy as np
import pytest

from repro.controller.controller import MemoryController
from repro.dram.bank import ENGINES, BankStats, DramBank, default_engine
from repro.dram.columnar import ColumnarDramBank
from repro.dram.disturbance import (
    BLOCK_ROWS,
    DisturbanceModel,
    VulnerabilityProfile,
)
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.stream import CommandStream
from repro.sanitizer import runtime as sanit
from repro.telemetry import MetricsRegistry, SpanProfiler, TraceRecorder
from repro.telemetry import runtime as telem

GEOMETRY = DramGeometry(banks=2, rows=256, row_bytes=64)

PROFILE = VulnerabilityProfile(
    weak_cell_density=0.05, hc_first_median=4_000.0,
    hc_first_min=800.0, hc_first_sigma=0.5, distance2_weight=0.1)


def make_bank(engine=None, pattern="solid1", seed=0):
    model = DisturbanceModel(GEOMETRY, PROFILE, seed)
    return DramBank(GEOMETRY, model, 0, default_pattern=pattern,
                    engine=engine)


def hammer_stream(victims=6, count=5000, first=10, stride=3):
    stream = CommandStream()
    for i in range(victims):
        v = first + stride * i
        stream.act(v - 1, count).act(v + 1, count)
    return stream.ref_all(100.0)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    prev_registry = telem.swap_registry(MetricsRegistry())
    prev_tracer = telem.swap_tracer(TraceRecorder())
    prev_profiler = telem.swap_profiler(SpanProfiler())
    telem.disable_all()
    yield
    telem.disable_all()
    telem.swap_registry(prev_registry)
    telem.swap_tracer(prev_tracer)
    telem.swap_profiler(prev_profiler)


class TestEngineSelection:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_DRAM_ENGINE", raising=False)
        assert default_engine() == "columnar"
        assert isinstance(make_bank(), ColumnarDramBank)

    def test_env_switches_to_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_DRAM_ENGINE", "reference")
        bank = make_bank()
        assert bank.engine == "reference"
        assert not isinstance(bank, ColumnarDramBank)

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DRAM_ENGINE", "reference")
        assert isinstance(make_bank(engine="columnar"), ColumnarDramBank)
        monkeypatch.setenv("REPRO_DRAM_ENGINE", "columnar")
        assert make_bank(engine="reference").engine == "reference"

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown DRAM engine"):
            make_bank(engine="quantum")
        monkeypatch.setenv("REPRO_DRAM_ENGINE", "quantum")
        with pytest.raises(ValueError):
            default_engine()

    def test_module_exposes_engine(self):
        module = DramModule(geometry=GEOMETRY, profile=PROFILE,
                            engine="reference")
        assert module.engine == "reference"
        assert all(b.engine == "reference" for b in module.banks)
        assert DramModule(geometry=GEOMETRY, profile=PROFILE,
                          engine="columnar").engine == "columnar"

    def test_engines_registry(self):
        assert set(ENGINES) == {"columnar", "reference"}


class TestColumnarViews:
    """The dict-like views must behave like the reference dicts, so
    sanitizer checkers and chaos injectors poke both engines alike."""

    def test_charge_views_track_touch_order(self):
        bank = make_bank(engine="columnar")
        bank.bulk_activate(20, 100)
        bank.bulk_activate(10, 100)
        order = list(bank._pressure)
        # Reference key order: row, row-1, row+1, row-2, row+2 per ACT.
        assert order == [20, 19, 21, 18, 22, 10, 9, 11, 8, 12]
        assert len(bank._peak) == len(order)
        assert 19 in bank._pressure
        assert 50 not in bank._pressure
        assert bank._pressure.get(50, -1.0) == -1.0
        assert bank._pressure[19] == pytest.approx(100.0)
        with pytest.raises(KeyError):
            bank._pressure[50]

    def test_charge_view_write_through(self):
        bank = make_bank(engine="columnar")
        bank._pressure[7] = 123.0
        assert bank.pressure(7) == pytest.approx(123.0)
        assert list(bank._pressure) == [7]

    def test_last_aggressor_view(self):
        bank = make_bank(engine="columnar")
        assert bank._last_aggressor.get(11) is None
        bank.bulk_activate(10, 50)
        assert bank._last_aggressor[11] == 10
        assert bank._last_aggressor.get(9) == 10
        assert 13 not in bank._last_aggressor

    def test_data_view_materializes_on_read(self):
        bank = make_bank(engine="columnar", pattern="rowstripe")
        assert 5 not in bank._data
        bits = bank.row_bits(5)  # odd row of rowstripe = 0x00
        assert 5 in bank._data
        assert not bits.any()
        assert bank.row_bits(4).all()

    def test_raw_array_poke_is_authoritative(self):
        # The chaos injector's corruption style: mutate the row array
        # in place, then read it back through the public API.
        bank = make_bank(engine="columnar")
        bank.row_bits(9)
        bank._data[9][3] ^= 1
        assert bank.row_bits(9)[3] == 0  # solid1 background is all ones

    def test_data_view_iteration_and_len(self):
        bank = make_bank(engine="columnar")
        assert len(bank._data) == 0 and not bank._data
        bank.row_bits(3)
        bank.row_bits(1)
        assert set(bank._data) == {1, 3}
        assert len(bank._data) == 2 and bank._data


class TestFlipLogCap:
    def test_env_cap_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIP_LOG_CAP", "5")
        stats = BankStats()
        assert stats.flip_log_cap == 5
        stats.record_flips(1, np.arange(8), 2.0)
        assert len(stats.flip_log) == 5
        assert stats.flips_dropped == 3
        assert stats.flips_materialized == 8
        stats.record_flips(2, np.arange(4), 3.0)
        assert len(stats.flip_log) == 5
        assert stats.flips_dropped == 7
        assert stats.flips_materialized == 12

    def test_env_cap_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIP_LOG_CAP", "off")
        stats = BankStats()
        assert stats.flip_log_cap is None
        stats.record_flips(1, np.arange(1000), 0.0)
        assert len(stats.flip_log) == 1000

    def test_batch_matches_sequential_records(self):
        a, b = BankStats(flip_log_cap=10), BankStats(flip_log_cap=10)
        events = [(3, np.array([1, 5, 9]), 1.0),
                  (7, np.array([0, 2]), 2.0),
                  (9, np.array([4, 6, 8, 10]), 3.0),
                  (2, np.array([11]), 4.0)]
        for row, bits, t in events:
            a.record_flips(row, bits, t)
        rows = np.repeat([e[0] for e in events],
                         [len(e[1]) for e in events])
        times = np.repeat([e[2] for e in events],
                          [len(e[1]) for e in events])
        b.record_flips_batch(rows, np.concatenate([e[1] for e in events]),
                             times)
        assert a.flip_log == b.flip_log
        assert a.flips_dropped == b.flips_dropped
        assert a.flips_materialized == b.flips_materialized

    def test_engine_logs_identical_under_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIP_LOG_CAP", "7")
        logs = {}
        for engine in ENGINES:
            bank = make_bank(engine=engine, pattern="rowstripe")
            bank.execute(hammer_stream())
            assert bank.stats.flip_log_cap == 7
            logs[engine] = (list(bank.stats.flip_log),
                            bank.stats.flips_dropped,
                            bank.stats.flips_materialized)
        assert logs["columnar"] == logs["reference"]
        assert logs["columnar"][1] > 0


class TestWeakCellCacheEviction:
    def test_cache_bounded_and_oldest_evicted(self):
        model = DisturbanceModel(GEOMETRY, PROFILE, seed=1)
        model.cache_limit = 2
        block0 = model.weak_cells_block(0, 0)
        model.weak_cells_block(0, BLOCK_ROWS)
        assert len(model._cache) == 2
        # A third block evicts the oldest-inserted (bank 0, start 0).
        model.weak_cells_block(1, 0)
        assert len(model._cache) == 2
        assert (0, 0) not in model._cache
        assert (0, BLOCK_ROWS) in model._cache and (1, 0) in model._cache
        # A hit refreshes nothing (insertion order, not LRU) but the
        # regenerated block must be bit-identical — the map is pure.
        again = model.weak_cells_block(0, 0)
        assert again is not block0
        np.testing.assert_array_equal(again.bits, block0.bits)
        np.testing.assert_array_equal(again.hc_first, block0.hc_first)

    def test_limit_one_never_overfills(self):
        model = DisturbanceModel(GEOMETRY, PROFILE, seed=1)
        model.cache_limit = 1
        for start in (0, BLOCK_ROWS, 0, BLOCK_ROWS):
            model.weak_cells_block(0, start)
            assert len(model._cache) == 1


class TestBatchedRefresh:
    def test_refresh_rows_matches_per_row_loop(self):
        results = {}
        for engine in ENGINES:
            bank = make_bank(engine=engine, pattern="rowstripe")
            for i in range(4):
                v = 30 + 4 * i
                bank.bulk_activate(v - 1, 5000)
                bank.bulk_activate(v + 1, 5000)
            rows = [30, 34, 38, 42, 30, 99]  # repeat + untouched row
            flips = bank.refresh_rows(rows, 50.0)
            results[engine] = (flips, list(bank.stats.flip_log),
                               bank.stats.refreshes,
                               bank.pressure(30), bank.pressure(34))
        assert results["columnar"] == results["reference"]
        assert results["columnar"][0] > 0

    def test_refresh_rows_rejects_out_of_range(self):
        bank = make_bank(engine="columnar")
        with pytest.raises(IndexError):
            bank.refresh_rows([0, GEOMETRY.rows], 0.0)

    def test_materialize_paths_agree_under_sanitizer(self, monkeypatch):
        # Sanitize-full forces the sequential reference-exact branch of
        # the batched materializer; the vectorized branch must produce
        # the same flips (same stream, sanitizer off).
        bank_fast = make_bank(engine="columnar", pattern="rowstripe")
        bank_fast.execute(hammer_stream())
        monkeypatch.setenv("REPRO_SANITIZE", "full")
        sanit.sync_from_env()
        bank_slow = make_bank(engine="columnar", pattern="rowstripe")
        bank_slow.execute(hammer_stream())
        assert bank_fast.stats.flip_log == bank_slow.stats.flip_log
        assert (bank_fast.stats.flips_materialized
                == bank_slow.stats.flips_materialized)
        assert bank_fast.stats.flips_materialized > 0


class TestScalarPathStaysSparse:
    """The per-ACT controller path — ``activate``, auto-refresh ticks,
    mitigation victim refreshes — materializes flip windows sparsely:
    no row's full bit array is ever allocated, and the flip log is the
    reference engine's."""

    VICTIM = 12  # the refresh cursor reaches it mid-pattern

    def _run(self, engine):
        module = DramModule(geometry=GEOMETRY, profile=PROFILE,
                            default_pattern="rowstripe", seed=0,
                            engine=engine)
        ctrl = MemoryController(module)
        aggressors = [self.VICTIM - 1, self.VICTIM + 1]
        ctrl.run_activation_pattern(0, aggressors, 1500)
        ctrl.refresh_neighbors(0, self.VICTIM - 1)
        ctrl.run_activation_pattern(0, aggressors, 1500)
        ctrl.refresh_neighbors(0, self.VICTIM + 1)
        return ctrl, module

    def test_double_sided_pattern_materializes_no_row(self, monkeypatch):
        # Sanitize mode deliberately takes the reference's full-row path,
        # so pin it off even when the suite runs under REPRO_SANITIZE=full.
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        sanit.sync_from_env()
        ctrl, module = self._run("columnar")
        _, reference = self._run("reference")
        assert ctrl.refresh_engine.stats.ref_commands > 0
        assert ctrl.stats.mitigation_refreshes == 4
        for bank in module.banks:
            assert bank._cs.store == {}
        log = module.bank(0).stats.flip_log
        assert log, "the pattern must flip for this check to bite"
        assert self.VICTIM in {entry[0] for entry in log}
        assert log == reference.bank(0).stats.flip_log


class TestFillCache:
    def test_periodic_pattern_shares_fill_buffers(self):
        bank = make_bank(engine="columnar", pattern="rowstripe")
        assert bank._fill_bytes(4) is bank._fill_bytes(10)
        assert bank._fill_bytes(5) is bank._fill_bytes(11)
        assert len(bank._cs.fill_cache) == 2

    def test_aperiodic_pattern_caches_per_row(self):
        bank = make_bank(engine="columnar", pattern="random")
        a, b = bank._fill_bytes(4), bank._fill_bytes(10)
        assert a is not b
        assert not np.array_equal(a, b)

    def test_set_default_pattern_invalidates_cache(self):
        bank = make_bank(engine="columnar", pattern="solid1")
        assert bank._fill_bytes(3).all()
        bank.set_default_pattern("solid0")
        assert not bank._fill_bytes(3).any()
        assert not bank.row_bits(3).any()


class TestSpanSymmetry:
    def test_bulk_activate_span_recorded_by_both_engines(self):
        telem.enable_profiling(fresh=True)
        for engine in ENGINES:
            bank = make_bank(engine=engine)
            bank.bulk_activate(10, 100)
        profile = telem.get_profiler().profile()
        count = profile.get("dram.bulk_activate")[0]
        assert count == 2

    def test_execute_span_recorded_by_columnar(self):
        telem.enable_profiling(fresh=True)
        bank = make_bank(engine="columnar")
        bank.execute(CommandStream().act(10, 5).settle())
        profile = telem.get_profiler().profile()
        assert profile.get("dram.execute")[0] == 1

    def test_no_spans_when_profiling_off(self):
        bank = make_bank(engine="columnar")
        bank.bulk_activate(10, 100)
        bank.execute(CommandStream().act(11, 5).settle())
        assert len(telem.get_profiler()) == 0


class TestMetricsSymmetry:
    def test_scalar_counters_agree_across_engines(self):
        values = {}
        for engine in ENGINES:
            registry = telem.swap_registry(MetricsRegistry())
            telem.enable_metrics()
            bank = make_bank(engine=engine, pattern="rowstripe")
            for _ in range(1200):
                bank.activate(29)
                bank.activate(31)
            bank.bulk_activate(35, 2000)
            bank.refresh_row(30)
            bank.refresh_row(99)  # undisturbed: counted, no window
            own = telem.swap_registry(registry)
            values[engine] = {
                "acts": own.value("dram_activations_total", bank=0),
                "refreshes": own.value("dram_refreshes_total", bank=0),
                "flips": own.total("dram_bit_flips_total"),
                "events": own.get("dram_flips_per_event").count,
            }
            telem.disable_all()
        assert values["columnar"] == values["reference"]
        assert values["columnar"]["acts"] == 4400
        assert values["columnar"]["flips"] > 0

    def test_counters_agree_across_engines(self):
        values = {}
        for engine in ENGINES:
            registry = telem.swap_registry(MetricsRegistry())
            telem.enable_metrics()
            bank = make_bank(engine=engine, pattern="rowstripe")
            bank.execute(hammer_stream())
            own = telem.swap_registry(registry)
            values[engine] = {
                "acts": own.value("dram_activations_total", bank=0),
                "refreshes": own.value("dram_refreshes_total", bank=0),
                "flips": own.total("dram_bit_flips_total"),
            }
            telem.disable_all()
        assert values["columnar"] == values["reference"]
        assert values["columnar"]["flips"] > 0
