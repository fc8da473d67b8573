"""The per-job collector table: one lifecycle for metrics, spans and physics.

Every behaviour the runner promises each collector kind — a job's sink
is isolated from the caller's, snapshots merge parent-side across pool
workers, stored snapshots are re-absorbed on a cache hit, and a stored
result missing a requested seeded snapshot is a miss — is tested once,
parametrised over :data:`repro.telemetry.COLLECTORS`.  Each kind keeps
its domain assertion in :func:`_assert_totals`.
"""

import pytest

from repro.experiments import ExperimentRunner, Job, execute_job
from repro.telemetry import COLLECTORS
from repro.telemetry import runtime as telem

KINDS = list(COLLECTORS)
SEEDED = [kind for kind, row in COLLECTORS.items() if row.seeded]
PARAMS = {"victims": 16}


@pytest.fixture(autouse=True)
def _pristine_collectors():
    """Every test sees fresh, disabled global sinks of every kind."""
    saved = [(row, row.swap(row.sink_type())) for row in COLLECTORS.values()]
    telem.disable_all()
    yield
    telem.disable_all()
    for row, previous in saved:
        row.swap(previous)


def _assert_totals(kind, merged, results):
    """The kind's merged view agrees with what the jobs report."""
    flips = sum(r.payload["bit_flips"] for r in results)
    if kind == "metrics":
        assert merged.total("dram_activations_total") == sum(
            r.payload["activations"] for r in results)
        assert merged.total("dram_bit_flips_total") == flips
    elif kind == "physics":
        assert merged.total_flips() == merged.total_provenance_flips() == flips
    else:
        assert merged.get("job{name=rowhammer_basic}")[0] == len(results)
    if kind != "profile":
        assert flips > 0  # the check is not vacuous


def _merge(kind, results):
    merged = COLLECTORS[kind].merged()
    for result in results:
        merged.merge(getattr(result, kind))
    return merged


def _totals(kind, runner):
    """A kind-independent digest of the runner's merged view."""
    merged = getattr(runner, kind)
    if kind == "metrics":
        return (merged.total("dram_activations_total"),
                merged.total("dram_bit_flips_total"))
    return (merged.total_flips(), merged.total_activations(),
            len(merged.heat_rows()))


@pytest.mark.parametrize("was_on", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("kind", KINDS)
def test_execute_job_restores_caller_sink(kind, was_on):
    row = COLLECTORS[kind]
    sentinel = row.enable(fresh=True)
    if not was_on:
        row.disable()
    result = execute_job("rowhammer_basic", params=PARAMS, seed=0,
                         **{f"collect_{kind}": True})
    # the caller's sink came back untouched, its guard as it was
    assert row.get() is sentinel
    assert row.on is was_on
    assert not sentinel  # the job recorded into its own sink
    assert all(getattr(result, other) is None for other in KINDS if other != kind)
    _assert_totals(kind, _merge(kind, [result]), [result])


@pytest.mark.parametrize("kind", KINDS)
def test_pool_workers_merge_into_parent(kind):
    runner = ExperimentRunner(max_workers=2, ledger=False,
                              **{f"collect_{kind}": True})
    results = runner.run([Job("rowhammer_basic", PARAMS, seed)
                          for seed in (0, 1, 2)])
    assert all(r.ok and getattr(r, kind) is not None for r in results)
    _assert_totals(kind, getattr(runner, kind), results)
    if kind == "metrics":
        assert runner.metrics.value("runner_jobs_total",
                                    cache_hit="false", outcome="ok") == 3


@pytest.mark.parametrize("kind", SEEDED)
def test_cache_hit_reabsorbs(kind, tmp_path):
    flag = {f"collect_{kind}": True}
    first = ExperimentRunner(cache_dir=tmp_path, ledger=False, **flag)
    miss = first.run_one("rowhammer_basic", params=PARAMS, seed=7)
    assert not miss.cache_hit
    second = ExperimentRunner(cache_dir=tmp_path, ledger=False, **flag)
    hit = second.run_one("rowhammer_basic", params=PARAMS, seed=7)
    assert hit.cache_hit
    assert getattr(hit, kind) == getattr(miss, kind)  # survived the disk trip
    _assert_totals(kind, getattr(second, kind), [miss])
    if kind == "metrics":
        assert second.metrics.value("runner_jobs_total",
                                    cache_hit="true", outcome="ok") == 1


@pytest.mark.parametrize("store", ["cache", "checkpoint"])
@pytest.mark.parametrize("kind", SEEDED)
def test_stored_result_without_requested_snapshot_reruns(kind, store, tmp_path):
    """A result stored with telemetry off must not stand in for a run
    that asked for a seeded snapshot: the job re-runs, and its richer
    result is what a later run reuses."""
    place = ({"cache_dir": tmp_path / "cache"} if store == "cache"
             else {"checkpoint": tmp_path / "sweep.jsonl"})
    flag = {f"collect_{kind}": True}
    ExperimentRunner(ledger=False, **place).sweep("rowhammer_basic", seeds=2)

    uncached = ExperimentRunner(ledger=False, **flag)
    uncached.sweep("rowhammer_basic", seeds=2)
    expected = _totals(kind, uncached)

    rerun = ExperimentRunner(ledger=False, **place, **flag)
    results = rerun.sweep("rowhammer_basic", seeds=2)
    assert _totals(kind, rerun) == expected
    assert not any(r.cache_hit for r in results)

    if store == "cache":
        warm = ExperimentRunner(ledger=False, **place, **flag)
        results = warm.sweep("rowhammer_basic", seeds=2)
        assert all(r.cache_hit for r in results)
        assert _totals(kind, warm) == expected


def test_missing_profile_still_hits_the_cache(tmp_path):
    """Spans time the host, so a stored result without one still serves
    a profiled run."""
    ExperimentRunner(cache_dir=tmp_path, ledger=False).run_one(
        "rowhammer_basic", params=PARAMS, seed=0)
    runner = ExperimentRunner(cache_dir=tmp_path, ledger=False,
                              collect_profile=True)
    assert runner.run_one("rowhammer_basic", params=PARAMS, seed=0).cache_hit
