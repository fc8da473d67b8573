"""Sweep checkpointing: crash-safe append, schema validation, resume."""

import json
import os

import pytest

from repro.experiments import ExperimentRunner, Job, derive_seed, execute_job
from repro.experiments.checkpoint import CHECKPOINT_SCHEMA, SweepCheckpoint, job_key
from repro.experiments.registry import experiment, unregister


@pytest.fixture()
def flaky():
    """Registered experiment that raises for odd seeds."""

    @experiment("_ckpt_flaky", "fails on odd seeds", section="II", tags=("test",))
    def _ckpt_flaky(seed: int = 0):
        if seed % 2:
            raise RuntimeError(f"odd seed {seed}")
        return {"seed": seed}

    yield "_ckpt_flaky"
    unregister("_ckpt_flaky")


class TestJobKey:
    def test_matches_cache_key(self, tmp_path):
        from repro.experiments.runner import ResultCache

        cache = ResultCache(tmp_path)
        assert (cache.key("sidedness_ablation", {"a": 1}, 7)
                == job_key("sidedness_ablation", {"a": 1}, 7))

    def test_param_order_does_not_matter(self):
        assert (job_key("sidedness_ablation", {"a": 1, "b": 2}, 0)
                == job_key("sidedness_ablation", {"b": 2, "a": 1}, 0))

    def test_seed_and_params_matter(self):
        base = job_key("sidedness_ablation", {}, 0)
        assert job_key("sidedness_ablation", {}, 1) != base
        assert job_key("sidedness_ablation", {"x": 1}, 0) != base


class TestRecordAndLoad:
    def test_roundtrip_restores_full_result(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        result = execute_job("sidedness_ablation", seed=3)
        assert ckpt.record(result)
        restored = SweepCheckpoint(ckpt.path).results()
        key = job_key(result.name, result.params, result.seed)
        assert restored[key].payload == result.payload
        assert restored[key].cache_hit  # restored, not re-executed
        assert restored[key].seed == 3

    def test_record_is_idempotent(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        result = execute_job("sidedness_ablation", seed=1)
        assert ckpt.record(result)
        assert ckpt.record(result)  # dedup, still True
        assert len(SweepCheckpoint(ckpt.path)) == 1

    def test_errored_results_are_refused(self, tmp_path, flaky):
        from repro.experiments import execute_job_safe

        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        bad = execute_job_safe(flaky, seed=1)
        assert bad.error is not None
        assert not ckpt.record(bad)
        assert len(ckpt) == 0

    def test_corrupt_and_foreign_lines_are_skipped_and_counted(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.record(execute_job("sidedness_ablation", seed=0))
        with open(ckpt.path, "a") as handle:
            handle.write('{"torn": tru')  # crash mid-write
            handle.write("\n")
            handle.write(json.dumps({"schema": 999, "key": "x", "result": {}}) + "\n")
        fresh = SweepCheckpoint(ckpt.path)
        assert len(fresh.load()) == 1
        assert fresh.corrupt_lines == 2

    def test_io_failure_reports_false_not_raise(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        ckpt = SweepCheckpoint(target)  # appending to a directory fails
        assert not ckpt.record(execute_job("sidedness_ablation", seed=0))

    def test_schema_version_is_stamped(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.record(execute_job("sidedness_ablation", seed=0))
        record = json.loads(ckpt.path.read_text().splitlines()[0])
        assert record["schema"] == CHECKPOINT_SCHEMA


class TestRunnerIntegration:
    def test_resume_skips_completed_jobs_without_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        jobs = [Job("sidedness_ablation", {}, derive_seed(0, i)) for i in range(4)]
        first = ExperimentRunner(checkpoint=path, collect_metrics=True,
                                 ledger=False)
        first.run(jobs[:2])  # partial sweep, then "crash"
        resumed = ExperimentRunner(checkpoint=path, collect_metrics=True,
                                   ledger=False)
        results = resumed.run(jobs)
        assert len(results) == 4
        assert resumed.metrics.value("runner_jobs_total",
                                     cache_hit="true", outcome="ok") == 2
        assert resumed.metrics.value("runner_jobs_total",
                                     cache_hit="false", outcome="ok") == 2

    def test_resume_false_reexecutes_everything(self, tmp_path):
        path = tmp_path / "c.jsonl"
        jobs = [Job("sidedness_ablation", {}, derive_seed(0, i)) for i in range(3)]
        ExperimentRunner(checkpoint=path, ledger=False).run(jobs)
        again = ExperimentRunner(checkpoint=path, resume=False,
                                 collect_metrics=True, ledger=False)
        again.run(jobs)
        assert again.metrics.value("runner_jobs_total",
                                   cache_hit="false", outcome="ok") == 3
        # Re-running did not duplicate checkpoint records.
        assert len(SweepCheckpoint(path)) == 3

    def test_failed_jobs_rerun_on_resume(self, tmp_path, flaky):
        path = tmp_path / "c.jsonl"
        jobs = [Job(flaky, {}, s) for s in (0, 1, 2)]  # seed 1 fails
        # Both runs collect metrics: a checkpoint entry without the
        # snapshot a resumed run collects is stale and re-runs.
        first = ExperimentRunner(checkpoint=path, collect_metrics=True,
                                 ledger=False)
        results = first.run(jobs)
        assert sum(r.ok for r in results) == 2
        assert len(SweepCheckpoint(path)) == 2  # the failure is not recorded
        resumed = ExperimentRunner(checkpoint=path, collect_metrics=True,
                                   ledger=False)
        resumed.run(jobs)
        # Only the failed job re-executes (and fails again).
        assert resumed.metrics.value("runner_jobs_total",
                                     cache_hit="false", outcome="error") == 1
        assert resumed.metrics.value("runner_jobs_total",
                                     cache_hit="true", outcome="ok") == 2
