"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import report, worker  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Workload, check_output, job_label, payload_digest)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = Workload("tiny", (("para_controller_check", {"iterations": 10_000}),))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(1.0)

    def inner(again: bool):
        clock.tick(2.0)
        traced_leaf()
        if again:
            traced_inner(False)  # same bucket on top: folded into this frame

    def outer():
        clock.tick(3.0)
        traced_inner(True)
        traced_inner(False)
        clock.tick(4.0)

    traced_leaf = tracer.wrap(leaf, "c")
    traced_inner = tracer.wrap(inner, "b")
    traced_outer = tracer.wrap(outer, "a")
    traced_outer()
    clock.tick(0.5)  # outside every frame
    wall = clock.now

    assert tracer.self_s == {"a": 7.0, "b": 6.0, "c": 3.0}
    assert tracer.calls == {"a": 1, "b": 2, "c": 3}
    assert tracer.top_s == 16.0
    assert tracer.check_sums(wall) is None
    assert tracer.check_sums(wall + 1.0) is None  # the extra second is unattributed
    tracer.top_s += 1.0
    assert tracer.check_sums(wall) is not None


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "x")()
    assert tracer.self_s == {"x": 1.0} and tracer.check_sums(1.0) is None


def test_install_and_restore_leave_the_program_as_it_was():
    from repro.controller.controller import MemoryController
    from repro.experiments import mitigations, registry

    before = (MemoryController.__dict__["activate"], registry.get,
              mitigations.evaluate_ladder)
    tracer = Tracer()
    install(tracer)
    assert MemoryController.__dict__["activate"] is not before[0]
    assert mitigations.evaluate_ladder is not before[2]
    tracer.restore()
    assert (MemoryController.__dict__["activate"], registry.get,
            mitigations.evaluate_ladder) == before


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_every_declared_end_to_end_metric_and_nothing_else_is_emitted():
    bare = {"passes_s": [1.0, 1.2, 1.1], "peak_rss_mb": 40.0, "sim_acts": 1000}
    metrics = report.end_to_end([0.3, 0.4, 0.35], bare)
    assert metrics.keys() == report.declared("end_to_end").keys()
    assert all(unit == report.declared("end_to_end")[k] for k, (_, unit) in metrics.items())
    assert metrics["sim_acts_per_s"][0] == pytest.approx(1000 / 1.1)


def test_a_traced_pass_emits_every_declared_per_layer_metric():
    raw = worker.mode_trace(TINY, seed=0)
    metrics = report.per_layer(raw)
    assert metrics.keys() == report.declared("per_layer").keys()
    assert all(unit == report.declared("per_layer")[k] for k, (_, unit) in metrics.items())
    assert raw["failed"] == 0 and raw["attempted"] == 3
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["controller.activate.calls"] == value["dram.activate.calls"] == value["dram.sim_acts"]
    assert value["mitigations.on_activate.calls"] > 0
    assert value["cpu.cache.accesses"] == 0 and value["telemetry.counter.calls"] == 0
    assert value["trace.unattributed_s"] >= 0


def test_a_tampered_payload_is_flagged():
    payload = {"bare_flips": 5, "para_flips": 0}
    label = job_label("para_controller_check", {})
    table = {label: {"0": payload_digest(payload)}}
    assert check_output("para_controller_check", label, 0, payload, table)[1] == []
    tampered = dict(payload, para_flips=1)
    problems = check_output("para_controller_check", label, 0, tampered, table)[1]
    assert len(problems) == 1 and "digest" in problems[0]
    # a seed with no committed digest is still held to the paper claim
    broken = dict(payload, para_flips=9)
    problems = check_output("para_controller_check", label, 7, broken, table)[1]
    assert len(problems) == 1 and "PARA" in problems[0]


def test_a_failed_output_counts_in_ops_failed_frac():
    label = job_label(*TINY.jobs[0])
    good = worker.run_pass(TINY, 0, {})
    bad = worker.run_pass(TINY, 0, {label: {"0": "0" * 64}})
    assert good["failed"] == [] and bad["failed"] == [label]
    tally = worker._tally([good, bad])
    assert (tally["attempted"], tally["failed"]) == (2, 1)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_models", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
