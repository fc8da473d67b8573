"""Turn worker outputs into the benchmark's named metrics.

End-to-end metrics come from untraced runs; per-layer metrics come
from the traced pass.  Layer self times are shares of the *traced*
wall time (wrappers inflate short, frequent calls most), so compare
them with each other and across commits, not with ``wall_s``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from perfbench.workloads import EXPERIMENTS

Metrics = Dict[str, Tuple[float, str]]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    """``{metric name: unit}`` for ``"end_to_end"`` or ``"per_layer"``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(setup_s: List[float], bare: Mapping[str, Any]) -> Metrics:
    wall = statistics.median(bare["passes_s"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (bare["peak_rss_mb"], "MB"),
        "sim_acts_per_s": (bare["sim_acts"] / wall, "1/s"),
    }


def per_layer(trace: Mapping[str, Any]) -> Metrics:
    self_s = trace["self_s"]
    calls = trace["calls"]
    counts = trace["counts"]

    def s(*buckets: str) -> Tuple[float, str]:
        return sum(self_s.get(b, 0.0) for b in buckets), "s"

    def n(value: float) -> Tuple[float, str]:
        return value, "count"

    def layer(prefix: str) -> Tuple[float, str]:
        return sum(v for k, v in self_s.items()
                   if k == prefix or k.startswith(prefix + ".")), "s"

    acts = trace["sim_acts"]
    accesses = calls.get("cpu.cache", 0)
    unattributed = trace["traced_s"] - trace["top_s"]
    off = trace["telemetry_off_s"]
    wrapped_calls = sum(calls.values())
    metrics: Metrics = {
        "first_pass_s": (trace["first_pass_s"], "s"),
        "controller.activate.calls": n(calls.get("controller.activate", 0)),
        "controller.activate.self_s": s("controller.activate"),
        "controller.pattern.self_s": s("controller.pattern"),
        "controller.refresh.ticks": n(calls.get("controller.refresh", 0)),
        "controller.refresh.self_s": s("controller.refresh"),
        "controller.victim_refresh.rows": n(counts.get("controller.victim_refresh.rows", 0)),
        "controller.victim_refresh.self_s": s("controller.victim_refresh"),
        "mitigations.on_activate.calls": n(calls.get("mitigations.on_activate", 0)),
        "mitigations.on_activate.self_s": s("mitigations.on_activate"),
        "mitigations.victim_rows_per_kact": (
            counts.get("mitigations.victim_rows", 0) * 1000.0 / acts if acts else 0.0,
            "rows/kact"),
        "dram.activate.calls": n(calls.get("dram.activate", 0)),
        "dram.activate.self_s": s("dram.activate", "dram.precharge"),
        "dram.execute.calls": n(calls.get("dram.execute", 0)),
        "dram.execute.self_s": s("dram.execute"),
        "dram.weak_cells.calls": n(calls.get("dram.weak_cells", 0)),
        "dram.weak_cells.self_s": s("dram.weak_cells"),
        "dram.refresh.rows": n(counts.get("dram.refresh.rows", 0)),
        "dram.refresh.self_s": s("dram.refresh"),
        "dram.settle.self_s": s("dram.settle"),
        "dram.sim_acts": n(acts),
        "dram.sim_flips": n(trace["sim_flips"]),
        "cpu.cache.accesses": n(accesses),
        "cpu.cache.hit_frac": (counts.get("cpu.cache.hits", 0) / accesses
                               if accesses else 0.0, "fraction"),
        "cpu.cache.self_s": s("cpu.cache", "cpu.flush"),
        "cpu.load.self_s": s("cpu.load", "cpu.clflush"),
        "cpu.hammer.self_s": s("cpu.hammer"),
        "ecc.self_s": layer("ecc"),
        "retention.self_s": layer("retention"),
        "pcm.write.calls": n(counts.get("pcm.write.calls", 0)),
        "pcm.self_s": layer("pcm"),
        "flash.self_s": layer("flash"),
        "fieldstudy.self_s": layer("fieldstudy"),
        "telemetry.counter.calls": n(calls.get("telemetry.counter", 0)),
        "telemetry.self_s": layer("telemetry"),
        "telemetry.overhead_ratio": (trace["reference_s"] / off if off else 0.0, "ratio"),
        "experiments.runner.self_s": s("experiments.runner"),
        "experiments.body.self_s": s("experiments.body"),
        "trace.overhead_ratio": (trace["traced_s"] / trace["reference_s"], "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.wall_s": (trace["traced_s"], "s"),
        "trace.wrapper_ns": (trace["wrapper_ns"], "ns"),
        "trace.wrapper_est_s": (wrapped_calls * trace["wrapper_ns"] * 1e-9, "s"),
    }
    job_s = _job_seconds(trace["reference_job_s"])
    for name in EXPERIMENTS:
        metrics[f"job.{name}.s"] = (job_s.get(name, 0.0), "s")
    return metrics


def _job_seconds(by_label: Mapping[str, float]) -> Dict[str, float]:
    """Per-experiment seconds from per-job-label seconds."""
    out: Dict[str, float] = {}
    for label, seconds in by_label.items():
        name = label.split("(", 1)[0]
        out[name] = out.get(name, 0.0) + seconds
    return out


def result_line(metrics: Metrics, attempted: int, failed: int) -> Dict[str, Any]:
    """The benchmark's final stdout line."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
