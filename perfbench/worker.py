"""One measurement in a fresh interpreter; ``run.py`` starts these.

    python3 -m perfbench.worker setup   --workload W --seed N
    python3 -m perfbench.worker bare    --workload W --seed N --seconds S
    python3 -m perfbench.worker trace   --workload W --seed N
    python3 -m perfbench.worker digests --seeds 0-9 [--workload W]

Run from the repository root with ``src`` on ``PYTHONPATH``.  Each mode
prints one JSON object as the last line of stdout; anything the
experiments print goes to stderr.  Jobs run one after another in this
process (a closed loop with one client and no worker pool).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

from perfbench.workloads import (
    DIGESTS_PATH, WORKLOADS, Workload, check_output, job_label, load_digests)

#: A ``wall_s`` median rests on at least this many warm passes, even
#: when one pass outlasts ``--seconds`` (``ctrl_hammer``'s takes ~10 s).
MIN_WARM_PASSES = 2


def run_pass(workload: Workload, seed: int, digests: Mapping[str, Mapping[str, str]],
             telemetry: Optional[bool] = None) -> Dict[str, Any]:
    """Run every job once; time each ``execute_job`` call and check its
    output afterwards (outside the timed region)."""
    from repro.experiments import runner

    if telemetry is None:
        telemetry = workload.telemetry
    gc.collect()
    out: Dict[str, Any] = {"wall_s": 0.0, "job_s": {}, "digests": {}, "failed": [],
                           "problems": []}
    for name, params in workload.jobs:
        label = job_label(name, params)
        start = time.perf_counter()
        try:
            result = runner.execute_job(name, params=params, seed=seed,
                                        collect_metrics=telemetry,
                                        collect_physics=telemetry)
        except Exception as exc:  # a failing job is counted, not fatal
            elapsed = time.perf_counter() - start
            digest = None
            problems = [f"{label} seed {seed}: raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            digest, problems = check_output(name, label, seed, result.payload, digests)
        out["wall_s"] += elapsed
        out["job_s"][label] = elapsed
        out["digests"][label] = digest
        if problems:
            out["failed"].append(label)
            out["problems"] += problems
    return out


def _agree(reference: Dict[str, Any], other: Dict[str, Any], what: str) -> None:
    """Count a job of ``other`` as failed when its digest differs from
    the same job's digest in ``reference``."""
    for label, digest in other["digests"].items():
        if digest != reference["digests"].get(label) and label not in other["failed"]:
            other["failed"].append(label)
            other["problems"].append(f"{label}: {what} payload differs from the first pass")


def _tally(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    problems = [p for one in passes for p in one["problems"]]
    return {
        "attempted": sum(len(one["job_s"]) for one in passes),
        "failed": sum(len(one["failed"]) for one in passes),
        "problems": problems[:20],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(workload: Workload, seed: int) -> Dict[str, Any]:
    """Seconds to import ``repro`` and resolve the workload's specs, plus
    the DRAM engine in use and the one the program selects by default."""
    start = time.perf_counter()
    from repro.experiments import registry, runner  # noqa: F401

    for name, params in workload.jobs:
        registry.get(name).bind(params=params, seed=seed)
    setup_s = time.perf_counter() - start
    from repro.dram.bank import ENV_ENGINE, default_engine

    engine = default_engine()
    os.environ.pop(ENV_ENGINE, None)
    return {"setup_s": setup_s, "engine": engine, "default_engine": default_engine()}


def mode_bare(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """A cold first pass, then warm passes for ``seconds`` (at least
    :data:`MIN_WARM_PASSES`)."""
    from perfbench.tracer import ModuleCensus

    digests = load_digests()
    census = ModuleCensus()
    census.install()
    try:
        first = run_pass(workload, seed, digests)
    finally:
        census.uninstall()
    gc.collect()
    acts, flips = census.totals()
    warm: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - start < seconds:
        warm.append(run_pass(workload, seed, digests))
        _agree(first, warm[-1], "warm")
    return {
        "first_pass_s": first["wall_s"],
        "passes_s": [one["wall_s"] for one in warm],
        "job_s": {label: [one["job_s"][label] for one in warm] for label in first["job_s"]},
        "sim_acts": acts,
        "sim_flips": flips,
        "peak_rss_mb": _peak_rss_mb(),
        **_tally([first] + warm),
    }


def mode_trace(workload: Workload, seed: int) -> Dict[str, Any]:
    """Warm-up pass, untraced reference pass(es), then the traced pass."""
    from perfbench.tracer import ModuleCensus, Tracer, install, wrapper_cost_ns

    digests = load_digests()
    wrapper_ns = wrapper_cost_ns()
    warmup = run_pass(workload, seed, digests)
    passes = [warmup]
    telemetry_off_s = None
    if workload.telemetry:
        off = run_pass(workload, seed, digests, telemetry=False)
        _agree(warmup, off, "telemetry-off")
        passes.append(off)
        telemetry_off_s = off["wall_s"]
    reference = run_pass(workload, seed, digests)
    _agree(warmup, reference, "reference")
    passes.append(reference)

    tracer = Tracer()
    census = ModuleCensus()
    install(tracer)
    census.install()
    try:
        traced = run_pass(workload, seed, digests)
    finally:
        census.uninstall()
        tracer.restore()
    gc.collect()
    _agree(warmup, traced, "traced")
    passes.append(traced)
    mismatch = tracer.check_sums(traced["wall_s"])
    if mismatch is not None:
        traced["failed"].append("trace")
        traced["problems"].append(f"trace self-time sum: {mismatch}")
    acts, flips = census.totals()
    return {
        "first_pass_s": warmup["wall_s"],
        "reference_s": reference["wall_s"],
        "reference_job_s": reference["job_s"],
        "telemetry_off_s": telemetry_off_s,
        "traced_s": traced["wall_s"],
        "top_s": tracer.top_s,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "sim_acts": acts,
        "sim_flips": flips,
        "wrapper_ns": wrapper_ns,
        **_tally(passes),
    }


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def mode_digests(seeds: List[int], names: List[str]) -> Dict[str, Any]:
    """Record payload digests for ``seeds`` into the committed table.

    Only for a program whose outputs are known good: a seed whose
    payload breaks a paper claim is reported and not recorded.
    """
    table = load_digests()
    refused: List[str] = []
    for name in names:
        for seed in seeds:
            done = run_pass(WORKLOADS[name], seed, {}, telemetry=False)
            if done["problems"]:
                refused += done["problems"]
                continue
            for label, digest in done["digests"].items():
                table.setdefault(label, {})[str(seed)] = digest
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"refused": refused}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "bare", "trace", "digests"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)
    if args.mode != "digests" and args.workload is None:
        parser.error("--workload is required")
    with contextlib.redirect_stdout(sys.stderr):
        if args.mode == "setup":
            out = mode_setup(WORKLOADS[args.workload], args.seed)
        elif args.mode == "bare":
            out = mode_bare(WORKLOADS[args.workload], args.seed, args.seconds)
        elif args.mode == "trace":
            out = mode_trace(WORKLOADS[args.workload], args.seed)
        else:
            names = [args.workload] if args.workload else sorted(WORKLOADS)
            out = mode_digests(parse_seeds(args.seeds), names)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
