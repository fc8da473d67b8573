"""Registry-workload benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ctrl_hammer --seed 0 --seconds 12 --trace 0

``--trace 0`` times the workload untraced and with the program's
telemetry off (unless the workload is ``telemetry_on``) and reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics.  Every measurement runs in a fresh child interpreter
(``perfbench/worker.py``), so set-up time and peak RSS belong to this
workload alone.  Before the result, stdout carries two JSON lines: the
run environment and a report with spreads, pass counts and any output
problems.  The last stdout line is the result object; the exit code is
non-zero, with no result, when a measurement could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 2, 3  # fresh interpreters timed for setup_s
DEADLINE_S = 170.0  # the whole run, set-up children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
NOT_COMPARABLE_VARS = ("REPRO_SANITIZE", "REPRO_CHAOS", "REPRO_CAPTURE")


class BenchError(RuntimeError):
    """A measurement could not be made; the run reports no result."""


def child_env() -> Dict[str, str]:
    """This process's environment, with ``src`` importable, the run
    ledger off, string hashing pinned and every BLAS/OpenMP pool capped
    at ``nproc`` threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_LEDGER"] = "off"
    env["PYTHONHASHSEED"] = "0"  # same seed, same interpreter behaviour, run to run
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def run_child(mode: str, args: List[str], env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} measurement")
    cmd = [sys.executable, "-m", "perfbench.worker", mode, *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} measurement ran past the run's deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} worker exited {done.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_sha() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git; ``None``
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    """Lines of Python under ``src/`` (ROADMAP's code-size trajectory)."""
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def not_comparable(env: Dict[str, str], engines: Dict[str, Any]) -> List[str]:
    """Why this run must not be mixed into the baseline (empty if it may)."""
    reasons = [f"{var}={env[var]!r} is set" for var in NOT_COMPARABLE_VARS
               if env.get(var, "").strip().lower() not in ("", "off")]
    if engines["engine"] != engines["default_engine"]:
        reasons.append(f"REPRO_DRAM_ENGINE selects {engines['engine']!r}, "
                       f"not the default {engines['default_engine']!r}")
    return reasons


def environment(env: Dict[str, str], engines: Dict[str, Any]) -> Dict[str, Any]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    reasons = not_comparable(env, engines)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "dram_engine": engines["engine"],
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "src_lines": src_lines(),
        "fresh_process_per_workload": True,
        "load": "closed loop, 1 client, jobs one after another, no worker pool",
        "comparable_to_baseline": not reasons,
        "not_comparable_because": reasons,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setups(n: int) -> List[Dict[str, Any]]:
        return [run_child("setup", common, env, deadline) for _ in range(n)]

    try:
        if args.trace:
            setup = setups(1)
            raw = run_child("trace", common, env, deadline)
            metrics = report.per_layer(raw)
            extra: Dict[str, Any] = {}
        else:
            # set-up samples before and after the passes, so a slow spell
            # of the host does not bias all of them
            setup = setups(SETUP_BEFORE)
            raw = run_child("bare", common + ["--seconds", str(args.seconds)], env, deadline)
            setup += setups(SETUP_AFTER)
            metrics = report.end_to_end([s["setup_s"] for s in setup], raw)
            q1, median, q3 = report.quartiles(raw["passes_s"])
            extra = {
                "wall_s_q1": q1, "wall_s_q3": q3, "passes": len(raw["passes_s"]),
                "first_pass_s": raw["first_pass_s"],
                "setup_s_all": [s["setup_s"] for s in setup],
                "job_median_s": {label: statistics.median(v)
                                 for label, v in raw["job_s"].items()},
                "sim_acts": raw["sim_acts"], "sim_flips": raw["sim_flips"],
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    expected = report.declared(kind)
    if set(metrics) != set(expected):
        print(f"benchmark bug: emitted {sorted(set(metrics) ^ set(expected))} "
              f"differ from BENCHMARK.json's {kind}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(env, setup[0])}))
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed,
        "ops_failed_frac": raw["failed"] / raw["attempted"],
        "problems": raw["problems"], **extra}}))
    print(json.dumps(report.result_line(metrics, raw["attempted"], raw["failed"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
