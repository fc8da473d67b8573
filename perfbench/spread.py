"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 --seconds 12 [--workloads a,b] [--out F.json]

Prints, for each workload, every end-to-end metric with its unit, the
median and quartiles over the seeds, and the spread (quartile distance
over the median) next to the metric's bound from ``BENCHMARK.json``.
``--trace`` reports the per-layer metrics instead (one run per seed).
The environment (``REPRO_DRAM_ENGINE`` included) passes through to
``run.py``, so the same command measures the other engine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.report import quartiles  # noqa: E402
from perfbench.worker import parse_seeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return {
        "seed": seed,
        "run_s": time.monotonic() - start,
        "environment": json.loads(lines[-3])["environment"],
        "report": json.loads(lines[-2])["report"],
        "result": json.loads(lines[-1]),
    }


def summarize(runs: List[Dict[str, Any]], kind: str) -> Dict[str, Any]:
    bounds = {m["name"]: m.get("bound") for m in SPEC[kind]}
    out: Dict[str, Any] = {}
    for name in bounds:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds[name], "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    kind = "per_layer" if args.trace else "end_to_end"
    record: Dict[str, Any] = {"seconds": args.seconds, "kind": kind, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, int(args.trace))
                for seed in parse_seeds(args.seeds)]
        summary = summarize(runs, kind)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        record["environment"] = runs[0]["environment"]
        record["workloads"][workload] = {
            "runs": len(runs), "ops_failed_frac": failed / attempted,
            "run_s_max": max(r["run_s"] for r in runs),
            "run_s_total": sum(r["run_s"] for r in runs),
            "metrics": summary,
        }
        print(f"{workload}: {len(runs)} runs, ops_failed_frac {failed / attempted:.3g}, "
              f"longest run {max(r['run_s'] for r in runs):.1f} s, "
              f"engine {runs[0]['environment']['dram_engine']}")
        for name, m in summary.items():
            bound = f"{m['bound']:.2f}" if m["bound"] is not None else "-"
            print(f"  {name:36s} {m['median']:14.6g} {m['unit']:10s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.3f} bound {bound}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
