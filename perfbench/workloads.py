"""The benchmark's workloads and the check on every job's output.

A workload is a fixed list of registry jobs; the benchmark's ``--seed``
is passed as ``seed=`` to each.  A job's output passes when its payload
digest matches the committed table (for seeds the table holds) and the
paper-claim predicates for its experiment hold (for every seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Tuple[Tuple[str, Mapping[str, Any]], ...]
    telemetry: bool = False  # run as ``repro run --metrics --physics`` does


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ctrl_hammer", (("mitigation_comparison", {}),)),
    Workload("cpu_hammer", (("userlevel_attack_study", {}),)),
    Workload("bulk_models", (
        ("ecc_study", {"victims": 2000}),
        ("retention_study", {}),
        ("pcm_study", {}),
        ("fcr_study", {}),
        ("twostep_lifetime_study", {}),
        ("fleet_study", {}),
    )),
    Workload("telemetry_on", (
        ("pcm_study", {}),
        ("para_controller_check", {}),
    ), telemetry=True),
)}

#: Every experiment some workload runs, in a stable order.
EXPERIMENTS: Tuple[str, ...] = tuple(sorted({
    name for w in WORKLOADS.values() for name, _ in w.jobs}))


def job_label(name: str, params: Mapping[str, Any]) -> str:
    """``ecc_study(victims=2000)``; a bare name when there are no params."""
    if not params:
        return name
    args = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({args})"


def payload_digest(payload: Any) -> str:
    """sha256 of the payload's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Paper-claim predicates: each returns the claims the payload breaks.
# ----------------------------------------------------------------------
def _mitigation_comparison(p: Any) -> List[str]:
    flips = {row["name"]: row["residual_flips"] for row in p}
    none = flips["none"]
    broken = [] if none > 0 else ["unprotected run has no residual flips"]
    broken += [f"{name} leaves {n} flips, not fewer than none's {none}"
               for name, n in flips.items() if name != "none" and n >= none]
    return broken


def _userlevel_attack_study(p: Any) -> List[str]:
    rows = {row["strategy"]: row for row in p["rows"]}
    broken = []
    if not rows["flush"]["flips"] > rows["naive"]["flips"]:
        broken.append("CLFLUSH does not flip more than plain loads")
    if not p["eviction_on_weak_module"]["flips"] > 0:
        broken.append("eviction sets do not flip the weak module")
    return broken


def _para_controller_check(p: Any) -> List[str]:
    if p["para_flips"] < p["bare_flips"]:
        return []
    return [f"PARA leaves {p['para_flips']} flips vs bare {p['bare_flips']}"]


def _pcm_study(p: Any) -> List[str]:
    factor = p["improvement_factor"]
    return [] if factor > 10 else [f"Start-Gap improvement {factor:.3g} <= 10"]


def _ecc_study(p: Any) -> List[str]:
    return [] if p["multi_flip_fraction"] > 0 else ["no multi-flip words"]


CLAIMS: Dict[str, Callable[[Any], List[str]]] = {
    "mitigation_comparison": _mitigation_comparison,
    "userlevel_attack_study": _userlevel_attack_study,
    "para_controller_check": _para_controller_check,
    "pcm_study": _pcm_study,
    "ecc_study": _ecc_study,
}


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """``{job label: {seed: digest}}``; empty when no table is committed."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def check_output(name: str, label: str, seed: int, payload: Any,
                 digests: Mapping[str, Mapping[str, str]]) -> Tuple[str, List[str]]:
    """``(digest, problems)`` for one job's payload; no problems = correct."""
    digest = payload_digest(payload)
    problems: List[str] = []
    expected: Optional[str] = digests.get(label, {}).get(str(seed))
    if expected is not None and expected != digest:
        problems.append(f"{label} seed {seed}: payload digest {digest[:12]} "
                        f"!= committed {expected[:12]}")
    claim = CLAIMS.get(name)
    if claim is not None:
        try:
            problems += [f"{label} seed {seed}: {msg}" for msg in claim(payload)]
        except (KeyError, TypeError, IndexError) as exc:
            problems.append(f"{label} seed {seed}: payload shape: {exc!r}")
    return digest, problems
