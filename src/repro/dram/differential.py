"""Differential oracle: columnar engine vs per-command reference.

The columnar engine re-derives the bank semantics as array programs;
this harness is the proof obligation that came with it.  A seeded
random :class:`~repro.dram.stream.CommandStream` (weighted toward the
shapes that stress the batched math: double-sided bursts, repeated
aggressors, distance-2-heavy profiles, interleaved refreshes and
writes) replays through both engines, and the resulting observations
must agree.  Streams replay two ways:

* **batched** — one :meth:`~repro.dram.bank.DramBank.execute` call,
  the columnar engine's array-program executor;
* **scalar** — one per-command method call per entry
  (:func:`replay_commands`): ``activate``/``bulk_activate``,
  ``precharge``, ``refresh_row``, ``refresh_all``, ``settle``,
  ``write`` and ``read``, the path the controller and CPU models take.
  :func:`random_scalar_stream` weights it toward controller-style
  interleaved single-ACT hammering.

In both modes the observations must agree:

* **exactly** — flip logs, ``BankStats`` counters, sanitizer shadow
  digests, stored row data, instantiated-row set, touch order, open
  row, and the replay's flip-count return value;
* **to float tolerance** — per-row pressure/peak, where the batched
  prefix-sum windows legitimately reassociate the reference's
  per-command additions (ulp-level differences that cannot move a
  threshold crossing except on a measure-zero set).

``repro.dram.differential`` is also importable from tests and CI: the
property suite in ``tests/test_differential.py`` runs 100+ seeds in
each mode, and the ``differential`` CI job runs it under
``REPRO_SANITIZE=full`` so the shadow-digest machinery is part of the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dram.bank import DramBank
from repro.dram.disturbance import DisturbanceModel, VulnerabilityProfile
from repro.dram.geometry import DramGeometry
from repro.dram.stream import (
    OP_ACT,
    OP_PRE,
    OP_READ,
    OP_REF_ALL,
    OP_REF_ROW,
    OP_SETTLE,
    OP_WRITE,
    CommandStream,
)
from repro.utils.rng import derive_rng

__all__ = [
    "DEFAULT_PROFILES",
    "EngineObservation",
    "diff_observations",
    "observe",
    "random_scalar_stream",
    "random_stream",
    "replay_commands",
    "replay_stream",
    "run_differential",
]

#: Geometry small enough for hundreds of replays, large enough for
#: multi-block weak-cell maps and off-edge hammering.
DEFAULT_GEOMETRY = DramGeometry(banks=1, rows=256, row_bytes=128)

#: Vulnerability profiles the suite cycles through: a mid-density
#: distance-2-free module, a distance-2-heavy one, an aggressor-
#: sensitive-saturated one, and an invulnerable control.
DEFAULT_PROFILES: Tuple[VulnerabilityProfile, ...] = (
    VulnerabilityProfile(
        weak_cell_density=0.05, hc_first_median=4_000.0,
        hc_first_min=800.0, hc_first_sigma=0.5, distance2_weight=0.0),
    VulnerabilityProfile(
        weak_cell_density=0.08, hc_first_median=3_000.0,
        hc_first_min=500.0, hc_first_sigma=0.6, distance2_weight=0.25),
    VulnerabilityProfile(
        weak_cell_density=0.05, hc_first_median=5_000.0,
        hc_first_min=1_000.0, aggressor_sensitive_fraction=0.9,
        dpd_relief=2.0, distance2_weight=0.02),
    VulnerabilityProfile(weak_cell_density=0.0),
)

_PATTERNS = ("solid1", "rowstripe", "checkered", "random")

#: In the scalar replay, ACTs with at most this count run as repeated
#: ``activate`` calls; larger counts run as one ``bulk_activate``.
SCALAR_ACT_LIMIT = 8


@dataclass
class EngineObservation:
    """Everything the equivalence contract compares, from one engine."""

    engine: str
    returned: int
    flip_log: List[tuple]
    stats: Dict[str, int]
    touch_order: List[int]
    pressure: Dict[int, float]
    peak: Dict[int, float]
    last_aggressor: Dict[int, Optional[int]]
    open_row: Optional[int]
    touched_rows: List[int]
    row_data: Dict[int, np.ndarray]
    digests: Dict[int, int] = field(default_factory=dict)


def random_stream(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    n_commands: int = 60,
    max_count: int = 6_000,
) -> CommandStream:
    """A seeded random command stream biased toward hammering shapes."""
    rng = derive_rng(seed, "diffstream")
    rows = geometry.rows
    stream = CommandStream()
    time = 0.0
    # A few anchor victims so double-sided pressure actually accumulates
    # on the same rows across the stream.
    victims = rng.integers(2, rows - 2, size=4)
    for _ in range(n_commands):
        time += float(rng.integers(1, 50))
        kind = rng.random()
        if kind < 0.45:
            # Double-sided burst on an anchor victim.
            victim = int(victims[rng.integers(len(victims))])
            count = int(rng.integers(1, max_count))
            stream.act(victim - 1, count, time)
            stream.act(victim + 1, count, time)
        elif kind < 0.62:
            # Single aggressor, possibly at the device edge.
            row = int(rng.integers(0, rows))
            stream.act(row, int(rng.integers(1, max_count)), time)
        elif kind < 0.70:
            stream.pre(time)
        elif kind < 0.78:
            stream.ref_row(int(rng.integers(0, rows)), time)
        elif kind < 0.84:
            stream.ref_all(time)
        elif kind < 0.90:
            stream.settle(time)
        elif kind < 0.96:
            bits = rng.integers(0, 2, size=geometry.row_bits).astype(np.uint8)
            stream.write(int(rng.integers(0, rows)), bits, time)
        else:
            stream.read(int(rng.integers(0, rows)), time)
    stream.settle(time + 1.0)
    return stream


def random_scalar_stream(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    n_commands: int = 60,
    max_count: int = 3_000,
    max_rounds: int = 300,
) -> CommandStream:
    """A seeded random stream for the scalar replay.

    Most entries are controller-style double-sided hammering: single
    ACTs alternating between an anchor victim's two aggressors, which
    :func:`replay_commands` issues as individual ``activate`` calls.
    Small repeated ACTs, bulk bursts, refreshes, writes and reads fill
    the rest, so windows materialize from every scalar command.
    """
    rng = derive_rng(seed, "diffscalar")
    rows = geometry.rows
    stream = CommandStream()
    time = 0.0
    victims = rng.integers(2, rows - 2, size=4)
    for _ in range(n_commands):
        time += float(rng.integers(1, 50))
        kind = rng.random()
        if kind < 0.35:
            victim = int(victims[rng.integers(len(victims))])
            for _ in range(int(rng.integers(1, max_rounds))):
                stream.act(victim - 1, 1, time)
                stream.act(victim + 1, 1, time)
                time += 1.0
        elif kind < 0.45:
            # A few ACTs of one row, possibly at the device edge.
            row = int(rng.integers(0, rows))
            stream.act(row, int(rng.integers(1, SCALAR_ACT_LIMIT + 1)), time)
        elif kind < 0.58:
            victim = int(victims[rng.integers(len(victims))])
            count = int(rng.integers(SCALAR_ACT_LIMIT + 1, max_count))
            stream.act(victim - 1, count, time)
            stream.act(victim + 1, count, time)
        elif kind < 0.64:
            stream.act(int(rng.integers(0, rows)),
                       int(rng.integers(SCALAR_ACT_LIMIT + 1, max_count)), time)
        elif kind < 0.70:
            stream.pre(time)
        elif kind < 0.76:
            stream.ref_row(int(rng.integers(0, rows)), time)
        elif kind < 0.84:
            # A mitigation's victim refresh of an anchor victim.
            stream.ref_row(int(victims[rng.integers(len(victims))]), time)
        elif kind < 0.87:
            stream.ref_all(time)
        elif kind < 0.90:
            stream.settle(time)
        elif kind < 0.95:
            bits = rng.integers(0, 2, size=geometry.row_bits).astype(np.uint8)
            stream.write(int(rng.integers(0, rows)), bits, time)
        else:
            stream.read(int(rng.integers(0, rows)), time)
    # No closing settle: its batched pass would re-instantiate every
    # pending window's rows and hide what the scalar windows did.
    return stream


def replay_commands(bank: DramBank, stream: CommandStream) -> int:
    """Replay ``stream`` through ``bank``'s per-command methods; return
    the number of flips materialized while it ran.

    ACTs of at most :data:`SCALAR_ACT_LIMIT` run as that many
    ``activate`` calls, larger ones as one ``bulk_activate``.
    """
    before = bank.stats.flips_materialized
    for cmd in stream:
        op = cmd.op
        if op == OP_ACT:
            if cmd.count <= SCALAR_ACT_LIMIT:
                for _ in range(cmd.count):
                    bank.activate(cmd.row, cmd.time)
            else:
                bank.bulk_activate(cmd.row, cmd.count, cmd.time)
        elif op == OP_PRE:
            bank.precharge()
        elif op == OP_REF_ROW:
            bank.refresh_row(cmd.row, cmd.time)
        elif op == OP_REF_ALL:
            bank.refresh_all(cmd.time)
        elif op == OP_SETTLE:
            bank.settle(cmd.time)
        elif op == OP_WRITE:
            bank.write(cmd.row, stream.payload(cmd.index), cmd.time)
        elif op == OP_READ:
            bank.read(cmd.row, cmd.time)
        else:  # pragma: no cover - builder can't produce this
            raise ValueError(f"unknown stream opcode {op}")
    return bank.stats.flips_materialized - before


def observe(bank: DramBank, returned: int) -> EngineObservation:
    """Snapshot one bank into the comparable observation form."""
    touch_order = list(bank._peak)
    stats = bank.stats
    return EngineObservation(
        engine=bank.engine,
        returned=returned,
        flip_log=list(stats.flip_log),
        stats={
            "activations": stats.activations,
            "refreshes": stats.refreshes,
            "reads": stats.reads,
            "writes": stats.writes,
            "flips_materialized": stats.flips_materialized,
            "flips_dropped": stats.flips_dropped,
            "refresh_epoch": stats.refresh_epoch,
        },
        touch_order=touch_order,
        pressure={row: bank._pressure.get(row, 0.0) for row in touch_order},
        peak={row: bank._peak.get(row, 0.0) for row in touch_order},
        last_aggressor={row: bank._last_aggressor.get(row)
                        for row in touch_order},
        open_row=bank.open_row,
        touched_rows=bank.touched_rows(),
        row_data={row: bank.row_bits(row).copy() for row in bank.touched_rows()},
        digests=dict(bank.__dict__.get("_sanit_digest") or {}),
    )


def replay_stream(
    stream: CommandStream,
    engine: str,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: VulnerabilityProfile = DEFAULT_PROFILES[0],
    seed: int = 0,
    pattern: str = "solid1",
    scalar: bool = False,
) -> EngineObservation:
    """Run ``stream`` on a fresh bank of the given engine and observe it:
    through :meth:`~repro.dram.bank.DramBank.execute`, or through
    :func:`replay_commands` when ``scalar``."""
    model = DisturbanceModel(geometry, profile, seed)
    bank = DramBank(geometry, model, 0, default_pattern=pattern, engine=engine)
    returned = replay_commands(bank, stream) if scalar else bank.execute(stream)
    return observe(bank, returned)


def diff_observations(
    reference: EngineObservation,
    candidate: EngineObservation,
    float_rtol: float = 1e-9,
    float_atol: float = 1e-6,
) -> List[str]:
    """Compare two observations; return human-readable mismatches."""
    problems: List[str] = []

    def exact(name: str, a, b) -> None:
        if a != b:
            problems.append(f"{name}: reference={a!r} vs candidate={b!r}")

    exact("returned flips", reference.returned, candidate.returned)
    exact("stats", reference.stats, candidate.stats)
    exact("open_row", reference.open_row, candidate.open_row)
    exact("touch_order", reference.touch_order, candidate.touch_order)
    exact("touched_rows", reference.touched_rows, candidate.touched_rows)
    exact("last_aggressor", reference.last_aggressor, candidate.last_aggressor)
    exact("shadow digests", reference.digests, candidate.digests)
    # Flip-log entries carry provenance: (row, bit, time, aggressor,
    # hammer, pattern, epoch).  Every field must match exactly except
    # the hammer pressure, which the columnar engine accumulates in a
    # different association order and so may differ by ulps — it gets
    # the same float tolerance as the pressure/peak maps.
    def entries_match(a: tuple, b: tuple) -> bool:
        if len(a) != len(b):
            return False
        if len(a) >= 7:
            return (a[:4] == b[:4] and a[5:] == b[5:]
                    and bool(np.isclose(a[4], b[4],
                                        rtol=float_rtol, atol=float_atol)))
        return a == b

    if (len(reference.flip_log) != len(candidate.flip_log)
            or not all(entries_match(a, b) for a, b in
                       zip(reference.flip_log, candidate.flip_log))):
        n_ref, n_can = len(reference.flip_log), len(candidate.flip_log)
        detail = f"{n_ref} vs {n_can} entries"
        for i, (a, b) in enumerate(zip(reference.flip_log, candidate.flip_log)):
            if not entries_match(a, b):
                detail += f"; first divergence at {i}: {a} vs {b}"
                break
        problems.append(f"flip_log: {detail}")
    if sorted(reference.row_data) != sorted(candidate.row_data):
        problems.append(
            f"row_data keys: {sorted(reference.row_data)} vs "
            f"{sorted(candidate.row_data)}")
    else:
        for row, bits in reference.row_data.items():
            if not np.array_equal(bits, candidate.row_data[row]):
                diff = int(np.count_nonzero(bits != candidate.row_data[row]))
                problems.append(f"row_data[{row}]: {diff} differing bits")
    for name, ref_map, can_map in (
        ("pressure", reference.pressure, candidate.pressure),
        ("peak", reference.peak, candidate.peak),
    ):
        for row, value in ref_map.items():
            other = can_map.get(row)
            if other is None or not np.isclose(
                    value, other, rtol=float_rtol, atol=float_atol):
                problems.append(
                    f"{name}[{row}]: reference={value!r} vs candidate={other!r}")
    return problems


def run_differential(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: Optional[VulnerabilityProfile] = None,
    pattern: Optional[str] = None,
    n_commands: int = 60,
    scalar: bool = False,
) -> Dict[str, object]:
    """One oracle round: random stream, both engines, full comparison.

    Profile and pattern default to a seed-derived pick from the
    built-in pools so a plain seed sweep covers the matrix.  With
    ``scalar`` the round replays a :func:`random_scalar_stream` through
    the per-command methods instead of ``execute``.
    """
    if profile is None:
        profile = DEFAULT_PROFILES[seed % len(DEFAULT_PROFILES)]
    if pattern is None:
        pattern = _PATTERNS[(seed // len(DEFAULT_PROFILES)) % len(_PATTERNS)]
    make_stream = random_scalar_stream if scalar else random_stream
    stream = make_stream(seed, geometry, n_commands=n_commands)
    reference = replay_stream(stream, "reference", geometry, profile, seed,
                              pattern, scalar)
    candidate = replay_stream(stream, "columnar", geometry, profile, seed,
                              pattern, scalar)
    problems = diff_observations(reference, candidate)
    return {
        "seed": seed,
        "pattern": pattern,
        "profile_density": profile.weak_cell_density,
        "commands": len(stream),
        "flips": reference.stats["flips_materialized"],
        "ok": not problems,
        "mismatches": problems,
    }
