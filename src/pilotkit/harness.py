"""Experiment driver: runs scaling/heterogeneity workloads and summarizes.

Experiment cells run on the simulated fabric (virtual clock), one session
per cell and repetition. Durations and node counts are desk-scale analogues
of large-machine runs: durations are scaled down by ~10^3 while node counts
are simulated at full count; every summary states this in its header.
"""

from __future__ import annotations

import csv
import json
import os
import random
import statistics
from dataclasses import dataclass, field

from .analytics import compute_utilization, load_session_traces
from .client import Session
from .core import Fabric, JsonRecord, PilotDescription, TaskDescription

KINDS = ("weak", "strong", "hetero_weak", "hetero_strong")

SCALE_NOTE = "desk-scale analogue: durations x1e-3, node counts simulated at full count"


@dataclass
class ExperimentSpec(JsonRecord):
    """An experiment spec. Each ``pilots`` entry holds the keys of a
    :class:`PilotDescription` less those :func:`pilot_from_cell` sets."""

    kind: str
    pilots: list[dict]
    tasks_per_pilot: list[int]
    cores_per_task: object = 1            # int or [lo, hi]
    gpus_per_task: object = 0             # int or [lo, hi]
    duration_mean_s: float = 1.0
    duration_std_s: float = 0.0
    duration_range_s: list | None = None  # overrides mean/std when set
    mpi_fraction: float = 0.0
    latency_model: dict = field(default_factory=dict)
    repetitions: int = 1
    seed: int = 0
    bootstrap_s: float = 0.1
    teardown_s: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if len(self.pilots) != len(self.tasks_per_pilot):
            raise ValueError("pilots and tasks_per_pilot must align")
        pds = [pilot_from_cell(self, cell, "check") for cell in range(len(self.pilots))]
        if self.kind == "strong" and len(set(self.tasks_per_pilot)) != 1:
            raise ValueError("strong scaling fixes the task count across pilots")
        if self.kind in ("weak", "hetero_weak"):
            ratios = {round(t / pd.total_cores, 9) for t, pd in zip(self.tasks_per_pilot, pds)}
            if len(ratios) != 1:
                raise ValueError("weak scaling keeps tasks/cores ratio constant")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _draw(spec_value, rng: random.Random) -> int:
    if isinstance(spec_value, (list, tuple)):
        lo, hi = spec_value
        return rng.randint(int(lo), int(hi))
    return int(spec_value)


def generate_tasks(spec: ExperimentSpec, count: int, rng: random.Random) -> list[TaskDescription]:
    tds = []
    for i in range(count):
        cores = _draw(spec.cores_per_task, rng)
        gpus = _draw(spec.gpus_per_task, rng)
        if spec.duration_range_s is not None:
            lo, hi = spec.duration_range_s
            args = ("--duration", "%.6f" % rng.uniform(lo, hi))
        else:
            args = ("--mean", "%.6f" % spec.duration_mean_s,
                    "--std", "%.6f" % spec.duration_std_s)
        mpi = rng.random() < spec.mpi_fraction
        tds.append(TaskDescription(
            uid=f"t{i:06d}",
            executable="pilotkit-emulate",
            arguments=args,
            cores_per_task=cores,
            gpus_per_task=gpus,
            uses_mpi=mpi,
        ))
    return tds


def pilot_from_cell(spec: ExperimentSpec, cell: int, uid: str) -> PilotDescription:
    """The simulated pilot of one cell: its ``pilots`` entry plus the keys
    the spec sets for every cell; dict() refuses an entry that sets one."""
    return PilotDescription.from_dict(dict(
        **spec.pilots[cell], uid=uid, fabric=Fabric.SIMULATED,
        latency_model=spec.latency_model, bootstrap_s=spec.bootstrap_s,
        teardown_s=spec.teardown_s))


def run_cell(spec: ExperimentSpec, cell: int, rep: int, out_dir: str,
             dvm_failures: list[tuple[int, float]] | None = None) -> dict:
    """Run one (pilot size, repetition) cell; returns its metric row."""
    seed = spec.seed + rep
    session = Session(out_dir, seed=seed, uid=f"cell{cell:02d}_rep{rep}")
    try:
        pd = pilot_from_cell(spec, cell, uid=f"pilot_c{cell:02d}")
        pm = session.create_pilot_manager()
        pilot = pm.submit_pilot(pd)
        if dvm_failures:
            pilot.dvm_failures = dvm_failures
        tm = session.create_task_manager()
        rng = random.Random(seed)
        tds = generate_tasks(spec, spec.tasks_per_pilot[cell], rng)
        handles = tm.submit_tasks(tds)
        states = tm.wait_tasks([h for h in handles if not isinstance(h, Exception)],
                               timeout_s=3600.0)
    finally:
        session.close()
    trace = load_session_traces(pilot.trace_dir)
    report = compute_utilization(trace, pd)
    return {
        "cell": cell,
        "rep": rep,
        "cores": pd.total_cores,
        "tasks": len(tds),
        "done": sum(1 for s in states if s == "DONE"),
        "generations": report.generations,
        "ttx_s": report.ttx_s,
        "ovh_pct": report.ovh_pct,
        "ru_pct": report.ru_pct,
        "session_dir": session.directory,
        "trace_dir": pilot.trace_dir,
    }


def run_experiment(spec: ExperimentSpec, out_dir: str) -> list[dict]:
    """Run all cells x repetitions; write summary.csv; return raw rows."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for cell in range(len(spec.pilots)):
        for rep in range(spec.repetitions):
            try:
                rows.append(run_cell(spec, cell, rep, out_dir))
            except Exception as exc:
                rows.append({"cell": cell, "rep": rep, "error": repr(exc)})
    write_summary(spec, rows, os.path.join(out_dir, "summary.csv"))
    return rows


def write_summary(spec: ExperimentSpec, rows: list[dict], path: str):
    by_cell: dict[int, list[dict]] = {}
    for r in rows:
        by_cell.setdefault(r["cell"], []).append(r)
    with open(path, "w", newline="") as fh:
        fh.write(f"# kind={spec.kind}; {SCALE_NOTE}\n")
        w = csv.writer(fh)
        w.writerow(["cell", "cores", "tasks", "generations",
                    "ttx_mean_s", "ttx_std_s", "ovh_mean_pct", "ru_mean_pct",
                    "complete"])
        for cell in sorted(by_cell):
            cell_rows = by_cell[cell]
            good = [r for r in cell_rows if "error" not in r]
            if not good:
                w.writerow([cell, "", "", "", "", "", "", "", "incomplete"])
                continue
            ttxs = [r["ttx_s"] for r in good]
            w.writerow([
                cell,
                good[0]["cores"],
                good[0]["tasks"],
                good[0]["generations"],
                "%.6f" % statistics.fmean(ttxs),
                "%.6f" % (statistics.stdev(ttxs) if len(ttxs) > 1 else 0.0),
                "%.6f" % statistics.fmean(r["ovh_pct"] for r in good),
                "%.6f" % statistics.fmean(r["ru_pct"] for r in good),
                "ok" if len(good) == len(cell_rows) else
                f"{len(cell_rows) - len(good)} failed",
            ])

