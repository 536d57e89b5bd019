"""Post-mortem trace analytics: TTX, utilization breakdown, time series.

All accounting runs on integer microseconds so the per-slot utilization
partition sums to the available core-time with zero residual. GPU slots are
tracked for placement correctness but excluded from the core-time
denominator.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

from .core import PilotkitError, PilotDescription
from .scheduler import Placement
from .tracer import EVENTS, UNKNOWN_RANK

US = 1_000_000

CATEGORIES = ("pilot_startup", "warmup", "prepare_exec", "exec_cmd", "idle", "drain")


class ManifestMissing(PilotkitError):
    pass


class IncompleteTrace(PilotkitError):
    pass


class NoTasks(PilotkitError):
    pass


class UnwritableOutput(PilotkitError):
    pass


@dataclass(frozen=True)
class TraceEvent:
    ts_us: int
    component: str
    name: str
    task_uid: str
    detail: str

    @property
    def ts(self) -> float:
        return self.ts_us / US


@dataclass
class Trace:
    events: list[TraceEvent]
    manifest: dict
    corrupt_lines: int = 0

    def by_name(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def first(self, name: str) -> TraceEvent | None:
        for e in self.events:
            if e.name == name:
                return e
        return None

    def last(self, name: str) -> TraceEvent | None:
        out = None
        for e in self.events:
            if e.name == name:
                out = e
        return out


def load_session_traces(directory: str) -> Trace:
    """Parse all component trace files, apply clock offsets, sort globally."""
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ManifestMissing(f"no manifest.json in {directory}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    events: list[TraceEvent] = []
    corrupt = 0
    for comp in manifest.get("components", []):
        path = os.path.join(directory, comp["file"])
        offset_us = round(comp.get("clock_offset_s", 0.0) * US)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(",", 4)
                if len(parts) != 5:
                    corrupt += 1
                    continue
                try:
                    ts_us = round(float(parts[0]) * US) + offset_us
                except ValueError:
                    corrupt += 1
                    continue
                events.append(TraceEvent(ts_us, parts[1], parts[2], parts[3], parts[4]))
    events.sort(key=lambda e: (e.ts_us, EVENTS.get(e.name, UNKNOWN_RANK)))
    return Trace(events=events, manifest=manifest, corrupt_lines=corrupt)


def compute_ttx(trace: Trace) -> float:
    """Workload time-to-execution: first task pull to last completion ack."""
    first_pull = trace.first("db_bridge_pull")
    last_ret = trace.last("spawn_return")
    if first_pull is None or last_ret is None:
        raise NoTasks("trace has no completed tasks")
    return (last_ret.ts_us - first_pull.ts_us) / US


def parse_schedule_detail(detail: str, uid: str) -> tuple[Placement, int | None, bool]:
    """Split a schedule_ok detail into (placement, dvm_id, uses_mpi)."""
    fields = detail.split("|")
    placement = Placement.deserialize(uid, fields[0])
    dvm_id = None
    mpi = False
    for f in fields[1:]:
        if f.startswith("dvm="):
            dvm_id = int(f[4:])
        elif f.startswith("mpi="):
            mpi = f[4:] == "1"
    return placement, dvm_id, mpi


@dataclass
class TaskTimeline:
    uid: str
    placement: Placement
    uses_mpi: bool
    sched_us: int
    prep_us: int | None = None
    last_prep_us: int | None = None
    exec_start_us: int | None = None
    exec_stop_us: int | None = None
    return_us: int | None = None

    @property
    def complete(self) -> bool:
        return None not in (self.prep_us, self.exec_start_us,
                            self.exec_stop_us, self.return_us)


def task_timelines(trace: Trace) -> dict[str, TaskTimeline]:
    """Collect per-task lifecycle timelines (last attempt wins for retries)."""
    out: dict[str, TaskTimeline] = {}
    for e in trace.events:
        if e.name == "schedule_ok":
            placement, _, mpi = parse_schedule_detail(e.detail, e.task_uid)
            out[e.task_uid] = TaskTimeline(
                uid=e.task_uid, placement=placement, uses_mpi=mpi, sched_us=e.ts_us)
        elif e.task_uid in out:
            tl = out[e.task_uid]
            if e.name == "prepare_start":
                if tl.prep_us is None:
                    tl.prep_us = e.ts_us
                tl.last_prep_us = e.ts_us
            elif e.name == "exec_start":
                tl.exec_start_us = e.ts_us
            elif e.name == "exec_stop":
                tl.exec_stop_us = e.ts_us
            elif e.name == "spawn_return":
                tl.return_us = e.ts_us
    return out


@dataclass
class UtilizationReport:
    ttx_s: float
    total_core_s: float
    breakdown: dict[str, float]
    ru_pct: float
    ovh_pct: float
    tasks: int
    generations: int
    cores: int
    breakdown_us: dict[str, int] = field(default_factory=dict)
    total_core_us: int = 0


def compute_utilization(trace: Trace, pd: PilotDescription) -> UtilizationReport:
    """Partition every core slot's timeline into the six categories.

    pilot_startup: pilot_start -> agent_ready; warmup: agent_ready -> the
    slot's first prepare_start; prepare_exec: prepare_start -> exec_start;
    exec_cmd: exec_start -> exec_stop; drain: completion acknowledgment
    (exec_stop -> spawn_return) plus post-workload teardown; idle: the rest.
    The partition is exact in integer microseconds.
    """
    start = trace.first("pilot_start")
    ready = trace.first("agent_ready")
    stop = trace.last("agent_stop")
    if start is None or ready is None or stop is None:
        raise IncompleteTrace("missing pilot_start/agent_ready/agent_stop events")
    P, R, S = start.ts_us, ready.ts_us, stop.ts_us

    timelines = task_timelines(trace)
    incomplete = [uid for uid, tl in timelines.items() if not tl.complete]
    if incomplete:
        raise IncompleteTrace(f"tasks missing lifecycle events: {sorted(incomplete)[:10]}")

    returns = [tl.return_us for tl in timelines.values()]
    G = max(returns) if returns else R

    # slot key -> sorted list of (prep, exec_start, exec_stop, spawn_return)
    cpn = pd.cores_per_node
    per_slot: dict[int, list[tuple[int, int, int, int]]] = {}
    for tl in timelines.values():
        iv = (tl.prep_us, tl.exec_start_us, tl.exec_stop_us, tl.return_us)
        for a in tl.placement.assignments:
            for c in a.core_indices:
                per_slot.setdefault(a.node_index * cpn + c, []).append(iv)

    total_cores = pd.total_cores
    acc = {cat: 0 for cat in CATEGORIES}
    acc["pilot_startup"] = total_cores * (R - P)
    # Slots that never ran a task: idle through the workload, drain at teardown.
    idle_slots = total_cores - len(per_slot)
    acc["idle"] += idle_slots * (G - R)
    acc["drain"] += idle_slots * (S - G)

    for ivs in per_slot.values():
        ivs.sort()
        cursor = R
        first = True
        for prep, es, eo, sr in ivs:
            if first:
                acc["warmup"] += prep - cursor
                first = False
            else:
                acc["idle"] += prep - cursor
            acc["prepare_exec"] += es - prep
            acc["exec_cmd"] += eo - es
            acc["drain"] += sr - eo
            cursor = sr
        acc["idle"] += G - cursor
        acc["drain"] += S - G

    total_us = total_cores * (S - P)
    residual = total_us - sum(acc.values())
    if residual != 0:
        raise IncompleteTrace(f"utilization partition residual {residual} us (slot overlap?)")

    ttx = compute_ttx(trace) if timelines else 0.0
    demand = sum(tl.placement.total_cores for tl in timelines.values())
    generations = math.ceil(demand / total_cores) if demand else 0
    ru = 100.0 * acc["exec_cmd"] / total_us if total_us else 0.0
    ovh_us = acc["pilot_startup"] + acc["warmup"] + acc["prepare_exec"] + acc["drain"]
    ovh = 100.0 * ovh_us / total_us if total_us else 0.0
    return UtilizationReport(
        ttx_s=ttx,
        total_core_s=total_us / US,
        breakdown={cat: v / US for cat, v in acc.items()},
        ru_pct=ru,
        ovh_pct=ovh,
        tasks=len(timelines),
        generations=generations,
        cores=total_cores,
        breakdown_us=acc,
        total_core_us=total_us,
    )


@dataclass
class TimeSeries:
    bin_width_s: float
    t0_s: float
    values: list[tuple[float, float]]

    def integral(self) -> float:
        return sum(v for _, v in self.values) * self.bin_width_s

    def peak(self) -> float:
        return max((v for _, v in self.values), default=0.0)


def concurrency_series(trace: Trace, bin_width_s: float,
                       start_name: str = "exec_start",
                       stop_name: str = "exec_stop") -> TimeSeries:
    """Time-weighted average concurrency per bin; integrates to the total
    active time exactly."""
    deltas: list[tuple[int, int]] = []
    for e in trace.events:
        if e.name == start_name:
            deltas.append((e.ts_us, 1))
        elif e.name == stop_name:
            deltas.append((e.ts_us, -1))
    if not deltas:
        return TimeSeries(bin_width_s, 0.0, [])
    deltas.sort()
    t0 = deltas[0][0]
    t_end = deltas[-1][0]
    width_us = round(bin_width_s * US)
    nbins = max(1, math.ceil((t_end - t0) / width_us)) if t_end > t0 else 1
    occupancy = [0] * nbins  # integral of concurrency over each bin, in us
    level = 0
    prev = t0
    for ts, d in deltas:
        # distribute level over [prev, ts)
        if ts > prev and level > 0:
            b0 = (prev - t0) // width_us
            b1 = (ts - t0 - 1) // width_us
            for b in range(b0, b1 + 1):
                lo = max(prev, t0 + b * width_us)
                hi = min(ts, t0 + (b + 1) * width_us)
                occupancy[b] += level * (hi - lo)
        level += d
        prev = ts
    values = [(round((t0 + i * width_us) / US, 6), occ / width_us)
              for i, occ in enumerate(occupancy)]
    return TimeSeries(bin_width_s, t0 / US, values)


def rate_series(trace: Trace, bin_width_s: float,
                event_name: str = "spawn_return") -> TimeSeries:
    """Completion rate per bin; rate x bin_width integrates to event count."""
    stamps = [e.ts_us for e in trace.events if e.name == event_name]
    if not stamps:
        return TimeSeries(bin_width_s, 0.0, [])
    t0 = stamps[0]
    width_us = round(bin_width_s * US)
    nbins = (stamps[-1] - t0) // width_us + 1
    counts = [0] * nbins
    for ts in stamps:
        counts[(ts - t0) // width_us] += 1
    values = [(round((t0 + i * width_us) / US, 6), c / bin_width_s)
              for i, c in enumerate(counts)]
    return TimeSeries(bin_width_s, t0 / US, values)


def concurrency_and_rate_series(trace: Trace, bin_width_s: float) -> tuple[TimeSeries, TimeSeries]:
    return concurrency_series(trace, bin_width_s), rate_series(trace, bin_width_s)


def latency_stats(trace: Trace) -> dict[str, float]:
    """Recover launcher latency means from per-task lifecycle events."""
    timelines = task_timelines(trace)
    prepares = []
    acks = []
    for tl in timelines.values():
        if not tl.complete:
            continue
        prep = tl.last_prep_us if tl.last_prep_us is not None else tl.prep_us
        prepares.append((tl.exec_start_us - prep) / US)
        acks.append((tl.return_us - tl.exec_stop_us) / US)
    n = len(prepares)
    if n == 0:
        return {"n": 0, "prepare_mean_s": 0.0, "ack_mean_s": 0.0}
    return {
        "n": n,
        "prepare_mean_s": sum(prepares) / n,
        "ack_mean_s": sum(acks) / n,
    }


def replay_check(trace: Trace) -> list[str]:
    """Replay placements from the trace; report slot oversubscription and
    single-node-rule violations."""
    violations: list[str] = []
    timelines = task_timelines(trace)
    core_iv: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    gpu_iv: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for tl in timelines.values():
        if tl.return_us is None:
            continue
        if not tl.uses_mpi and len(tl.placement.assignments) > 1:
            violations.append(f"non-MPI task {tl.uid} spans nodes")
        for a in tl.placement.assignments:
            for c in a.core_indices:
                core_iv.setdefault((a.node_index, c), []).append(
                    (tl.sched_us, tl.return_us, tl.uid))
            for g in a.gpu_indices:
                gpu_iv.setdefault((a.node_index, g), []).append(
                    (tl.sched_us, tl.return_us, tl.uid))
    for label, table in (("core", core_iv), ("gpu", gpu_iv)):
        for slot, ivs in table.items():
            ivs.sort()
            for (s1, e1, u1), (s2, e2, u2) in zip(ivs, ivs[1:]):
                if s2 < e1:
                    violations.append(
                        f"{label} slot {slot} double-booked: {u1} [{s1},{e1}) vs "
                        f"{u2} [{s2},{e2})")
    return violations


def emit_report(report: UtilizationReport, series: tuple[TimeSeries, TimeSeries] | None,
                out_dir: str, fmt: str = "csv") -> list[str]:
    """Write summary, breakdown and series files; optionally render plots."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        summary_path = os.path.join(out_dir, "summary.csv")
        with open(summary_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tasks", "generations", "cores", "ttx_s", "ovh_pct", "ru_pct"])
            w.writerow([report.tasks, report.generations, report.cores,
                        "%.6f" % report.ttx_s, "%.6f" % report.ovh_pct,
                        "%.6f" % report.ru_pct])
        written.append(summary_path)
        breakdown_path = os.path.join(out_dir, "breakdown.csv")
        with open(breakdown_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["category", "core_s"])
            for cat in CATEGORIES:
                w.writerow([cat, "%.6f" % report.breakdown.get(cat, 0.0)])
        written.append(breakdown_path)
        if series is not None:
            conc, rate = series
            series_path = os.path.join(out_dir, "series.csv")
            with open(series_path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t_s", "concurrency", "rate_per_s"])
                conc_map = dict(conc.values)
                rate_map = dict(rate.values)
                # the two series are anchored at different first events
                for t in sorted(set(conc_map) | set(rate_map)):
                    w.writerow(["%.6f" % t, "%.6f" % conc_map.get(t, 0.0),
                                "%.6f" % rate_map.get(t, 0.0)])
            written.append(series_path)
        if fmt == "plot":
            written.extend(_render_plots(report, series, out_dir))
        return written
    except OSError as exc:
        raise UnwritableOutput(str(exc)) from exc


def _render_plots(report, series, out_dir) -> list[str]:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []
    written = []
    fig, ax = plt.subplots()
    cats = [c for c in CATEGORIES]
    ax.bar(cats, [report.breakdown.get(c, 0.0) for c in cats])
    ax.set_ylabel("core-seconds")
    ax.set_title("utilization breakdown")
    plt.xticks(rotation=45, ha="right")
    path = os.path.join(out_dir, "utilization.png")
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)
    written.append(path)
    if series is not None:
        conc, rate = series
        fig, (ax1, ax2) = plt.subplots(2, 1, sharex=True)
        if conc.values:
            ax1.plot(*zip(*conc.values))
        ax1.set_ylabel("concurrency")
        if rate.values:
            ax2.plot(*zip(*rate.values))
        ax2.set_ylabel("tasks/s")
        ax2.set_xlabel("time (s)")
        path = os.path.join(out_dir, "series.png")
        fig.tight_layout()
        fig.savefig(path)
        plt.close(fig)
        written.append(path)
    return written
