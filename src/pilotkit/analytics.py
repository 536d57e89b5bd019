"""Post-mortem trace analytics: TTX, utilization breakdown, time series.

A trace is read once into per-launch records (:attr:`Trace.attempts`), one
per ``schedule_ok``; utilization, TTX, replay and the latency means read
those. All accounting runs on integer microseconds so the per-slot
utilization partition sums to the available core-time with zero residual.
GPU slots are tracked for placement correctness but excluded from the
core-time denominator.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .core import PilotkitError, PilotDescription, _gc_paused
from .scheduler import Placement, parse_placement
from .tracer import EVENTS, UNKNOWN_RANK

US = 1_000_000

CATEGORIES = ("pilot_startup", "warmup", "prepare_exec", "exec_cmd", "idle", "drain",
              "lost")


class ManifestMissing(PilotkitError):
    pass


class IncompleteTrace(PilotkitError):
    pass


class NoTasks(PilotkitError):
    pass


class UnwritableOutput(PilotkitError):
    pass


class TraceEvent(NamedTuple):
    ts_us: int
    component: str
    name: str
    task_uid: str
    detail: str

    @property
    def ts(self) -> float:
        return self.ts_us / US


@dataclass(slots=True)
class Attempt:
    """One launch of a task: its ``schedule_ok`` and the stages after it.
    ``end_us`` is the launch's ``spawn_return`` or, for a launch lost with
    its DVM, its ``launch_lost``; ``returned`` tells which."""
    uid: str
    placement: Placement
    uses_mpi: bool
    sched_us: int
    prep_us: int | None = None
    exec_start_us: int | None = None
    exec_stop_us: int | None = None
    end_us: int | None = None
    returned: bool = False

    @property
    def complete(self) -> bool:
        return None not in (self.prep_us, self.exec_start_us,
                            self.exec_stop_us, self.end_us)


# The events of a launch, each with the Attempt field it sets.
_LAUNCH_STAGES = {"schedule_ok": "sched_us", "prepare_start": "prep_us",
                  "exec_start": "exec_start_us", "exec_stop": "exec_stop_us",
                  "spawn_return": "end_us", "launch_lost": "end_us"}


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
        for e in reversed(self.events):
            if e.name == name:
                return e
        return None

    @cached_property
    @_gc_paused
    def attempts(self) -> list[Attempt]:
        """Every launch, in ``schedule_ok`` order, from one pass over the
        events. A stage event goes to the earliest launch of its task that
        lacks that stage: at one instant, the last stages of a launch lost
        with its DVM sort after the ``schedule_ok`` and first stages of the
        task's next launch."""
        out: list[Attempt] = []
        by_uid: dict[str, list[Attempt]] = {}
        stamp_of = _LAUNCH_STAGES.get
        for ts, _, name, uid, detail in self.events:
            stamp = stamp_of(name)
            if stamp == "sched_us":
                placement, _, mpi = parse_schedule_detail(detail)
                a = Attempt(uid, placement, mpi, ts)
                out.append(a)
                by_uid.setdefault(uid, []).append(a)
            elif stamp is not None:
                for a in by_uid.get(uid, ()):
                    if getattr(a, stamp) is None:
                        setattr(a, stamp, ts)
                        if stamp == "end_us":
                            a.returned = name == "spawn_return"
                        break
        return out


@_gc_paused
def load_session_traces(directory: str) -> Trace:
    """Parse all component trace files and sort their events globally.
    Equal components, event names and task uids share one string object."""
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ManifestMissing(f"no manifest.json in {directory}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise TypeError(f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}")
    events: list[TraceEvent] = []
    corrupt = 0
    share = {name: name for name in EVENTS}.setdefault
    new = tuple.__new__  # builds a TraceEvent without its __new__'s Python frame
    for comp in manifest.get("components", []):
        path = os.path.join(directory, comp["file"])
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            for line in fh:
                parts = line.rstrip("\n").split(",", 4)
                if len(parts) != 5:
                    corrupt += line != "\n"  # a blank line is no event
                    continue
                ts, component, name, uid, detail = parts
                try:
                    ts_us = round(float(ts) * US)
                except ValueError:
                    corrupt += 1
                    continue
                events.append(new(TraceEvent, (ts_us, share(component, component),
                                               share(name, name), share(uid, uid), detail)))
    rank, ranks = EVENTS.get, max(EVENTS.values()) + 1
    events.sort(key=lambda e: e[0] * ranks + rank(e[2], UNKNOWN_RANK))  # (ts_us, rank) order
    return Trace(events=events, manifest=manifest, corrupt_lines=corrupt)


def compute_ttx(trace: Trace) -> float:
    """Workload time-to-execution: first task pull to the last launch end,
    returned or lost."""
    first_pull = trace.first("db_bridge_pull")
    ends = [a.end_us for a in trace.attempts if a.end_us is not None]
    if first_pull is None or not ends:
        raise NoTasks("trace has no completed tasks")
    return (max(ends) - first_pull.ts_us) / US


def parse_schedule_detail(detail: str) -> tuple[Placement, int | None, bool]:
    """Split a schedule_ok detail into (placement, dvm_id, uses_mpi)."""
    fields = detail.split("|")
    placement = parse_placement(fields[0])
    dvm_id = None
    mpi = False
    for f in fields[1:]:
        if f.startswith("dvm="):
            dvm_id = int(f[4:])
        elif f.startswith("mpi="):
            mpi = f[4:] == "1"
    return placement, dvm_id, mpi


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
    """Partition every core slot's timeline into the seven categories.

    pilot_startup: pilot_start -> agent_ready; warmup: agent_ready -> the
    slot's first prepare_start; for a launch that returned, prepare_exec:
    prepare_start -> exec_start, exec_cmd: exec_start -> exec_stop, and
    drain: completion acknowledgment (exec_stop -> spawn_return); lost: a
    launch lost with its DVM, prepare_start -> launch_lost; drain also
    takes the post-workload teardown; idle: the rest. The partition is
    exact in integer microseconds.
    """
    start = trace.first("pilot_start")
    ready = trace.first("agent_ready")
    stop = trace.last("agent_stop")
    if start is None or ready is None or stop is None:
        raise IncompleteTrace("missing pilot_start/agent_ready/agent_stop events")
    P, R, S = start.ts_us, ready.ts_us, stop.ts_us

    attempts = trace.attempts
    incomplete = {a.uid for a in attempts if not a.complete}
    if incomplete:
        raise IncompleteTrace(f"tasks missing lifecycle events: {sorted(incomplete)[:10]}")

    G = max((a.end_us for a in attempts), default=R)

    # slot key -> list of (prep, exec_start, exec_stop, end, returned)
    cpn = pd.cores_per_node
    per_slot: dict[int, list[tuple[int, int, int, int, bool]]] = {}
    for a in attempts:
        iv = (a.prep_us, a.exec_start_us, a.exec_stop_us, a.end_us, a.returned)
        for node, cores, _ in a.placement:
            base = node * cpn
            for c in cores:
                per_slot.setdefault(base + c, []).append(iv)

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
        for prep, es, eo, end, returned in ivs:
            if first:
                acc["warmup"] += prep - cursor
                first = False
            else:
                acc["idle"] += prep - cursor
            if returned:
                acc["prepare_exec"] += es - prep
                acc["exec_cmd"] += eo - es
                acc["drain"] += end - eo
            else:
                acc["lost"] += end - prep
            cursor = end
        acc["idle"] += G - cursor
        acc["drain"] += S - G

    total_us = total_cores * (S - P)
    residual = total_us - sum(acc.values())
    if residual != 0:
        raise IncompleteTrace(f"utilization partition residual {residual} us (slot overlap?)")

    ttx = compute_ttx(trace) if attempts else 0.0
    cores_by_task = {a.uid: sum(len(cores) for _, cores, _ in a.placement)
                     for a in attempts}
    demand = sum(cores_by_task.values())
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
        tasks=len(cores_by_task),
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


def bin_width_us(bin_width_s: float) -> int:
    """A series bin width in whole microseconds; ValueError below 1 us."""
    if not math.isfinite(bin_width_s) or round(bin_width_s * US) < 1:
        raise ValueError(f"bin width must be at least 1 us, got {bin_width_s!r} s")
    return round(bin_width_s * US)


def concurrency_series(trace: Trace, bin_width_s: float,
                       start_name: str = "exec_start",
                       stop_name: str = "exec_stop") -> TimeSeries:
    """Time-weighted average concurrency per bin; integrates to the total
    active time exactly."""
    width_us = bin_width_us(bin_width_s)
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
    width_us = bin_width_us(bin_width_s)
    stamps = [e.ts_us for e in trace.events if e.name == event_name]
    if not stamps:
        return TimeSeries(bin_width_s, 0.0, [])
    t0 = stamps[0]
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
    """Recover launcher latency means from the launches that returned."""
    done = [a for a in trace.attempts if a.returned and a.complete]
    n = len(done)
    if n == 0:
        return {"n": 0, "prepare_mean_s": 0.0, "ack_mean_s": 0.0}
    return {
        "n": n,
        "prepare_mean_s": sum(a.exec_start_us - a.prep_us for a in done) / n / US,
        "ack_mean_s": sum(a.end_us - a.exec_stop_us for a in done) / n / US,
    }


def replay_check(trace: Trace) -> list[str]:
    """Replay every launch's placement over [schedule_ok, end); report slot
    oversubscription and single-node-rule violations."""
    violations: list[str] = []
    core_iv: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    gpu_iv: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for a in trace.attempts:
        if a.end_us is None:
            continue
        if not a.uses_mpi and len(a.placement) > 1:
            violations.append(f"non-MPI task {a.uid} spans nodes")
        iv = (a.sched_us, a.end_us, a.uid)
        for node, cores, gpus in a.placement:
            for c in cores:
                core_iv.setdefault((node, c), []).append(iv)
            for g in gpus:
                gpu_iv.setdefault((node, g), []).append(iv)
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
                out_dir: str) -> list[str]:
    """Write summary, breakdown and series files."""
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
        return written
    except OSError as exc:
        raise UnwritableOutput(str(exc)) from exc
