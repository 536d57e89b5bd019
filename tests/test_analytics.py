"""Analytics oracle tests: trace loading with corrupt lines, exact
utilization accounting, series invariants, replay violation detection, and
report emission."""

import csv
import gc
import json
import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.analytics import (
    CATEGORIES,
    Attempt,
    IncompleteTrace,
    ManifestMissing,
    NoTasks,
    TimeSeries,
    Trace,
    TraceEvent,
    UnwritableOutput,
    UtilizationReport,
    US,
    compute_ttx,
    compute_utilization,
    concurrency_and_rate_series,
    concurrency_series,
    emit_report,
    latency_stats,
    load_session_traces,
    parse_schedule_detail,
    rate_series,
    replay_check,
)
from pilotkit.core import Fabric, LatencyModel, PilotDescription
from pilotkit.scheduler import format_placement, parse_placement
from pilotkit.simulator import SimAgent
from pilotkit.tracer import EVENTS, UNKNOWN_RANK, Tracer

from conftest import task


def pilot(nodes=1, cores=2, gpus=0):
    return PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=nodes,
                            cores_per_node=cores, gpus_per_node=gpus)


def write_session(tmp_path, components, extra_manifest=None):
    """components: {name: [csv lines]}"""
    for name, lines in components.items():
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "components": [
            {"name": n, "file": f"{n}.csv", "events": len(ls)}
            for n, ls in components.items()
        ],
    }
    manifest.update(extra_manifest or {})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return str(tmp_path)


def synth_trace(task_rows, nodes=1, cores=2, start=0.0, ready=0.1, stop=None):
    """task_rows: (uid, placement_text, sched, prep, es, eo, sr)."""
    ev = [
        TraceEvent(round(start * US), "agent", "pilot_start", "", "p"),
        TraceEvent(round(ready * US), "agent", "agent_ready", "", "p"),
    ]
    last = ready
    for uid, pl, sched, prep, es, eo, sr in task_rows:
        ev.append(TraceEvent(round(sched * US), "agent", "db_bridge_pull", uid, ""))
        ev.append(TraceEvent(round(sched * US), "scheduler", "schedule_ok", uid,
                             f"{pl}|dvm=0|mpi=0"))
        ev.append(TraceEvent(round(prep * US), "executor", "prepare_start", uid, "0"))
        ev.append(TraceEvent(round(es * US), "executor", "exec_start", uid, "0"))
        ev.append(TraceEvent(round(eo * US), "executor", "exec_stop", uid, "0"))
        ev.append(TraceEvent(round(sr * US), "executor", "spawn_return", uid, "0"))
        last = max(last, sr)
    if stop is None:
        stop = last + 0.05
    ev.append(TraceEvent(round(stop * US), "agent", "agent_stop", "", "p"))
    ev.sort(key=lambda e: e.ts_us)
    return Trace(events=ev, manifest={})


def lose_first_launch(trace, uid):
    """End uid's first launch with launch_lost, as a lost DVM does."""
    i = next(i for i, e in enumerate(trace.events)
             if e.name == "spawn_return" and e.task_uid == uid)
    trace.events[i] = trace.events[i]._replace(name="launch_lost")
    return trace


class TestLoad:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestMissing):
            load_session_traces(str(tmp_path))

    def test_corrupt_lines_counted_not_fatal(self, tmp_path):
        d = write_session(tmp_path, {"a": [
            "1.000000,a,exec_start,t0,",
            "not a number,a,exec_stop,t0,",
            "mangled",
            "2.000000,a,exec_stop,t0,",
        ]})
        trace = load_session_traces(d)
        assert trace.corrupt_lines == 2
        assert len(trace.events) == 2

    def test_equal_timestamps_sorted_by_lifecycle(self, tmp_path):
        d = write_session(tmp_path, {
            "executor": ["1.000000,executor,prepare_start,t0,"],
            "scheduler": ["1.000000,scheduler,schedule_ok,t0,0:0:|dvm=0|mpi=0"],
        })
        trace = load_session_traces(d)
        assert [e.name for e in trace.events] == ["schedule_ok", "prepare_start"]

    def test_detail_commas_preserved(self, tmp_path):
        d = write_session(tmp_path, {
            "s": ["1.000000,s,schedule_ok,t0,0:0,1:|dvm=0|mpi=0"]})
        trace = load_session_traces(d)
        assert trace.events[0].detail == "0:0,1:|dvm=0|mpi=0"


def reference_load(directory):
    """The plain loader: split each line, integer microseconds, a stable
    sort by (ts_us, rank)."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    events, corrupt = [], 0
    for comp in manifest["components"]:
        with open(os.path.join(directory, comp["file"])) as fh:
            for line in fh.read().splitlines():
                if not line:
                    continue
                parts = line.split(",", 4)
                if len(parts) != 5:
                    corrupt += 1
                    continue
                try:
                    ts_us = round(float(parts[0]) * US)
                except (ValueError, OverflowError):
                    corrupt += 1
                    continue
                events.append(TraceEvent(ts_us, *parts[1:]))
    events.sort(key=lambda e: (e.ts_us, EVENTS.get(e.name, UNKNOWN_RANK)))
    return events, corrupt


_names = st.sampled_from(sorted(EVENTS) + ["typo_event", "custom"])
_event_lines = st.builds(
    lambda k, comp, name, uid, detail: f"{k * 0.25:.6f},{comp},{name},{uid},{detail}",
    st.integers(-4, 12), st.sampled_from(["agent", "executor", "x"]), _names,
    st.sampled_from(["", "t0", "t1", "task.000002"]),
    st.text(alphabet="0123456789:;,|=dvmpi", max_size=12))
_corrupt_lines = st.sampled_from(["mangled", "", "1.0,a,b", "nan,a,b,c,d", "x,a,b,c,d",
                                  "inf,a,b,c,d"])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["agent", "executor", "scheduler", "x"]),
    st.lists(st.one_of(_event_lines, _corrupt_lines), max_size=25),
    min_size=1))
def test_load_equals_plain_reference(tmp_path_factory, components):
    """Shared timestamps, unknown names and corrupt lines load as the plain
    reference does, with one string object per distinct component, name
    and uid."""
    d = write_session(tmp_path_factory.mktemp("s"), components)
    trace = load_session_traces(d)
    events, corrupt = reference_load(d)
    assert trace.events == events
    assert all(type(e) is TraceEvent for e in trace.events)
    assert trace.corrupt_lines == corrupt
    for field in ("component", "name", "task_uid"):
        first = {}
        for e in trace.events:
            value = getattr(e, field)
            assert first.setdefault(value, value) is value


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_passes_leave_gc_state_as_found(tmp_path, gc_restored, enabled):
    d = write_session(tmp_path, {"s": [
        "1.000000,s,schedule_ok,t0,0:0:|dvm=0|mpi=0",
        "1.000000,s,prepare_start,t0,0"]})
    gc.enable() if enabled else gc.disable()
    trace = load_session_traces(d)
    assert gc.isenabled() is enabled
    assert [a.prep_us for a in trace.attempts] == [US]
    assert gc.isenabled() is enabled
    # A pass that raises restores the state too.
    (tmp_path / "s.csv").unlink()
    (tmp_path / "s.csv").mkdir()
    with pytest.raises(OSError):
        load_session_traces(d)
    assert gc.isenabled() is enabled
    bad = Trace(events=[TraceEvent(0, "s", "schedule_ok", "t0", "garbage")], manifest={})
    with pytest.raises(ValueError):
        bad.attempts
    assert gc.isenabled() is enabled


@pytest.fixture(scope="module")
def sim_8192(tmp_path_factory):
    """The trace directory of 8,192 one-core tasks on a 64 x 128-core
    simulated pilot, and the pilot."""
    directory = str(tmp_path_factory.mktemp("sim_8192"))
    pd = PilotDescription(uid="p0", fabric=Fabric.SIMULATED, nodes=64, cores_per_node=128,
                          latency_model=LatencyModel(prepare_mean_s=0.037, ack_mean_s=0.135))
    tracer = Tracer(directory)
    agent = SimAgent(pd, tracer)
    agent.run([task(f"t{i:06d}", duration=1.0) for i in range(8192)])
    agent.stop()
    tracer.close()
    return directory, pd


def test_load_memory_per_event(sim_8192):
    """A loaded 8,192-task simulated trace keeps at most 200 B per event and
    peaks at 260 B per event (tracemalloc, which counts deterministically).
    A loader that copies every name and uid and sorts on tuple keys keeps
    313 B and peaks at 382 B."""
    directory, _ = sim_8192
    gc.collect()
    tracemalloc.start()
    try:
        trace = load_session_traces(directory)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace.events)
    assert n == 7 * 8192 + 5
    assert retained / n <= 200
    assert peak / n <= 260


@pytest.mark.parametrize("run, bound", [
    (lambda trace, pd: compute_utilization(trace, pd), 64),
    (lambda trace, pd: replay_check(trace), 100),
    (lambda trace, pd: concurrency_and_rate_series(trace, 1.0), 32),
], ids=["compute_utilization", "replay_check", "concurrency_and_rate_series"])
def test_pass_memory_per_launch(sim_8192, run, bound):
    """The passes after the load keep flat per-slot state: on the
    8,192-task trace each peaks at a few dozen bytes per launch
    (tracemalloc). Per-slot lists with their sorts, or a tuple per event,
    peak at 273, 244 and 129 B per launch."""
    directory, pd = sim_8192
    trace = load_session_traces(directory)
    assert len(trace.attempts) == 8192
    gc.collect()
    tracemalloc.start()
    try:
        run(trace, pd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 8192 <= bound


class TestTtxAndTimelines:
    def test_ttx_bounds(self):
        trace = synth_trace([
            ("t0", "0:0:", 1.0, 1.0, 1.1, 2.1, 2.2),
            ("t1", "0:1:", 1.0, 1.0, 1.1, 3.1, 3.3),
        ])
        assert compute_ttx(trace) == pytest.approx(2.3)

    def test_no_tasks_raises(self):
        trace = synth_trace([])
        with pytest.raises(NoTasks):
            compute_ttx(trace)

    def test_parse_schedule_detail(self):
        p, dvm, mpi = parse_schedule_detail("0:0,1:0;1:2,3:|dvm=3|mpi=1")
        assert sum(len(cores) for _, cores, _ in p) == 4
        assert sum(len(gpus) for _, _, gpus in p) == 1
        assert dvm == 3 and mpi is True


class TestUtilization:
    def test_hand_computed_partition(self):
        # 1 node x 2 cores; P=0, R=0.1, S=2.5
        # t0 on core 0: prep 0.2, exec 0.3..1.3, return 1.5
        # core 1 never used
        trace = synth_trace(
            [("t0", "0:0:", 0.1, 0.2, 0.3, 1.3, 1.5)], stop=2.5)
        rep = compute_utilization(trace, pilot(cores=2))
        b = rep.breakdown_us
        assert b["pilot_startup"] == 2 * 100000
        assert b["warmup"] == 100000            # core 0: 0.1 -> 0.2
        assert b["prepare_exec"] == 100000      # 0.2 -> 0.3
        assert b["exec_cmd"] == 1000000         # 0.3 -> 1.3
        # core 0 drain: 1.3->1.5 plus 1.5->2.5 teardown; core 1: G->S
        assert b["drain"] == 200000 + 1000000 + 1000000
        assert b["idle"] == 0 + (1500000 - 100000)
        assert sum(b.values()) == rep.total_core_us == 2 * 2500000
        assert rep.ru_pct == pytest.approx(100.0 * 1000000 / 5000000)

    def test_lost_launch_is_booked_as_lost(self):
        # t0 launches on core 0 and is lost at 1.0, then runs on core 1.
        trace = lose_first_launch(synth_trace([
            ("t0", "0:0:", 0.1, 0.1, 0.2, 1.0, 1.0),
            ("t0", "0:1:", 1.0, 1.0, 1.1, 2.1, 2.2),
        ], stop=2.25), "t0")
        assert [a.returned for a in trace.attempts] == [False, True]
        rep = compute_utilization(trace, pilot(cores=2))
        assert rep.breakdown_us == {
            "pilot_startup": 2 * 100000,
            "warmup": 900000,           # core 1: 0.1 -> 1.0
            "prepare_exec": 100000,
            "exec_cmd": 1000000,
            "idle": 1200000,            # core 0: the loss -> the last end
            "drain": 100000 + 2 * 50000,
            "lost": 900000,             # core 0: prepare_start -> the loss
        }
        assert sum(rep.breakdown_us.values()) == rep.total_core_us
        assert rep.tasks == 1 and rep.generations == 1
        assert rep.ttx_s == pytest.approx(2.1)
        assert latency_stats(trace)["n"] == 1
        assert rate_series(trace, 0.5).integral() == pytest.approx(1.0)

    def test_exact_partition_no_residual_random(self):
        import random
        rng = random.Random(5)
        rows = []
        t = 0.2
        for i in range(40):
            core = i % 2
            sched = t
            prep = sched + rng.uniform(0, 0.01)
            es = prep + rng.uniform(0, 0.02)
            eo = es + rng.uniform(0, 0.1)
            sr = eo + rng.uniform(0, 0.01)
            rows.append((f"t{i:02d}_{core}", f"0:{core}:", sched, prep, es, eo, sr))
            if core == 1:
                t = sr + 0.001
        # separate the two cores' interval chains in time per core
        by_core = {0: [], 1: []}
        for r in rows:
            by_core[int(r[1][2])].append(r)
        flat = []
        for core, rs in by_core.items():
            cursor = 0.2
            for uid, pl, *_ in rs:
                prep = cursor + 0.005
                es = prep + 0.01
                eo = es + 0.05
                sr = eo + 0.002
                flat.append((uid, pl, cursor, prep, es, eo, sr))
                cursor = sr + 0.003
        trace = synth_trace(flat)
        rep = compute_utilization(trace, pilot(cores=2))
        assert sum(rep.breakdown_us.values()) == rep.total_core_us
        assert rep.tasks == 40

    def test_missing_lifecycle_event_raises(self):
        trace = synth_trace([("t0", "0:0:", 0.1, 0.2, 0.3, 1.3, 1.5)])
        trace.events = [e for e in trace.events if e.name != "exec_stop"]
        with pytest.raises(IncompleteTrace):
            compute_utilization(trace, pilot())

    def test_generations_from_core_demand(self):
        rows = []
        cursor = 0.1
        for i in range(6):
            prep = cursor
            es, eo, sr = prep + 0.01, prep + 0.11, prep + 0.12
            rows.append((f"t{i}", "0:0,1:", cursor, prep, es, eo, sr))
            cursor = sr + 0.01
        trace = synth_trace(rows)
        rep = compute_utilization(trace, pilot(cores=2))
        assert rep.generations == 6  # each task takes both cores

    @pytest.mark.parametrize("rows, message", [
        ([("t0", "0:0:", 0.1, 0.1, 0.2, 1.2, 1.3), ("t1", "0:0:", 0.5, 0.5, 0.6, 1.6, 1.7)],
         "core slot (0, 0) double-booked: t1 prepares at 500000 us, before t0 ends at "
         "1300000 us"),
        ([("t0", "0:1:", 0.1, 0.1, 0.2, 1.2, 1.3), ("t1", "0:0,1:", 0.2, 0.2, 0.3, 1.3, 1.4)],
         "core slot (0, 1) double-booked: t1 prepares at 200000 us, before t0 ends at "
         "1300000 us"),
        ([("t0", "0:0,0:", 0.1, 0.1, 0.2, 1.2, 1.3)],
         "core slot (0, 0) double-booked: t0 prepares at 100000 us, before t0 ends at "
         "1300000 us"),
    ], ids=["two_launches", "two_core_launch", "one_launch_twice"])
    def test_double_booked_slot_raises(self, rows, message):
        """Per-slot categories telescope to the slot's span whatever the
        launches on it, so an exact partition cannot show double-booking."""
        trace = synth_trace(rows)
        with pytest.raises(IncompleteTrace) as exc:
            compute_utilization(trace, pilot(cores=2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("placement, message", [
        ("0:2:", "core slot (0, 2) of t0 is outside the pilot's 1 x 2 cores"),
        ("1:0:", "core slot (1, 0) of t0 is outside the pilot's 1 x 2 cores"),
        ("0:0:1", "gpu slot (0, 1) of t0 is outside the pilot's 1 x 1 gpus"),
    ], ids=["core", "node", "gpu"])
    def test_slot_outside_the_pilot_raises(self, placement, message):
        trace = synth_trace([("t0", placement, 0.1, 0.1, 0.2, 1.2, 1.3)])
        with pytest.raises(IncompleteTrace) as exc:
            compute_utilization(trace, pilot(cores=2, gpus=1))
        assert str(exc.value) == message

    def test_gpus_excluded_from_denominator(self):
        trace = synth_trace([("t0", "0:0:0", 0.1, 0.2, 0.3, 1.3, 1.5)], stop=2.0)
        rep = compute_utilization(trace, pilot(cores=1, gpus=1))
        assert rep.total_core_us == 1 * 2000000


class TestSeries:
    def test_concurrency_integrates_to_active_time(self):
        trace = synth_trace([
            ("t0", "0:0:", 0.1, 0.1, 0.2, 1.2, 1.3),
            ("t1", "0:1:", 0.1, 0.1, 0.5, 2.0, 2.1),
        ])
        s = concurrency_series(trace, bin_width_s=0.25)
        assert s.integral() == pytest.approx(1.0 + 1.5, abs=1e-6)
        assert s.peak() <= 2.0

    def test_rate_integrates_to_count(self):
        rows = [(f"t{i}", "0:0:", 0.1 + i, 0.1 + i, 0.2 + i, 0.8 + i, 0.9 + i)
                for i in range(7)]
        trace = synth_trace(rows)
        s = rate_series(trace, bin_width_s=0.5)
        assert s.integral() == pytest.approx(7.0)

    def test_empty_series(self):
        trace = synth_trace([])
        assert concurrency_series(trace, 1.0).values == []
        assert rate_series(trace, 1.0).values == []

    @pytest.mark.parametrize("width", [0.0, -1.0, 1e-9, 4.9e-7, float("nan"), float("inf")])
    def test_bin_width_below_one_microsecond_rejected(self, width):
        trace = synth_trace([("t0", "0:0:", 0.1, 0.1, 0.2, 1.2, 1.3)])
        for series in (concurrency_series, rate_series):
            with pytest.raises(ValueError, match="at least 1 us"):
                series(trace, width)

    def test_one_microsecond_bins_accepted(self):
        trace = synth_trace([("t0", "0:0:", 0.1, 0.1, 0.2, 0.2001, 0.2002)])
        assert concurrency_series(trace, 1e-6).integral() == pytest.approx(1e-4)
        assert rate_series(trace, 1e-6).integral() == pytest.approx(1.0)


class TestReplay:
    def test_clean_trace_has_no_violations(self):
        trace = synth_trace([
            ("t0", "0:0:", 0.1, 0.1, 0.2, 1.2, 1.3),
            ("t1", "0:0:", 1.4, 1.4, 1.5, 2.5, 2.6),
        ])
        assert replay_check(trace) == []

    def test_double_booked_core_detected(self):
        trace = synth_trace([
            ("t0", "0:0:", 0.1, 0.1, 0.2, 1.2, 1.3),
            ("t1", "0:0:", 0.5, 0.5, 0.6, 1.6, 1.7),
        ])
        v = replay_check(trace)
        assert len(v) == 1 and "double-booked" in v[0]

    def test_lost_launch_overlapping_a_later_launch_detected(self):
        trace = lose_first_launch(synth_trace([
            ("t0", "0:0:", 0.1, 0.1, 0.2, 1.0, 1.0),
            ("t0", "0:1:", 1.0, 1.0, 1.1, 2.1, 2.2),
            ("t1", "0:0:", 0.5, 0.5, 0.6, 1.6, 1.7),
        ]), "t0")
        assert replay_check(trace) == [
            "core slot (0, 0) double-booked: t0 [100000,1000000) vs t1 [500000,1700000)"]

    def test_every_launch_on_a_triple_booked_core_detected(self):
        """z comes after y ended but inside x: a replay that kept only
        the slot's previous launch, y, would miss it."""
        trace = synth_trace([
            ("x", "0:0:", 0.1, 0.1, 0.2, 9.4, 9.5),
            ("y", "0:0:", 1.0, 1.0, 1.1, 1.9, 2.0),
            ("z", "0:0:", 3.0, 3.0, 3.1, 3.9, 4.0),
        ])
        assert replay_check(trace) == [
            "core slot (0, 0) double-booked: x [100000,9500000) vs y [1000000,2000000)",
            "core slot (0, 0) double-booked: x [100000,9500000) vs z [3000000,4000000)"]

    def test_non_mpi_span_detected(self):
        trace = synth_trace([("t0", "0:0:;1:0:", 0.1, 0.1, 0.2, 1.2, 1.3)])
        assert any("spans nodes" in v for v in replay_check(trace))


class TestLatencyStats:
    def test_means_recovered_exactly_from_synthetic(self):
        rows = [(f"t{i}", "0:0:", i, i + 0.0, i + 0.04, i + 0.5, i + 0.62)
                for i in range(10)]
        trace = synth_trace(rows)
        stats = latency_stats(trace)
        assert stats["n"] == 10
        assert stats["prepare_mean_s"] == pytest.approx(0.04, abs=1e-6)
        assert stats["ack_mean_s"] == pytest.approx(0.12, abs=1e-6)


class TestEmitReport:
    def make_report(self):
        trace = synth_trace([("t0", "0:0:", 0.1, 0.2, 0.3, 1.3, 1.5)], stop=2.0)
        rep = compute_utilization(trace, pilot(cores=2))
        series = (concurrency_series(trace, 0.5), rate_series(trace, 0.5))
        return rep, series

    def test_summary_round_trip(self, tmp_path):
        rep, series = self.make_report()
        written = emit_report(rep, series, str(tmp_path / "out"))
        names = {os.path.basename(p) for p in written}
        assert names == {"summary.csv", "breakdown.csv", "series.csv"}
        with open(tmp_path / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["tasks"]) == rep.tasks
        assert float(rows[0]["ru_pct"]) == pytest.approx(rep.ru_pct, abs=1e-6)

    def test_breakdown_covers_all_categories(self, tmp_path):
        rep, series = self.make_report()
        emit_report(rep, None, str(tmp_path / "out"))
        with open(tmp_path / "out" / "breakdown.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["category"] for r in rows] == list(CATEGORIES)
        total = sum(float(r["core_s"]) for r in rows)
        assert total == pytest.approx(rep.total_core_s, abs=1e-5)

    def test_unwritable_output(self, tmp_path):
        rep, series = self.make_report()
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(UnwritableOutput):
            emit_report(rep, None, str(blocker / "sub"))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.001, 2.0)),
                min_size=1, max_size=20))
def test_serial_chain_partition_exact(chain):
    """Tasks strictly serialized on one core always partition exactly."""
    rows = []
    cursor = 0.2
    for i, (gap, dur) in enumerate(chain):
        sched = cursor + round(gap, 3)
        prep = sched + 0.001
        es = prep + 0.002
        eo = es + round(dur, 3)
        sr = eo + 0.001
        rows.append((f"t{i:02d}", "0:0:", sched, prep, es, eo, sr))
        cursor = sr
    trace = synth_trace(rows)
    rep = compute_utilization(trace, pilot(cores=1))
    assert sum(rep.breakdown_us.values()) == rep.total_core_us
    assert replay_check(trace) == []


# Plain references: the per-slot lists and sorts that the sweeps replace.

def reference_attempts(events):
    """Every launch in schedule order; a stage event goes to the earliest
    launch of its task that lacks that stage, set by field name."""
    stamps = {"schedule_ok": "sched_us", "prepare_start": "prep_us",
              "exec_start": "exec_start_us", "exec_stop": "exec_stop_us",
              "spawn_return": "end_us", "launch_lost": "end_us"}
    out, by_uid = [], {}
    for ts, _, name, uid, detail in events:
        stamp = stamps.get(name)
        if stamp == "sched_us":
            fields = detail.split("|")
            a = Attempt(uid, parse_placement(fields[0]), "mpi=1" in fields[1:], ts)
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


def reference_utilization(trace, pd):
    """Each slot's launches collected and sorted, then walked from
    agent_ready; the partition must sum to cores x span."""
    P = trace.first("pilot_start").ts_us
    R = trace.first("agent_ready").ts_us
    S = trace.last("agent_stop").ts_us
    attempts = reference_attempts(trace.events)
    assert all(a.complete for a in attempts)
    G = max((a.end_us for a in attempts), default=R)
    cpn = pd.cores_per_node
    per_slot = {}
    for a in attempts:
        iv = (a.prep_us, a.exec_start_us, a.exec_stop_us, a.end_us, a.returned)
        for node, cores, _ in a.placement:
            for c in cores:
                per_slot.setdefault(node * cpn + c, []).append(iv)
    total_cores = pd.total_cores
    acc = {cat: 0 for cat in CATEGORIES}
    acc["pilot_startup"] = total_cores * (R - P)
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
    assert sum(acc.values()) == total_us
    ttx = (G - trace.first("db_bridge_pull").ts_us) / US if attempts else 0.0
    cores_by_task = {a.uid: sum(len(cores) for _, cores, _ in a.placement) for a in attempts}
    demand = sum(cores_by_task.values())
    ovh_us = acc["pilot_startup"] + acc["warmup"] + acc["prepare_exec"] + acc["drain"]
    return UtilizationReport(
        ttx_s=ttx, total_core_s=total_us / US,
        breakdown={cat: v / US for cat, v in acc.items()},
        ru_pct=100.0 * acc["exec_cmd"] / total_us if total_us else 0.0,
        ovh_pct=100.0 * ovh_us / total_us if total_us else 0.0,
        tasks=len(cores_by_task),
        generations=math.ceil(demand / total_cores) if demand else 0,
        cores=total_cores, breakdown_us=acc, total_core_us=total_us)


def reference_replay(trace):
    """Each slot's [schedule_ok, end) intervals sorted; an interval that
    starts before the latest end of those before it is double-booked with
    the one that ends last."""
    violations = []
    core_iv, gpu_iv = {}, {}
    for a in reference_attempts(trace.events):
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
            s1, e1, u1 = ivs[0]
            for s2, e2, u2 in ivs[1:]:
                if s2 < e1:
                    violations.append(f"{label} slot {slot} double-booked: {u1} [{s1},{e1}) "
                                      f"vs {u2} [{s2},{e2})")
                if e2 > e1:
                    s1, e1, u1 = s2, e2, u2
    return violations


def reference_concurrency(trace, bin_width_s, start_name="exec_start", stop_name="exec_stop"):
    """A (ts, +-1) tuple per start and stop, sorted, then swept."""
    width_us = round(bin_width_s * US)
    deltas = sorted([(e.ts_us, 1) for e in trace.events if e.name == start_name]
                    + [(e.ts_us, -1) for e in trace.events if e.name == stop_name])
    if not deltas:
        return TimeSeries(bin_width_s, 0.0, [])
    t0, t_end = deltas[0][0], deltas[-1][0]
    nbins = max(1, math.ceil((t_end - t0) / width_us)) if t_end > t0 else 1
    occupancy = [0] * nbins
    level, prev = 0, t0
    for ts, d in deltas:
        if ts > prev and level > 0:
            for b in range((prev - t0) // width_us, (ts - t0 - 1) // width_us + 1):
                lo = max(prev, t0 + b * width_us)
                hi = min(ts, t0 + (b + 1) * width_us)
                occupancy[b] += level * (hi - lo)
        level += d
        prev = ts
    return TimeSeries(bin_width_s, t0 / US,
                      [(round((t0 + i * width_us) / US, 6), occ / width_us)
                       for i, occ in enumerate(occupancy)])


@st.composite
def launch_traces(draw):
    """A trace of up to 12 launches on a 1-4 node x 1-4 core x 0-2 GPU
    pilot, in microseconds: MPI spans, launches lost with their DVM and
    relaunched, many shared instants. Unless ``overlap`` is drawn, a launch
    is scheduled once its slots are free; with it, launches ignore their
    slots and get distinct schedule times."""
    nodes, cpn, gpn = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    overlap = draw(st.booleans())
    gap = st.integers(0, 3)
    ready = draw(gap)
    rows = [(0, "pilot_start", "", "p"), (ready, "agent_ready", "", "p")]
    free = {}  # ("core" | "gpu", node, index) -> when the slot comes free
    lost = {}  # uid of a lost launch -> when it was lost
    t = last_end = ready
    for i in range(draw(st.integers(0, 12))):
        uid = draw(st.sampled_from(sorted(lost) + [f"t{i}"]))
        mpi = draw(st.booleans())
        cores = draw(st.lists(st.sampled_from([(n, c) for n in range(nodes) for c in range(cpn)]),
                              min_size=1, max_size=4, unique=True))
        if not mpi and draw(st.integers(0, 3)):  # mostly one node; else a span to report
            cores = [(n, c) for n, c in cores if n == cores[0][0]]
        on = sorted({n for n, _ in cores})
        gpus = draw(st.lists(st.sampled_from([(n, g) for n in on for g in range(gpn)]),
                             max_size=2, unique=True)) if gpn else []
        placement = tuple((n, tuple(sorted(c for m, c in cores if m == n)),
                           tuple(sorted(g for m, g in gpus if m == n))) for n in on)
        slots = [("core", *s) for s in cores] + [("gpu", *s) for s in gpus]
        t += draw(gap)
        sched = max(t, lost.pop(uid, t))
        if overlap:
            t = sched + 1
        else:
            sched = max([sched] + [free.get(s, 0) for s in slots])
        prep = sched + draw(gap)
        es = prep + draw(gap)
        eo = es + draw(gap)
        end = eo + draw(gap)
        for s in slots:
            free[s] = end
        last_end = max(last_end, end)
        if uid == f"t{i}":
            rows.append((sched, "db_bridge_pull", uid, ""))
        if draw(st.integers(0, 3)) == 0:
            lost[uid] = end
            ending = "launch_lost"
        else:
            ending = "spawn_return"
        rows += [(sched, "schedule_ok", uid,
                  f"{format_placement(placement)}|dvm=0|mpi={int(mpi)}"),
                 (prep, "prepare_start", uid, "0"), (es, "exec_start", uid, "0"),
                 (eo, "exec_stop", uid, "0"), (end, ending, uid, "0")]
    rows.append((last_end + draw(gap), "agent_stop", "", "p"))
    events = [TraceEvent(ts, "x", name, uid, detail) for ts, name, uid, detail in rows]
    events.sort(key=lambda e: (e.ts_us, EVENTS[e.name]))  # the loader's order
    return Trace(events=events, manifest={}), pilot(nodes, cpn, gpn), overlap


@settings(max_examples=200, deadline=None)
@given(launch_traces())
def test_sweeps_equal_plain_references(case):
    """The schedule-order sweeps give the plain references' launches,
    series, violations and report. A launch that prepares on a core slot
    before the slot's previous launch ended raises instead, and the replay
    reports that slot; launches that wait for their slots never do."""
    trace, pd, overlap = case
    attempts = reference_attempts(trace.events)
    assert trace.attempts == attempts
    for width_us in (1, 2, 5):
        assert concurrency_series(trace, width_us / US) == \
            reference_concurrency(trace, width_us / US)
    violations = replay_check(trace)
    assert sorted(violations) == sorted(reference_replay(trace))
    on_slot = {}
    for a in attempts:
        for node, cores, _ in a.placement:
            for c in cores:
                on_slot.setdefault((node, c), []).append(a)
    booked_twice = any(b.prep_us < a.end_us
                       for launches in on_slot.values() for a, b in zip(launches, launches[1:]))
    if booked_twice:
        with pytest.raises(IncompleteTrace, match="double-booked"):
            compute_utilization(trace, pd)
        assert any(v.startswith("core slot") for v in violations)
    else:
        assert compute_utilization(trace, pd) == reference_utilization(trace, pd)
    if not overlap:
        assert not booked_twice
        assert all("spans nodes" in v for v in violations)
