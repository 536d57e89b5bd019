"""Analytics oracle tests: trace loading with corrupt lines, exact
utilization accounting, series invariants, replay violation detection, and
report emission."""

import csv
import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.analytics import (
    CATEGORIES,
    IncompleteTrace,
    ManifestMissing,
    NoTasks,
    Trace,
    TraceEvent,
    UnwritableOutput,
    US,
    compute_ttx,
    compute_utilization,
    concurrency_series,
    emit_report,
    latency_stats,
    load_session_traces,
    parse_schedule_detail,
    rate_series,
    replay_check,
)
from pilotkit.core import Fabric, LatencyModel, PilotDescription
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
                except ValueError:
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
_corrupt_lines = st.sampled_from(["mangled", "", "1.0,a,b", "nan,a,b,c,d", "x,a,b,c,d"])


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


def test_load_memory_per_event(tmp_path, sim_pilot):
    """A loaded 8,192-task simulated trace keeps at most 200 B per event and
    peaks at 260 B per event (tracemalloc, which counts deterministically).
    A loader that copies every name and uid and sorts on tuple keys keeps
    313 B and peaks at 382 B."""
    pd = sim_pilot(nodes=64, cores=128,
                   lm=LatencyModel(prepare_mean_s=0.037, ack_mean_s=0.135))
    tracer = Tracer(str(tmp_path))
    SimAgent(pd, tracer).run([task(f"t{i:06d}", duration=1.0) for i in range(8192)])
    tracer.close()
    gc.collect()
    tracemalloc.start()
    try:
        trace = load_session_traces(str(tmp_path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace.events)
    assert n == 7 * 8192 + 5
    assert retained / n <= 200
    assert peak / n <= 260


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
