"""Tracer behavior: buffering must be invisible in the final files,
out-of-order explicit timestamps are rejected, the manifest accounts for
every event, and a disabled tracer writes nothing."""

import csv
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.core import Fabric, PilotDescription
from pilotkit.simulator import SimAgent
from pilotkit.tracer import DEFAULT_BUFFER_EVENTS, EVENTS, NullTracer, Tracer


def read_trace(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh)]


class TestEmit:
    def test_line_format(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("agent", "exec_start", "t0", "node 0", timestamp=1.25)
        tr.close()
        rows = read_trace(tmp_path / "agent.csv")
        assert rows == [["1.250000", "agent", "exec_start", "t0", "node 0"]]

    def test_microsecond_precision(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t", timestamp=0.1234567)
        tr.close()
        assert read_trace(tmp_path / "a.csv")[0][0] == "0.123457"

    def test_auto_timestamps_monotone_per_component(self, tmp_path):
        tr = Tracer(str(tmp_path))
        for i in range(100):
            tr.emit("a", "exec_start", f"t{i}")
        tr.close()
        stamps = [float(r[0]) for r in read_trace(tmp_path / "a.csv")]
        assert stamps == sorted(stamps)

    def test_out_of_order_explicit_rejected_and_counted(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t0", timestamp=5.0)
        tr.emit("a", "exec_stop", "t0", timestamp=4.0)
        tr.emit("a", "exec_stop", "t0", timestamp=5.0)
        assert tr.rejected == 1
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rejected_events"] == 1

    def test_components_get_separate_files(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("agent", "exec_start", "t0", timestamp=1.0)
        tr.emit("scheduler", "schedule_ok", "t0", timestamp=1.0)
        tr.close()
        assert (tmp_path / "agent.csv").exists()
        assert (tmp_path / "scheduler.csv").exists()

    def test_unknown_event_name_counted_not_dropped(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "totally_made_up", "t0", timestamp=1.0)
        assert tr.unknown_names == 1
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 1


class TestBuffering:
    def test_nothing_on_disk_below_threshold(self, tmp_path):
        tr = Tracer(str(tmp_path), buffer_events=10)
        for i in range(9):
            tr.emit("a", "exec_start", f"t{i}", timestamp=float(i))
        assert not (tmp_path / "a.csv").exists()
        tr.emit("a", "exec_start", "t9", timestamp=9.0)
        assert len(read_trace(tmp_path / "a.csv")) == 10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 120))
    def test_buffer_size_invisible_in_output(self, buffer_events, n):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            tr = Tracer(d, buffer_events=buffer_events)
            for i in range(n):
                tr.emit("a", "exec_start", f"t{i}", timestamp=float(i))
            tr.close()
            rows = read_trace(os.path.join(d, "a.csv"))
        assert [r[3] for r in rows] == [f"t{i}" for i in range(n)]

    def test_default_buffer_size(self, tmp_path):
        assert Tracer(str(tmp_path)).buffer_events == DEFAULT_BUFFER_EVENTS


class TestManifest:
    def test_event_counts_and_offsets(self, tmp_path):
        tr = Tracer(str(tmp_path))
        for i in range(3):
            tr.emit("agent", "exec_start", f"t{i}", timestamp=float(i))
        tr.emit("scheduler", "schedule_ok", "t0", timestamp=0.0)
        tr.set_offset("scheduler", 0.5)
        tr.meta["seed"] = 42
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        by_name = {c["name"]: c for c in m["components"]}
        assert by_name["agent"]["events"] == 3
        assert by_name["scheduler"]["clock_offset_s"] == 0.5
        assert m["seed"] == 42
        assert m["partial"] is False

    def test_counts_match_file_lines(self, tmp_path):
        tr = Tracer(str(tmp_path), buffer_events=7)
        for i in range(100):
            tr.emit("a", "exec_start", f"t{i}", timestamp=float(i))
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["components"][0]["events"] == len(read_trace(tmp_path / "a.csv")) == 100

    def test_io_error_marks_partial(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t0", timestamp=0.0)
        # a directory at the trace-file path makes the append fail
        os.mkdir(tmp_path / "a.csv")
        tr.flush()
        assert tr.io_errors == 1
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["partial"] is True

    def test_close_idempotent(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t0", timestamp=0.0)
        tr.close()
        tr.emit("a", "exec_stop", "t0", timestamp=1.0)  # ignored after close
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 1


class TestDisabled:
    def test_null_tracer_writes_nothing(self, tmp_path):
        tr = NullTracer()
        tr.emit("a", "exec_start", "t0")
        tr.close()
        assert tr.event_count() == 0

    def test_disabled_tracer_creates_no_directory(self, tmp_path):
        d = tmp_path / "sub"
        tr = Tracer(str(d), enabled=False)
        tr.emit("a", "exec_start", "t0")
        tr.close()
        assert not d.exists()


def test_custom_clock(tmp_path):
    t = [10.0]
    tr = Tracer(str(tmp_path), clock=lambda: t[0])
    tr.emit("a", "exec_start", "t0")
    t[0] = 11.5
    tr.emit("a", "exec_stop", "t0")
    tr.close()
    rows = read_trace(tmp_path / "a.csv")
    assert [r[0] for r in rows] == ["10.000000", "11.500000"]


def simulated_stream(seed, n, components=("agent", "executor", "scheduler")):
    """``n`` events ``(timestamp, component, name, uid, detail)`` on one
    clock that mostly moves forward, sometimes stays, and now and then steps
    back; a few names are not in the registry."""
    rng = random.Random(seed)
    names = sorted(EVENTS)
    t, out = 0.0, []
    for i in range(n):
        r = rng.random()
        if r < 0.02:
            t = max(0.0, t - rng.uniform(0, 2))
        elif r < 0.6:
            t += rng.choice((0.5, rng.uniform(0, 0.01)))
        name = "made_up_event" if rng.random() < 0.01 else rng.choice(names)
        out.append((t, rng.choice(components), name,
                    rng.choice((None, f"t{i}")), rng.choice((None, "", "0", "a,b"))))
    return out


def through_emit(directory, events, **kw):
    tr = Tracer(directory, **kw)
    for ts, component, name, uid, detail in events:
        tr.emit(component, name, task_uid=uid, detail=detail, timestamp=ts)
    tr.close()
    return tr


def through_simulator(directory, events, **kw):
    """The simulated fabric's trace path: rows stamped with the agent's
    virtual time, kept per component and handed over in batches."""
    tr = Tracer(directory, **kw)
    agent = SimAgent(PilotDescription(uid="p", fabric=Fabric.SIMULATED), tr)
    for ts, component, name, uid, detail in events:
        agent.now = ts
        agent._emit(component, name, uid, detail)
    agent._hand_over_all()
    tr.close()
    return tr


def tree_bytes(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


class TestSimulatorPath:
    """The batched path the simulator uses writes what ``emit`` writes."""

    def test_same_files_across_the_flush_boundary(self, tmp_path):
        events = simulated_stream(seed=1, n=3 * DEFAULT_BUFFER_EVENTS + 3000)
        # A stamp before its component's last event, and a name not in
        # the registry.
        late = next(i for i in range(5000, len(events)) if events[i][1] == "agent")
        last_agent = max(e[0] for e in events[:late] if e[1] == "agent")
        events[late] = (last_agent - 1.0,) + events[late][1:]
        events[late + 1] = events[late + 1][:2] + ("made_up_event",) + events[late + 1][3:]
        a = through_emit(tmp_path / "a", events)
        b = through_simulator(tmp_path / "b", events)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        counts = {c["name"]: c["events"] for c in manifest["components"]}
        assert all(n > DEFAULT_BUFFER_EVENTS for n in counts.values()), counts
        assert manifest["rejected_events"] == a.rejected == b.rejected > 0
        assert manifest["unknown_event_names"] == a.unknown_names == b.unknown_names > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 400), st.integers(1, 40))
    def test_same_files_for_any_stream_and_buffer(self, seed, n, buffer_events):
        import pathlib
        import tempfile

        events = simulated_stream(seed, n)
        with tempfile.TemporaryDirectory() as d:
            d = pathlib.Path(d)
            a = through_emit(d / "a", events, buffer_events=buffer_events)
            b = through_simulator(d / "b", events, buffer_events=buffer_events)
            assert tree_bytes(d / "a") == tree_bytes(d / "b")
        assert (a.rejected, a.unknown_names) == (b.rejected, b.unknown_names)

    def test_rows_before_the_components_last_event_rejected(self, tmp_path):
        rows = [(float(i), "exec_start", f"t{i}", None) for i in range(10)]
        a = Tracer(str(tmp_path / "a"))
        b = Tracer(str(tmp_path / "b"))
        for tr in (a, b):
            tr.emit("executor", "exec_stop", "t", timestamp=4.5)
        for ts, name, uid, detail in rows:
            a.emit("executor", name, task_uid=uid, detail=detail, timestamp=ts)
        b.emit_rows("executor", rows)
        assert a.rejected == b.rejected == 5
        a.close()
        b.close()
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        events = simulated_stream(seed=2, n=DEFAULT_BUFFER_EVENTS + 10)
        tr = through_simulator(tmp_path / "off", events, enabled=False)
        assert not (tmp_path / "off").exists()
        assert tr.event_count() == 0
