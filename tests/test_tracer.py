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
from pilotkit.tracer import DEFAULT_BUFFER_EVENTS, EVENTS, LINE_FORMAT, NullTracer, Tracer


def read_trace(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh)]


class TestEmit:
    def test_line_format(self, tmp_path):
        tr = Tracer(str(tmp_path), clock=lambda: 1.25)
        tr.emit("agent", "exec_start", "t0", "node 0")
        tr.close()
        rows = read_trace(tmp_path / "agent.csv")
        assert rows == [["1.250000", "agent", "exec_start", "t0", "node 0"]]

    def test_microsecond_precision(self, tmp_path):
        tr = Tracer(str(tmp_path), clock=lambda: 0.1234567)
        tr.emit("a", "exec_start", "t")
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
        tr.emit_rows("a", [(5.0, "exec_start", "t0", None), (4.0, "exec_stop", "t0", None),
                           (5.0, "exec_stop", "t0", None)])
        assert tr.rejected == 1
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rejected_events"] == 1

    def test_components_get_separate_files(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("agent", "exec_start", "t0")
        tr.emit("scheduler", "schedule_ok", "t0")
        tr.close()
        assert (tmp_path / "agent.csv").exists()
        assert (tmp_path / "scheduler.csv").exists()

    def test_unknown_event_name_counted_not_dropped(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "totally_made_up", "t0")
        assert tr.unknown_names == 1
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 1


class TestBuffering:
    def test_nothing_on_disk_below_threshold(self, tmp_path):
        tr = Tracer(str(tmp_path), buffer_events=10)
        for i in range(9):
            tr.emit("a", "exec_start", f"t{i}")
        assert not (tmp_path / "a.csv").exists()
        tr.emit("a", "exec_start", "t9")
        assert len(read_trace(tmp_path / "a.csv")) == 10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 120))
    def test_buffer_size_invisible_in_output(self, buffer_events, n):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            tr = Tracer(d, buffer_events=buffer_events)
            for i in range(n):
                tr.emit("a", "exec_start", f"t{i}")
            tr.close()
            rows = read_trace(os.path.join(d, "a.csv"))
        assert [r[3] for r in rows] == [f"t{i}" for i in range(n)]

    def test_default_buffer_size(self, tmp_path):
        assert Tracer(str(tmp_path)).buffer_events == DEFAULT_BUFFER_EVENTS


class TestManifest:
    def test_event_counts(self, tmp_path):
        tr = Tracer(str(tmp_path))
        for i in range(3):
            tr.emit("agent", "exec_start", f"t{i}")
        tr.emit("scheduler", "schedule_ok", "t0")
        tr.meta["seed"] = 42
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["components"] == [
            {"name": "agent", "file": "agent.csv", "events": 3},
            {"name": "scheduler", "file": "scheduler.csv", "events": 1}]
        assert m["seed"] == 42
        assert m["partial"] is False

    def test_counts_match_file_lines(self, tmp_path):
        tr = Tracer(str(tmp_path), buffer_events=7)
        for i in range(100):
            tr.emit("a", "exec_start", f"t{i}")
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["components"][0]["events"] == len(read_trace(tmp_path / "a.csv")) == 100

    def test_io_error_marks_partial(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t0")
        # a directory at the trace-file path makes the append fail
        os.mkdir(tmp_path / "a.csv")
        tr.flush()
        assert tr.io_errors == 1
        tr.close()
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["partial"] is True

    def test_close_idempotent(self, tmp_path):
        tr = Tracer(str(tmp_path))
        tr.emit("a", "exec_start", "t0")
        tr.close()
        tr.emit("a", "exec_stop", "t0")  # ignored after close
        tr.close()
        assert len(read_trace(tmp_path / "a.csv")) == 1


class TestDisabled:
    def test_null_tracer_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tr = NullTracer()
        tr.emit("a", "exec_start", "t0")
        tr.flush()
        tr.close()
        assert list(tmp_path.iterdir()) == []

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


def reference_files(events):
    """What the tracer writes for ``events``, by a plain reference: per
    component, in arrival order, an event stamped before its component's
    last kept one is rejected and every other is one ``LINE_FORMAT`` line.
    Returns file name -> bytes, the rejected count and the count of kept
    events whose name is not in the registry."""
    last, lines = {}, {}
    rejected = unknown = 0
    for ts, component, name, uid, detail in events:
        if ts < last.get(component, ts):
            rejected += 1
            continue
        last[component] = ts
        unknown += name not in EVENTS
        lines.setdefault(f"{component}.csv", []).append(
            LINE_FORMAT % (ts, component, name, uid or "", detail or "") + "\n")
    return {f: "".join(ls).encode() for f, ls in lines.items()}, rejected, unknown


def through_simulator(directory, events, **kw):
    """The simulated fabric's trace path: rows stamped with the agent's
    virtual time, kept per component and handed over in batches."""
    tr = Tracer(directory, **kw)
    # The agent's own start-up goes to a throwaway tracer: only the stream
    # is compared.
    agent = SimAgent(PilotDescription(uid="p", fabric=Fabric.SIMULATED),
                     Tracer(directory, **dict(kw, enabled=False)))
    agent._rows.clear()
    agent.tracer = tr
    for ts, component, name, uid, detail in events:
        agent.now = ts
        agent._emit(component, name, uid, detail)
    agent._hand_over_all()
    tr.close()
    return tr


def trace_files(directory):
    """The trace files under ``directory``, name -> bytes, and its manifest."""
    files = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
    return files, json.loads(files.pop("manifest.json"))


class TestSimulatorPath:
    """The batched path the simulator uses writes what the reference writes."""

    def test_same_files_across_the_flush_boundary(self, tmp_path):
        events = simulated_stream(seed=1, n=3 * DEFAULT_BUFFER_EVENTS + 3000)
        # A stamp before its component's last event, and a name not in
        # the registry.
        late = next(i for i in range(5000, len(events)) if events[i][1] == "agent")
        last_agent = max(e[0] for e in events[:late] if e[1] == "agent")
        events[late] = (last_agent - 1.0,) + events[late][1:]
        events[late + 1] = events[late + 1][:2] + ("made_up_event",) + events[late + 1][3:]
        expected, rejected, unknown = reference_files(events)
        tr = through_simulator(tmp_path, events)
        files, manifest = trace_files(tmp_path)
        assert files == expected
        counts = {c["name"]: c["events"] for c in manifest["components"]}
        assert counts == {f.removesuffix(".csv"): b.count(b"\n") for f, b in files.items()}
        assert all(n > DEFAULT_BUFFER_EVENTS for n in counts.values()), counts
        assert manifest["rejected_events"] == tr.rejected == rejected > 0
        assert manifest["unknown_event_names"] == tr.unknown_names == unknown > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 400), st.integers(1, 40))
    def test_same_files_for_any_stream_and_buffer(self, seed, n, buffer_events):
        import pathlib
        import tempfile

        events = simulated_stream(seed, n)
        expected, rejected, unknown = reference_files(events)
        with tempfile.TemporaryDirectory() as d:
            tr = through_simulator(pathlib.Path(d), events, buffer_events=buffer_events)
            assert trace_files(pathlib.Path(d))[0] == expected
        assert (tr.rejected, tr.unknown_names) == (rejected, unknown)

    def test_rows_before_the_components_last_event_rejected(self, tmp_path):
        first = [(4.5, "exec_stop", "t", None)]
        rows = [(float(i), "exec_start", f"t{i}", None) for i in range(10)]
        tr = Tracer(str(tmp_path))
        tr.emit_rows("executor", first)
        tr.emit_rows("executor", rows)
        assert tr.rejected == 5
        tr.close()
        expected, rejected, _ = reference_files(
            [(ts, "executor", name, uid, detail) for ts, name, uid, detail in first + rows])
        assert rejected == 5
        assert trace_files(tmp_path)[0] == expected

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        events = simulated_stream(seed=2, n=DEFAULT_BUFFER_EVENTS + 10)
        through_simulator(tmp_path / "off", events, enabled=False)
        assert not (tmp_path / "off").exists()
