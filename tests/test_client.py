"""Session / manager API: lifecycle, validation routing, waiting,
multi-pilot round-robin, task waves, simulated-pilot determinism, and the
README's Quick start."""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from pilotkit.analytics import compute_utilization, load_session_traces, replay_check
from pilotkit.client import (
    NoPilot,
    PilotHandle,
    Session,
    SessionExists,
    WaitTimeout,
    WorkdirUnwritable,
    create_session,
)
from pilotkit.core import LatencyModel, TaskDescription, TaskKind, ValidationError

from conftest import task


@pytest.fixture
def session(tmp_path):
    s = create_session(str(tmp_path / "work"), seed=1, uid="s")
    yield s
    s.close()


class TestSessionLifecycle:
    def test_workdir_layout(self, session):
        assert os.path.isdir(session.directory)
        meta = json.loads(Path(session.directory, "session.json").read_text())
        assert meta == {"uid": "s", "seed": 1}

    def test_unwritable_workdir(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_text("")
        with pytest.raises(WorkdirUnwritable):
            create_session(str(blocker / "w"))

    def test_close_idempotent(self, tmp_path):
        s = create_session(str(tmp_path / "w"), uid="s")
        s.close()
        s.close()
        assert s.state == "closed"

    def test_reused_session_directory_refused(self, tmp_path, sim_pilot):
        """A second session with the uid of a finished one would append its
        events to the first one's trace files."""
        first = create_session(str(tmp_path / "w"), uid="s")
        pilot = first.create_pilot_manager().submit_pilot(sim_pilot(nodes=1, cores=1))
        tm = first.create_task_manager()
        assert tm.wait_tasks(tm.submit_tasks([task("t0", duration=0.5)])) == ["DONE"]
        first.close()
        files = sorted(Path(first.directory).rglob("*"))
        before = {p: p.read_bytes() for p in files if p.is_file()}
        with pytest.raises(SessionExists, match="already holds a session"):
            create_session(str(tmp_path / "w"), uid="s")
        assert sorted(Path(first.directory).rglob("*")) == files
        assert {p: p.read_bytes() for p in before} == before
        assert len(load_session_traces(pilot.trace_dir).by_name("pilot_start")) == 1

    def test_generated_uid_unique(self, tmp_path):
        a = create_session(str(tmp_path / "w"))
        b = create_session(str(tmp_path / "w"))
        assert a.uid != b.uid
        a.close()
        b.close()

    def test_no_thread_without_a_local_pilot(self, tmp_path, sim_pilot):
        before = set(threading.enumerate())
        s = create_session(str(tmp_path / "w"), seed=1)
        s.create_pilot_manager().submit_pilot(sim_pilot())
        tm = s.create_task_manager()
        assert tm.wait_tasks(tm.submit_tasks([task("t0", duration=1.0)])) == ["DONE"]
        # Threads of earlier tests may end meanwhile; none may begin.
        assert set(threading.enumerate()) - before == set()
        s.close()

    def test_session_trace_written_on_close(self, tmp_path, sim_pilot):
        s = create_session(str(tmp_path / "w"), uid="s")
        s.close()
        manifest = json.loads(
            Path(s.directory, "traces", "manifest.json").read_text())
        assert manifest["session"] == "s"


class TestSubmission:
    def test_no_pilot_raises(self, session):
        tm = session.create_task_manager()
        with pytest.raises(NoPilot, match=r"pilots: none"):
            tm.submit_tasks([task("t0")])

    def test_validation_errors_in_place(self, session, sim_pilot):
        session.create_pilot_manager().submit_pilot(sim_pilot(nodes=1, cores=4))
        tm = session.create_task_manager()
        out = tm.submit_tasks([task("ok"), task("big", cores=99), task("ok2")])
        assert out[0].uid == "ok"
        assert isinstance(out[1], ValidationError)
        assert out[2].uid == "ok2"

    def test_round_robin_across_pilots(self, session, sim_pilot):
        pm = session.create_pilot_manager()
        pm.submit_pilot(sim_pilot(uid="pA"))
        pm.submit_pilot(sim_pilot(uid="pB"))
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task(f"t{i}") for i in range(6)])
        assigned = [h.pilot_uid for h in handles]
        assert assigned == ["pA", "pB", "pA", "pB", "pA", "pB"]

    @pytest.mark.parametrize("fabric", ["simulated", "local"])
    def test_duplicate_task_uid_rejected_in_place(self, session, sim_pilot,
                                                  local_pilot, fabric):
        pilot = sim_pilot() if fabric == "simulated" else local_pilot()
        session.create_pilot_manager().submit_pilot(pilot)
        tm = session.create_task_manager()
        out = tm.submit_tasks([task("a", duration=0.05), task("a"), task("b")])
        assert [type(h).__name__ for h in out] == ["TaskHandle", "ValidationError", "TaskHandle"]
        assert "already submitted" in str(out[1])
        again = tm.submit_tasks([task("b"), task("c")])
        assert isinstance(again[0], ValidationError) and again[1].uid == "c"
        handles = [out[0], out[2], again[1]]
        assert tm.wait_tasks(handles, timeout_s=60.0) == ["DONE"] * 3

    def test_duplicate_pilot_uid_rejected(self, session, sim_pilot):
        pm = session.create_pilot_manager()
        pm.submit_pilot(sim_pilot(uid="p"))
        with pytest.raises(ValidationError):
            pm.submit_pilot(sim_pilot(uid="p"))


class TestSimulatedPilots:
    def test_wait_runs_sim_and_resolves_handles(self, session, sim_pilot):
        session.create_pilot_manager().submit_pilot(sim_pilot())
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task(f"t{i}", duration=1.0) for i in range(8)])
        states = tm.wait_tasks(handles, timeout_s=30.0)
        assert states == ["DONE"] * 8

    def test_traces_land_in_pilot_dir(self, session, sim_pilot):
        from pilotkit.analytics import compute_ttx

        pilot = session.create_pilot_manager().submit_pilot(sim_pilot(uid="px"))
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task("t0", duration=2.0)])
        tm.wait_tasks(handles)
        session.close()
        trace = load_session_traces(pilot.trace_dir)
        assert compute_ttx(trace) == pytest.approx(2.0)
        assert trace.manifest["pilot"]["uid"] == "px"

    def test_waves_share_one_pilot_life(self, tmp_path, sim_pilot):
        s = create_session(str(tmp_path / "w"), seed=3, uid="s")
        lm = LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.02,
                          ack_mean_s=0.03, ack_std_s=0.01)
        pd = sim_pilot(uid="p0", nodes=2, cores=4, lm=lm)
        pilot = s.create_pilot_manager().submit_pilot(pd)
        tm = s.create_task_manager()
        first = tm.submit_tasks([task(f"a{i:02d}", duration=1.0) for i in range(12)])
        assert tm.wait_tasks(first) == ["DONE"] * 12
        second = tm.submit_tasks([task(f"b{i:02d}", duration=0.5) for i in range(5)])
        assert tm.wait_tasks(second) == ["DONE"] * 5
        assert pilot.state == PilotHandle.ACTIVE
        s.close()
        assert pilot.state == PilotHandle.DONE and pilot.agent is None
        with pytest.raises(NoPilot, match=r"pilots: p0 DONE"):
            tm.submit_tasks([task("late")])
        trace = load_session_traces(pilot.trace_dir)
        for name in ("pilot_start", "agent_ready", "agent_stop"):
            assert len(trace.by_name(name)) == 1, name
        first_end = max(e.ts_us for e in trace.events if e.task_uid.startswith("a"))
        pulls = {e.ts_us for e in trace.by_name("db_bridge_pull")
                 if e.task_uid.startswith("b")}
        assert pulls == {first_end}
        report = compute_utilization(trace, pd)
        span = trace.last("agent_stop").ts_us - trace.first("pilot_start").ts_us
        assert sum(report.breakdown_us.values()) == report.total_core_us == pd.total_cores * span
        assert replay_check(trace) == []

    def test_idle_pilot_has_no_trace(self, tmp_path, sim_pilot):
        s = create_session(str(tmp_path / "w"), uid="s")
        pilot = s.create_pilot_manager().submit_pilot(sim_pilot())
        s.close()
        assert pilot.state == PilotHandle.DONE
        assert os.listdir(pilot.trace_dir) == []

    def test_close_runs_pending_sim(self, tmp_path, sim_pilot):
        s = create_session(str(tmp_path / "w"), uid="s")
        s.create_pilot_manager().submit_pilot(sim_pilot())
        tm = s.create_task_manager()
        handles = tm.submit_tasks([task("t0", duration=0.5)])
        s.close()
        assert handles[0].state == "DONE"

    def test_determinism_across_sessions(self, tmp_path, sim_pilot):
        from pilotkit.core import LatencyModel

        def run(name):
            s = create_session(str(tmp_path / name), seed=17, uid="s")
            lm = LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.03,
                              ack_mean_s=0.02, ack_std_s=0.01)
            pilot = s.create_pilot_manager().submit_pilot(
                sim_pilot(uid="p", lm=lm))
            tm = s.create_task_manager()
            handles = tm.submit_tasks([task(f"t{i:02d}", duration=0.3)
                                       for i in range(20)])
            tm.wait_tasks(handles)
            s.close()
            return Path(pilot.trace_dir, "executor.csv").read_bytes()
        assert run("a") == run("b")


class TestLocalPilots:
    def test_local_pilot_end_to_end(self, session, local_pilot):
        pilot = session.create_pilot_manager().submit_pilot(local_pilot(uid="pl"))
        assert pilot.state == PilotHandle.ACTIVE
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task(f"t{i}", duration=0.02) for i in range(4)])
        states = tm.wait_tasks(handles, timeout_s=60.0)
        assert states == ["DONE"] * 4

    def test_wait_timeout_lists_pending(self, session, local_pilot):
        session.create_pilot_manager().submit_pilot(local_pilot())
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task("slow", duration=30.0)])
        with pytest.raises(WaitTimeout) as exc:
            tm.wait_tasks(handles, timeout_s=0.3)
        assert exc.value.pending_uids == ["slow"]

    def test_close_cancels_every_task_not_ended(self, tmp_path, local_pilot):
        # More tasks than one intake takes from the bus, closed at once:
        # some are still queued, some wait for a core, some sleep and
        # return when they see the cancel.
        s = create_session(str(tmp_path / "w"), uid="s")
        s.create_pilot_manager().submit_pilot(local_pilot(cores=4))
        tm = s.create_task_manager()
        handles = tm.submit_tasks([
            TaskDescription(uid=f"f{i:04d}", kind=TaskKind.FUNCTION, function="sleep",
                            arguments=("--duration", "0.5"))
            for i in range(3000)])
        s.close()
        assert {h.state for h in handles} == {"CANCELED"}

    def test_mixed_fabrics_one_session(self, session, local_pilot, sim_pilot):
        pm = session.create_pilot_manager()
        pm.submit_pilot(local_pilot(uid="pl"))
        pm.submit_pilot(sim_pilot(uid="ps"))
        tm = session.create_task_manager()
        handles = tm.submit_tasks([task(f"t{i}", duration=0.05) for i in range(4)])
        states = tm.wait_tasks(handles, timeout_s=60.0)
        assert states == ["DONE"] * 4
        by_pilot = {h.pilot_uid for h in handles}
        assert by_pilot == {"pl", "ps"}


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """The README's Quick start block runs as written."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(readme), "exec"), {})
    assert capsys.readouterr().out.strip()
