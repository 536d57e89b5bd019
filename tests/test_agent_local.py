"""Local-fabric agent: real subprocesses and function threads, staging,
sandbox isolation, cancellation, and lifecycle event completeness."""

import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from pilotkit import agent as agent_module
from pilotkit import bus
from pilotkit.agent import FUNCTION_REGISTRY, LocalAgent, register_function
from pilotkit.analytics import compute_utilization, load_session_traces, replay_check
from pilotkit.cli import main
from pilotkit.client import create_session
from pilotkit.core import TaskDescription, TaskKind, TaskState
from pilotkit.tracer import EVENTS, Tracer

from conftest import assert_lifecycle, task


@pytest.fixture
def agent_env(local_pilot, tmp_path):
    """Started agent plus its hub and tracer; stops the agent on teardown."""
    pd = local_pilot(cores=4)
    hub = bus.MessageHub()
    tracer = Tracer(str(tmp_path / "traces"))
    agent = LocalAgent(pd, hub, tracer,
                       sandbox_root=str(tmp_path / "sandbox"))
    agent.start()
    yield agent, hub, tracer
    agent.stop()
    tracer.close()
    hub.close()


def submit(agent, *tds):
    for td in tds:
        agent.submit(td)


class EndLog:
    """An ``on_end`` callback that records ``(uid, state)`` per task end."""

    def __init__(self):
        self.ends: list[tuple[str, str]] = []
        self._cond = threading.Condition()

    def __call__(self, t):
        with self._cond:
            self.ends.append((t.uid, t.state.value))
            self._cond.notify_all()

    def wait(self, count, timeout_s=10.0):
        """The ends recorded once there are ``count``, or at the timeout."""
        with self._cond:
            self._cond.wait_for(lambda: len(self.ends) >= count, timeout_s)
            return list(self.ends)


def wait_terminal(agent, uids, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    terminal = (TaskState.DONE, TaskState.FAILED, TaskState.CANCELED)
    while time.monotonic() < deadline:
        tasks = {u: agent.tasks.get(u) for u in uids}
        if all(t is not None and t.state in terminal for t in tasks.values()):
            return tasks
        time.sleep(0.01)
    raise AssertionError(f"tasks not terminal: "
                         f"{ {u: getattr(t, 'state', None) for u, t in tasks.items()} }")


class TestIntake:
    def test_agent_pulls_the_submitted_object(self, agent_env):
        agent, hub, tracer = agent_env
        td = TaskDescription(uid="f0", kind=TaskKind.FUNCTION, function="noop")
        submit(agent, td)
        wait_terminal(agent, ["f0"])
        assert agent.tasks["f0"].description is td

    def test_submitted_before_start_waits_in_the_inbox(self, local_pilot, tmp_path):
        tracer = Tracer(str(tmp_path / "traces"))
        agent = LocalAgent(local_pilot(), bus.MessageHub(), tracer,
                           sandbox_root=str(tmp_path / "sandbox"))
        submit(agent, task("early"))
        agent.start()
        try:
            assert wait_terminal(agent, ["early"])["early"].state == TaskState.DONE
        finally:
            agent.stop()
            tracer.close()
        names = [e.name for e in load_session_traces(tracer.directory).events]
        assert names.index("agent_ready") < names.index("db_bridge_pull")


class TestExecutableTasks:
    def test_run_to_done(self, agent_env):
        agent, hub, tracer = agent_env
        submit(agent, task("t0", duration=0.05))
        tasks = wait_terminal(agent, ["t0"])
        assert tasks["t0"].state == TaskState.DONE
        assert tasks["t0"].exit_code == 0

    def test_nonzero_exit_fails_task(self, agent_env):
        agent, hub, tracer = agent_env
        td = TaskDescription(uid="bad", executable="pilotkit-emulate",
                             arguments=("--duration", "0", "--exit-code", "3"))
        submit(agent, td)
        tasks = wait_terminal(agent, ["bad"])
        assert tasks["bad"].state == TaskState.FAILED
        assert tasks["bad"].exit_code == 3

    def test_missing_program_fails_not_crashes(self, agent_env):
        agent, hub, tracer = agent_env
        td = TaskDescription(uid="gone", executable="/no/such/binary")
        submit(agent, td, task("ok", duration=0.02))
        tasks = wait_terminal(agent, ["gone", "ok"])
        assert tasks["gone"].state == TaskState.FAILED
        assert tasks["ok"].state == TaskState.DONE
        agent.stop()
        tracer.close()
        trace = load_session_traces(tracer.directory)
        started = {e.task_uid for e in trace.by_name("exec_start")}
        assert started == {e.task_uid for e in trace.by_name("exec_stop")}
        assert started == {"gone", "ok"}

    def test_unstartable_sandbox_fails_not_hangs(self, agent_env, tmp_path):
        agent, hub, tracer = agent_env
        # A regular file where the sandbox root should be: no task sandbox
        # can be created under it.
        (tmp_path / "sandbox").write_text("")
        submit(agent, task("nobox", duration=0.0))
        tasks = wait_terminal(agent, ["nobox"], timeout_s=10.0)
        assert tasks["nobox"].state == TaskState.FAILED
        assert "sandbox" in tasks["nobox"].error
        agent.stop(timeout_s=5.0)
        assert not agent._thread.is_alive()
        assert not agent.running
        tracer.close()
        trace = load_session_traces(tracer.directory)
        assert [e.task_uid for e in trace.by_name("exec_stop")] == ["nobox"]

    def test_oversized_task_rejected(self, agent_env):
        agent, hub, tracer = agent_env
        submit(agent, task("huge", cores=64))
        tasks = wait_terminal(agent, ["huge"])
        assert tasks["huge"].state == TaskState.FAILED

    def test_sandbox_isolation_and_capture(self, agent_env, tmp_path):
        agent, hub, tracer = agent_env
        tds = [TaskDescription(
                   uid=f"w{i}", executable="sh",
                   arguments=("-c", f"echo out{i}; pwd"))
               for i in range(3)]
        submit(agent, *tds)
        wait_terminal(agent, [td.uid for td in tds])
        boxes = [agent.sandbox(td.uid) for td in tds]
        assert len(set(boxes)) == 3
        for i, box in enumerate(boxes):
            lines = Path(box, "task.out").read_text().splitlines()
            assert lines[0] == f"out{i}"
            assert os.path.realpath(lines[1]) == os.path.realpath(box)


class TestFunctionTasks:
    def test_builtin_noop(self, agent_env):
        agent, hub, tracer = agent_env
        td = TaskDescription(uid="f0", kind=TaskKind.FUNCTION, function="noop")
        submit(agent, td)
        tasks = wait_terminal(agent, ["f0"])
        assert tasks["f0"].state == TaskState.DONE

    def test_unknown_function_fails(self, agent_env):
        agent, hub, tracer = agent_env
        submit(agent,
               TaskDescription(uid="f1", kind=TaskKind.FUNCTION, function="nope"),
               TaskDescription(uid="g", kind=TaskKind.FUNCTION, function="noop"))
        tasks = wait_terminal(agent, ["f1", "g"])
        assert tasks["f1"].state == TaskState.FAILED
        assert "nope" in tasks["f1"].error
        assert tasks["f1"].placement is None  # failed at pull, took no slot
        assert tasks["g"].state == TaskState.DONE
        agent.stop()
        tracer.close()
        report = compute_utilization(load_session_traces(tracer.directory), agent.pd)
        assert sum(report.breakdown_us.values()) == report.total_core_us

    def test_registered_function_gets_context(self, agent_env):
        agent, hub, tracer = agent_env
        seen = {}

        def probe(ctx):
            seen["uid"] = ctx.td.uid
            seen["arg"] = ctx.arg("--x")
            return 0

        register_function("probe_fn", probe)
        try:
            td = TaskDescription(uid="f2", kind=TaskKind.FUNCTION,
                                 function="probe_fn", arguments=("--x", "7"))
            submit(agent, td)
            tasks = wait_terminal(agent, ["f2"])
        finally:
            FUNCTION_REGISTRY.pop("probe_fn", None)
        assert tasks["f2"].state == TaskState.DONE
        assert seen == {"uid": "f2", "arg": "7"}

    def test_raising_function_fails_task(self, agent_env):
        agent, hub, tracer = agent_env
        register_function("boom", lambda ctx: (_ for _ in ()).throw(RuntimeError("x")))
        try:
            td = TaskDescription(uid="f3", kind=TaskKind.FUNCTION, function="boom")
            submit(agent, td)
            tasks = wait_terminal(agent, ["f3"])
        finally:
            FUNCTION_REGISTRY.pop("boom", None)
        assert tasks["f3"].state == TaskState.FAILED


class TestStaging:
    def test_stage_in_and_out(self, agent_env, tmp_path):
        agent, hub, tracer = agent_env
        src = tmp_path / "input.txt"
        src.write_text("payload")
        out = tmp_path / "result" / "copy.txt"
        td = TaskDescription(
            uid="s0", executable="sh",
            arguments=("-c", "cp data/input.txt output.txt"),
            stage_in=((str(src), "data/input.txt"),),
            stage_out=(("output.txt", str(out)),))
        submit(agent, td)
        tasks = wait_terminal(agent, ["s0"])
        assert tasks["s0"].state == TaskState.DONE
        assert out.read_text() == "payload"

    def test_missing_stage_in_source_fails(self, agent_env, tmp_path):
        agent, hub, tracer = agent_env
        td = TaskDescription(uid="s1", executable="true",
                             stage_in=((str(tmp_path / "absent"), "x"),))
        submit(agent, td)
        tasks = wait_terminal(agent, ["s1"])
        assert tasks["s1"].state == TaskState.FAILED
        assert "SourceMissing" in tasks["s1"].error

    def test_unreadable_stage_in_source_names_its_cause(self, agent_env, tmp_path):
        agent, hub, tracer = agent_env
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)  # copyfile refuses a named pipe before opening it
        td = TaskDescription(uid="s2", executable="true", stage_in=((str(fifo), "x"),))
        submit(agent, td)
        tasks = wait_terminal(agent, ["s2"])
        assert tasks["s2"].state == TaskState.FAILED
        assert tasks["s2"].error.startswith("StageInFailed: "), tasks["s2"].error
        assert "named pipe" in tasks["s2"].error


class TestLifecycle:
    def test_staged_tasks_and_a_cancel(self, agent_env, tmp_path, state_paths):
        agent, hub, tracer = agent_env
        src = tmp_path / "in.txt"
        src.write_text("x")
        stage_in = ((str(src), "in.txt"),)
        tds = [
            TaskDescription(uid="in", executable="sh", arguments=("-c", "cat in.txt"),
                            stage_in=stage_in),
            TaskDescription(uid="out", executable="sh", arguments=("-c", "echo y > o"),
                            stage_out=(("o", str(tmp_path / "o1")),)),
            TaskDescription(uid="both", executable="sh", arguments=("-c", "cp in.txt o"),
                            stage_in=stage_in, stage_out=(("o", str(tmp_path / "o2")),)),
        ]
        submit(agent, *tds)
        staged = wait_terminal(agent, [td.uid for td in tds])
        submit(agent, task("long", duration=60.0), task("wide", cores=4))
        deadline = time.monotonic() + 10.0
        while agent.tasks.get("long") is None or \
                agent.tasks["long"].state != TaskState.EXECUTING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        agent.stop()
        assert [staged[u].state for u in ("in", "out", "both")] == [TaskState.DONE] * 3
        assert TaskState.STAGING_IN in state_paths["in"]
        assert TaskState.STAGING_OUT in state_paths["out"]
        assert {TaskState.STAGING_IN, TaskState.STAGING_OUT} <= set(state_paths["both"])
        assert (tmp_path / "o2").read_text() == "x"
        assert agent.tasks["long"].state == TaskState.CANCELED
        assert agent.tasks["wide"].state == TaskState.CANCELED
        for t in agent.tasks.values():
            assert_lifecycle(t, state_paths)


class TestCancel:
    def test_cancel_terminates_running_process(self, local_pilot, tmp_path):
        pd = local_pilot(cores=2)
        hub = bus.MessageHub()
        tracer = Tracer(str(tmp_path / "traces"))
        agent = LocalAgent(pd, hub, tracer,
                           sandbox_root=str(tmp_path / "sandbox"))
        agent.start()
        submit(agent, task("long", duration=60.0), task("waiting", duration=60.0, cores=2))
        deadline = time.monotonic() + 5.0
        while "long" not in agent.running and time.monotonic() < deadline:
            time.sleep(0.01)
        t0 = time.monotonic()
        agent.stop()
        assert time.monotonic() - t0 < 30.0  # far below the 60 s runtime
        assert agent.tasks["long"].state == TaskState.CANCELED
        assert agent.tasks["waiting"].state == TaskState.CANCELED
        tracer.close()
        hub.close()

    def test_exec_thread_started_after_stop_spawns_nothing(self, agent_env, monkeypatch):
        agent, hub, tracer = agent_env
        held = threading.Event()
        build = agent_module.build_launch_command

        def build_after_cancel(td, placement):
            held.set()
            assert agent._cancel.wait(30.0)
            return build(td, placement)

        monkeypatch.setattr(agent_module, "build_launch_command", build_after_cancel)
        submit(agent, TaskDescription(uid="late", executable="sh",
                                      arguments=("-c", "echo ran")))
        assert held.wait(10.0)
        agent.stop()
        assert agent.tasks["late"].state == TaskState.CANCELED
        assert not os.path.exists(os.path.join(agent.sandbox("late"), "task.out"))
        tracer.close()
        [launch] = load_session_traces(tracer.directory).attempts
        assert launch.complete and launch.returned

    def test_closed_while_running_leaves_an_analyzable_trace(self, local_pilot, tmp_path):
        """A launch that the close cancels ends with its spawn_return, so
        the partition is exact, replay is clean and ``analyze`` exits 0."""
        session = create_session(str(tmp_path / "w"), uid="s")
        pd = local_pilot(cores=1)
        pilot = session.create_pilot_manager().submit_pilot(pd)
        tm = session.create_task_manager()
        tm.submit_tasks([TaskDescription(uid=u, executable="sleep", arguments=("5",))
                         for u in ("long", "queued")])
        agent = pilot.agent
        deadline = time.monotonic() + 10.0
        while getattr(agent.running.get("long"), "proc", None) is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        session.close()
        assert [agent.tasks[u].state for u in ("long", "queued")] == [TaskState.CANCELED] * 2
        trace = load_session_traces(pilot.trace_dir)
        report = compute_utilization(trace, pd)
        assert sum(report.breakdown_us.values()) == report.total_core_us
        assert replay_check(trace) == []
        assert main(["analyze", session.directory, "--out", str(tmp_path / "a")]) == 0

    def test_cancel_during_stage_in(self, local_pilot, tmp_path, monkeypatch, state_paths):
        """Session.close cancels a task whose stage-in is still copying on
        the agent thread; the copy ends only after the cancel is asked."""
        copying, release = threading.Event(), threading.Event()
        copyfile = shutil.copyfile

        def held_copyfile(src, dst, **kw):
            copying.set()
            assert release.wait(30.0)
            return copyfile(src, dst, **kw)

        monkeypatch.setattr(shutil, "copyfile", held_copyfile)
        src = tmp_path / "in.txt"
        src.write_text("x")
        session = create_session(str(tmp_path / "w"), uid="s")
        pilot = session.create_pilot_manager().submit_pilot(local_pilot(cores=1))
        tm = session.create_task_manager()
        [handle] = tm.submit_tasks([TaskDescription(
            uid="staged", executable="true", stage_in=((str(src), "in.txt"),))])
        assert copying.wait(10.0)
        agent = pilot.agent  # the close drops it from the pilot
        closer = threading.Thread(target=session.close)
        closer.start()
        deadline = time.monotonic() + 10.0
        while not agent._cancel.is_set():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        release.set()
        closer.join(30.0)
        assert not closer.is_alive()
        assert agent.tasks["staged"].state == TaskState.CANCELED
        assert_lifecycle(agent.tasks["staged"], state_paths)
        trace = load_session_traces(pilot.trace_dir)
        assert trace.manifest["unknown_event_names"] == 0
        assert {e.name for e in trace.events} <= EVENTS.keys()
        assert "stage_in_stop" in {e.name for e in trace.events}
        for a in trace.attempts:
            assert (a.exec_start_us is None) == (a.exec_stop_us is None), a
        # The cancel came first, so the staged task is never placed or started.
        started = {"schedule_ok", "prepare_start", "exec_start"}
        assert not [e for e in trace.events if e.name in started], trace.events


class TestEvents:
    def test_lifecycle_event_completeness(self, agent_env, tmp_path):
        from pilotkit.analytics import load_session_traces, replay_check

        agent, hub, tracer = agent_env
        tds = [task(f"t{i}", duration=0.02) for i in range(8)]
        submit(agent, *tds)
        wait_terminal(agent, [td.uid for td in tds])
        agent.stop()
        tracer.close()
        trace = load_session_traces(tracer.directory)
        needed = ["db_bridge_pull", "schedule_ok", "prepare_start",
                  "exec_start", "exec_stop", "spawn_return", "task_done"]
        for name in needed:
            uids = {e.task_uid for e in trace.by_name(name)}
            assert uids == {td.uid for td in tds}, name
        assert replay_check(trace) == []

    def test_state_notifications_broadcast(self, local_pilot, tmp_path):
        pd = local_pilot()
        hub = bus.MessageHub()
        ends = EndLog()
        tracer = Tracer(str(tmp_path / "traces"))
        agent = LocalAgent(pd, hub, tracer,
                           sandbox_root=str(tmp_path / "sandbox"), on_end=ends)
        agent.start()
        submit(agent, task("n0", duration=0.01))
        assert ends.wait(1) == [("n0", "DONE")]
        agent.stop()
        tracer.close()
        hub.close()


class TestDuplicateUid:
    def test_duplicate_fails_at_pull_and_leaves_the_first(self, local_pilot, tmp_path):
        pd = local_pilot(cores=4)
        hub = bus.MessageHub()
        ends = EndLog()
        tracer = Tracer(str(tmp_path / "traces"))
        agent = LocalAgent(pd, hub, tracer, sandbox_root=str(tmp_path / "sandbox"),
                           on_end=ends)
        agent.start()
        try:
            first = task("t0", duration=0.3)
            submit(agent, first)
            deadline = time.monotonic() + 10.0
            while "t0" not in agent.tasks and time.monotonic() < deadline:
                time.sleep(0.01)
            submit(agent, task("t0", cores=4), task("t1", duration=0.01))
            tasks = wait_terminal(agent, ["t0", "t1"])
            assert agent.tasks["t0"].description == first  # not the 4-core duplicate
            assert tasks["t0"].state == tasks["t1"].state == TaskState.DONE
            # The refused duplicate tells no one: t0's owner hears DONE only.
            assert sorted(ends.wait(2)) == [("t0", "DONE"), ("t1", "DONE")]
        finally:
            agent.stop()
            tracer.close()
            hub.close()
        trace = load_session_traces(tracer.directory)
        failed = trace.by_name("task_failed")
        assert [e.task_uid for e in failed] == ["t0"]
        assert "uid already pulled" in failed[0].detail


class TestSchedulingPressure:
    def test_more_tasks_than_cores_all_complete(self, agent_env):
        agent, hub, tracer = agent_env
        tds = [task(f"p{i:02d}", duration=0.02) for i in range(12)]
        submit(agent, *tds)
        tasks = wait_terminal(agent, [td.uid for td in tds], timeout_s=60.0)
        assert all(t.state == TaskState.DONE for t in tasks.values())

    def test_many_exec_threads_each_end_reported_once(self, local_pilot, tmp_path):
        # Exec threads append completions to a deque the agent thread drains.
        pd = local_pilot(cores=8)
        hub = bus.MessageHub()
        ends = EndLog()
        tracer = Tracer(str(tmp_path / "traces"))
        agent = LocalAgent(pd, hub, tracer, sandbox_root=str(tmp_path / "sandbox"),
                           on_end=ends)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            agent.start()
            uids = [f"f{i:03d}" for i in range(300)]
            submit(agent, *(TaskDescription(uid=u, kind=TaskKind.FUNCTION,
                                            function="noop") for u in uids))
            got = ends.wait(len(uids), timeout_s=60.0)
        finally:
            sys.setswitchinterval(interval)
            agent.stop()
            tracer.close()
            hub.close()
        assert sorted(got) == [(u, "DONE") for u in uids]
        assert not agent._thread.is_alive() and not agent.running
