"""Trace contract shared by both fabrics: the local agent traces the same
scheduling events as the simulated one, master/worker calls do not count as
tasks in the concurrency series, and every event any pilot emits is in the
event table."""

import json
import os

from pilotkit.analytics import concurrency_series, load_session_traces
from pilotkit.client import create_session
from pilotkit.core import TaskDescription, TaskKind
from pilotkit.raptor import MasterConfig, launch_master, launch_workers

from conftest import task


def fn_task(uid, function="noop"):
    return TaskDescription(uid=uid, kind=TaskKind.FUNCTION, function=function)


def test_local_agent_traces_schedule_wait_and_fail(tmp_path, local_pilot):
    s = create_session(str(tmp_path / "w"), uid="s")
    pilot = s.create_pilot_manager().submit_pilot(local_pilot(cores=1))
    tm = s.create_task_manager()
    tds = [TaskDescription(uid="sleeper", executable="sleep", arguments=("0.3",)),
           fn_task("a"), fn_task("b"), fn_task("nope", "no_such_function")]
    states = tm.wait_tasks(tm.submit_tasks(tds), timeout_s=30.0)
    s.close()
    assert states == ["DONE", "DONE", "DONE", "FAILED"]
    trace = load_session_traces(pilot.trace_dir)
    assert sorted(e.task_uid for e in trace.by_name("schedule_wait")) == ["a", "b"]
    assert [e.task_uid for e in trace.by_name("schedule_fail")] == ["nope"]


def test_master_worker_concurrency_counts_tasks_not_calls(tmp_path, local_pilot):
    s = create_session(str(tmp_path / "w"), uid="s")
    pd = local_pilot(cores=3)
    pilot = s.create_pilot_manager().submit_pilot(pd)
    tm = s.create_task_manager()
    handle = launch_master(s, tm, MasterConfig(workers_per_master=2), pilot_pd=pd)
    launch_workers(handle)
    handle.submit_calls([{"uid": f"c{i:02d}", "fn": "sleep", "payload": "0.02"}
                         for i in range(60)])
    assert len(handle.results(60, timeout_s=60.0)) == 60
    handle.close()
    s.close()
    trace = load_session_traces(pilot.trace_dir)
    assert concurrency_series(trace, 0.05).peak() <= pd.total_cores + 1e-6
    assert len(trace.by_name("call_start")) == len(trace.by_name("call_stop")) == 60


def emitted_names(session, *pilots):
    """Names of every event in the session's and pilots' traces; each
    manifest must count no unknown name."""
    names = set()
    for trace_dir in [os.path.join(session.directory, "traces")] + \
            [p.trace_dir for p in pilots]:
        with open(os.path.join(trace_dir, "manifest.json")) as fh:
            assert json.load(fh)["unknown_event_names"] == 0, trace_dir
        names |= {e.name for e in load_session_traces(trace_dir).events}
    return names


def test_every_emitted_event_is_in_the_event_table(tmp_path, local_pilot, sim_pilot):
    # A local pilot: staging both ways, then a task canceled by the close.
    src = tmp_path / "in.txt"
    src.write_text("x")
    s = create_session(str(tmp_path / "local"), uid="s")
    pilot = s.create_pilot_manager().submit_pilot(local_pilot(cores=2))
    tm = s.create_task_manager()
    staged = TaskDescription(uid="staged", executable="sh",
                             arguments=("-c", "cp in.txt out.txt"),
                             stage_in=((str(src), "in.txt"),),
                             stage_out=(("out.txt", str(tmp_path / "out.txt")),))
    assert tm.wait_tasks(tm.submit_tasks([staged]), timeout_s=30.0) == ["DONE"]
    tm.submit_tasks([task("long", duration=60.0)])
    s.close()
    assert {"stage_in_start", "stage_out_stop", "task_canceled"} <= \
        emitted_names(s, pilot)

    # A master/worker pilot whose call crashes both of its workers.
    s = create_session(str(tmp_path / "mw"), uid="s")
    pd = local_pilot(cores=3)
    pilot = s.create_pilot_manager().submit_pilot(pd)
    tm = s.create_task_manager()
    handle = launch_master(s, tm, MasterConfig(workers_per_master=2), pilot_pd=pd)
    launch_workers(handle)
    handle.submit_calls([{"uid": "boom", "fn": "crash", "payload": ""}])
    [result] = handle.results(1, timeout_s=60.0)
    assert not result["ok"]
    handle.close()
    s.close()
    assert {"call_dispatch", "call_start", "worker_lost"} <= emitted_names(s, pilot)

    # A simulated pilot that loses one of its two DVMs.
    s = create_session(str(tmp_path / "sim"), uid="s")
    pilot = s.create_pilot_manager().submit_pilot(
        sim_pilot(nodes=4, cores=4, dvm_max=2))
    pilot.dvm_failures = [(0, 0.5)]
    tm = s.create_task_manager()
    handles = tm.submit_tasks([task(f"t{i:02d}", duration=1.0) for i in range(16)])
    assert set(tm.wait_tasks(handles)) == {"DONE"}
    s.close()
    assert "dvm_failed" in emitted_names(s, pilot)
