"""Properties of whole simulated sessions: random pilots, task mixes, DVM
losses and one to three waves of tasks on one pilot, run through
``Session``. Every run must end with every task terminal, a clean trace
(no rejected or unknown event, each ``exec_start`` with its ``exec_stop``),
an exact utilization partition and a clean replay, and the same seed must
write the same bytes.

Reproduce a failing example with ``--hypothesis-seed=N``.
"""

import math
import os
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pilotkit.analytics import compute_utilization, load_session_traces, replay_check
from pilotkit.client import TERMINAL, TaskHandle, create_session
from pilotkit.core import Fabric, LatencyModel, PilotDescription, TaskDescription

LATENCY = st.one_of(
    st.just(LatencyModel()),
    st.builds(LatencyModel, prepare_mean_s=st.sampled_from([0.0, 0.05, 0.2]),
              prepare_std_s=st.sampled_from([0.0, 0.02]),
              ack_mean_s=st.sampled_from([0.0, 0.03, 0.1]),
              ack_std_s=st.sampled_from([0.0, 0.01]),
              ack_scale_exponent=st.sampled_from([0.0, 0.5])))
RUNTIME = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]).map(lambda d: ("--duration", str(d))),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0)).map(
        lambda ms: ("--mean", f"{ms[0]:.3f}", "--std", f"{ms[1]:.3f}")))
LOSS_TIME = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.floats(0.0, 3.0))


@st.composite
def task_descriptions(draw, pd: PilotDescription, uid: str) -> TaskDescription:
    mpi = draw(st.integers(0, 9)) < 3
    cores = draw(st.integers(1, pd.total_cores if mpi else pd.cores_per_node))
    gpus = draw(st.integers(0, pd.total_gpus if mpi else pd.gpus_per_node))
    return TaskDescription(uid=uid, executable="pilotkit-emulate",
                           arguments=draw(RUNTIME), cores_per_task=cores,
                           gpus_per_task=gpus, uses_mpi=mpi)


@st.composite
def sim_runs(draw):
    """A pilot, its DVM losses, the waves of tasks and the session seed."""
    pd = PilotDescription(
        uid="p", fabric=Fabric.SIMULATED, nodes=draw(st.integers(1, 8)),
        cores_per_node=draw(st.integers(1, 8)), gpus_per_node=draw(st.integers(0, 3)),
        dvm_max_nodes=draw(st.integers(1, 4)), latency_model=draw(LATENCY),
        bootstrap_s=draw(st.sampled_from([0.0, 0.1, 0.5])),
        teardown_s=draw(st.sampled_from([0.0, 0.05])))
    n_dvms = math.ceil(pd.nodes / pd.dvm_max_nodes)
    losses = draw(st.lists(st.tuples(st.integers(0, n_dvms - 1), LOSS_TIME), max_size=3))
    waves = [[draw(task_descriptions(pd, f"w{k}t{i:02d}"))
              for i in range(draw(st.integers(1, 30)))]
             for k in range(draw(st.integers(1, 3)))]
    return pd, losses, waves, draw(st.integers(0, 2**16))


def run_session(workdir, pd, losses, waves, seed):
    """Submit and await each wave in turn on one pilot; returns the states
    of the accepted tasks and the pilot's trace directory."""
    s = create_session(workdir, seed=seed, uid="s")
    pilot = s.create_pilot_manager().submit_pilot(pd)
    pilot.dvm_failures = losses
    tm = s.create_task_manager()
    states = []
    for wave in waves:
        handles = [h for h in tm.submit_tasks(wave) if isinstance(h, TaskHandle)]
        states += tm.wait_tasks(handles)
    s.close()
    return states, pilot.trace_dir


def trace_bytes(trace_dir):
    return {p.name: p.read_bytes() for p in Path(trace_dir).iterdir()}


@settings(max_examples=150, deadline=None)
@given(sim_runs())
def test_simulated_sessions_keep_their_invariants(run):
    pd, losses, waves, seed = run
    with tempfile.TemporaryDirectory() as tmp:
        states, trace_dir = run_session(os.path.join(tmp, "a"), *run)
        again = trace_bytes(run_session(os.path.join(tmp, "b"), *run)[1])
        assert trace_bytes(trace_dir) == again
        trace = load_session_traces(trace_dir)
    assert set(states) <= TERMINAL
    assert trace.manifest["rejected_events"] == 0
    assert trace.manifest["unknown_event_names"] == 0
    assert Counter(e.task_uid for e in trace.by_name("exec_start")) == \
        Counter(e.task_uid for e in trace.by_name("exec_stop"))
    assert all(a.complete for a in trace.attempts)
    report = compute_utilization(trace, pd)
    span = trace.last("agent_stop").ts_us - trace.first("pilot_start").ts_us
    assert sum(report.breakdown_us.values()) == report.total_core_us == pd.total_cores * span
    assert replay_check(trace) == []
