"""Acceptance suite: end-to-end behavioral and performance criteria.

Each test is one gate; performance gates measure wall-clock time on the
assumption of a single-CPU machine. Simulated runs use desk-scale durations
(seconds where a production run would use kiloseconds); node counts are
simulated at full count.
"""

import csv
import random
import time

import pytest

from pilotkit.analytics import (
    compute_ttx,
    compute_utilization,
    concurrency_series,
    latency_stats,
    load_session_traces,
    rate_series,
    replay_check,
)
from pilotkit.client import create_session
from pilotkit.core import (
    Fabric,
    LatencyModel,
    PilotDescription,
    TaskDescription,
    TaskState,
    build_node_list,
)
from pilotkit.harness import ExperimentSpec, run_experiment
from pilotkit.raptor import MasterConfig, launch_master, launch_workers
from pilotkit.scheduler import NoFit, SlotMap, allocate_continuous
from pilotkit.simulator import SimAgent
from pilotkit.tracer import NullTracer, Tracer

from conftest import task
from test_scheduler import oracle_allocate, placement_as_plan, snapshot


def sim_pd(uid="p", nodes=2, cores=4, gpus=0, dvm_max=256, lm=None, **kw):
    return PilotDescription(uid=uid, fabric=Fabric.SIMULATED, nodes=nodes,
                            cores_per_node=cores, gpus_per_node=gpus,
                            dvm_max_nodes=dvm_max,
                            latency_model=lm or LatencyModel(), **kw)


def run_traced(pd, tds, trace_dir, seed=0, **kw):
    tracer = Tracer(str(trace_dir))
    tracer.meta = {"seed": seed, "pilot": pd.to_dict()}
    agent = SimAgent(pd, tracer, seed=seed, **kw)
    tasks = agent.run(tds)
    tracer.close()
    return tasks, load_session_traces(str(trace_dir))


def sim_ttx(agent):
    """TTX from the agent's virtual clock, no trace round-trip needed: every
    task is pulled at agent readiness, bootstrap_s, and the clock stops
    teardown_s after the last event, which is the last task's end when no
    launcher is lost."""
    return agent.now - agent.pd.teardown_s - agent.pd.bootstrap_s


def test_virtual_clock_ttx_equals_trace_ttx(tmp_path):
    lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                      ack_mean_s=0.135, ack_std_s=0.107, ack_scale_exponent=0.5)
    pd = sim_pd(nodes=4, cores=8, lm=lm, bootstrap_s=0.7, teardown_s=0.3)
    tds = [task(f"t{i:03d}", duration=1.0) for i in range(100)]
    tracer = Tracer(str(tmp_path / "tr"))
    agent = SimAgent(pd, tracer, seed=1)
    agent.run(tds)
    tracer.close()
    trace = load_session_traces(str(tmp_path / "tr"))
    assert sim_ttx(agent) == pytest.approx(compute_ttx(trace), abs=1e-6)


# 1. scheduler equivalence against the brute-force oracle -----------------

def test_scheduler_matches_oracle_on_1000_instances():
    pd = sim_pd(nodes=8, cores=16, gpus=2)
    sm = SlotMap(build_node_list(pd))
    mirror = snapshot(sm)
    rng = random.Random(42)
    live = []
    t0 = time.monotonic()
    for i in range(1000):
        if live and rng.random() < 0.45:
            uid, placement = live.pop(rng.randrange(len(live)))
            sm.release(uid)
            for node, cores, gpus in placement:
                for c in cores:
                    mirror[node][0][c] = 0
                for g in gpus:
                    mirror[node][1][g] = 0
            continue
        mpi = rng.random() < 0.3
        c = rng.randint(1, 40 if mpi else 16)
        g = rng.randint(0, 4 if mpi else 2)
        td = task(f"t{i}", cores=c, gpus=g, mpi=mpi)
        expected = oracle_allocate(c, g, mpi, mirror)
        try:
            placement = allocate_continuous(td, sm)
            got = placement_as_plan(placement)
            live.append((td.uid, placement))
        except NoFit:
            got = None
        assert got == expected, f"instance {i}"
    wall = time.monotonic() - t0
    assert snapshot(sm) == mirror
    assert wall < 10.0, f"oracle sweep took {wall:.1f}s"


# 2. no slot is ever oversubscribed ---------------------------------------

def test_replay_shows_no_oversubscription(tmp_path):
    lm = LatencyModel(prepare_mean_s=0.03, prepare_std_s=0.02,
                      ack_mean_s=0.05, ack_std_s=0.04)
    pd = sim_pd(nodes=4, cores=4, gpus=1, lm=lm)
    rng = random.Random(7)
    tds = [task(f"t{i:03d}", cores=rng.randint(1, 4), gpus=rng.randint(0, 1),
                mpi=rng.random() < 0.2, duration=rng.uniform(0.1, 0.5))
           for i in range(300)]
    tasks, trace = run_traced(pd, tds, tmp_path / "tr", seed=7)
    assert all(t.state == TaskState.DONE for t in tasks.values())
    assert replay_check(trace) == []


# 3. utilization partition is exact ---------------------------------------

def test_utilization_accounting_is_exact(tmp_path):
    pd = sim_pd(nodes=2, cores=4)
    tds = [task(f"t{i:03d}", duration=2.0) for i in range(32)]
    tasks, trace = run_traced(pd, tds, tmp_path / "tr")
    report = compute_utilization(trace, pd)
    # 32 tasks x 2 s of command execution on 8 cores
    assert report.breakdown_us["exec_cmd"] == 64 * 1_000_000
    assert sum(report.breakdown_us.values()) == report.total_core_us
    assert report.ttx_s == pytest.approx(8.0, abs=1e-9)
    assert report.generations == 4


# 4. scheduling throughput ------------------------------------------------

def test_throughput_at_least_300_tasks_per_second():
    pd = sim_pd(nodes=1000, cores=20)
    tds = [task(f"t{i:05d}", duration=1.0) for i in range(20000)]
    t0 = time.monotonic()
    agent = SimAgent(pd, NullTracer(), seed=0)
    tasks = agent.run(tds)
    wall = time.monotonic() - t0
    assert all(t.state == TaskState.DONE for t in tasks.values())
    assert wall < 60.0
    rate = len(tds) / wall
    assert rate >= 300.0, f"{rate:.0f} tasks/s"


# 5. weak scaling ---------------------------------------------------------

def test_weak_scaling_flat_without_latency_rising_with_ack_model():
    t_start = time.monotonic()
    cells = [(8, 1024), (64, 8192), (256, 32768), (1024, 131072)]

    def run(lm):
        ttxs = []
        for nodes, n_tasks in cells:
            pd = sim_pd(nodes=nodes, cores=128, lm=lm)
            tds = [task(f"t{i:06d}", duration=1.0) for i in range(n_tasks)]
            agent = SimAgent(pd, NullTracer(), seed=1)
            tasks = agent.run(tds)
            assert all(t.state == TaskState.DONE for t in tasks.values())
            ttxs.append(sim_ttx(agent))
        return ttxs

    flat = run(LatencyModel())
    assert (max(flat) - min(flat)) / min(flat) < 0.05, flat

    loaded = run(LatencyModel(ack_mean_s=0.135, ack_std_s=0.107,
                              ack_scale_exponent=0.5))
    assert all(b > a for a, b in zip(loaded, loaded[1:])), loaded
    wall = time.monotonic() - t_start
    assert wall < 120.0, f"weak scaling took {wall:.0f}s"


# 6. strong scaling -------------------------------------------------------

def test_strong_scaling_generations_and_ttx_ratio():
    duration = 0.5
    results = []
    for nodes, expect_gen in ((512, 32), (1024, 16), (2048, 8)):
        pd = sim_pd(nodes=nodes, cores=32)
        tds = [task(f"t{i:05d}", cores=32, duration=duration)
               for i in range(16384)]
        agent = SimAgent(pd, NullTracer(), seed=2)
        tasks = agent.run(tds)
        assert all(t.state == TaskState.DONE for t in tasks.values())
        ttx = sim_ttx(agent)
        assert round(ttx / duration) == expect_gen
        results.append(ttx)
    base = results[2]
    assert results[0] / base == pytest.approx(4.0, rel=0.15)
    assert results[1] / base == pytest.approx(2.0, rel=0.15)


# 7. latency model recovery -----------------------------------------------

def test_latency_model_recovered_within_ten_percent(tmp_path):
    lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                      ack_mean_s=0.135, ack_std_s=0.107)
    pd = sim_pd(nodes=8, cores=16, lm=lm)
    tds = [task(f"t{i:04d}", duration=0.05) for i in range(1500)]
    tasks, trace = run_traced(pd, tds, tmp_path / "tr", seed=13)
    stats = latency_stats(trace)
    assert stats["n"] >= 1000
    assert stats["prepare_mean_s"] == pytest.approx(0.037, rel=0.10)
    # the zero clamp on the sampled normal biases the mean up ~4%
    assert stats["ack_mean_s"] == pytest.approx(0.135, rel=0.10)


# 8. launcher fault tolerance ---------------------------------------------

def test_two_simultaneous_dvm_failures_full_completion(tmp_path):
    pd = sim_pd(nodes=64, cores=4, dvm_max=4)  # 16 DVMs of 4 nodes
    tds = [task(f"t{i:03d}", duration=2.0) for i in range(256)]
    t0 = time.monotonic()
    tasks, trace = run_traced(pd, tds, tmp_path / "tr", seed=5,
                              dvm_failures=[(3, 1.0), (11, 1.0)])
    wall = time.monotonic() - t0
    assert len(trace.by_name("dvm_failed")) == 2
    done = sum(1 for t in tasks.values() if t.state == TaskState.DONE)
    assert done == len(tds)  # 100% completion despite two lost launchers
    assert replay_check(trace) == []
    assert wall < 60.0


# 9. heterogeneous workload at machine scale ------------------------------

def test_10k_heterogeneous_tasks_on_1024_large_nodes(tmp_path):
    rng = random.Random(21)
    tds = []
    for i in range(10000):
        mpi = rng.random() < 0.1
        cores = rng.randint(2, 84) if mpi else rng.randint(1, 8)
        gpus = rng.randint(0, 2)
        tds.append(task(f"t{i:05d}", cores=cores, gpus=gpus, mpi=mpi,
                        duration=rng.uniform(0.5, 2.0)))
    pd = sim_pd(nodes=1024, cores=42, gpus=6)
    t0 = time.monotonic()
    tasks, trace = run_traced(pd, tds, tmp_path / "tr", seed=21)
    wall = time.monotonic() - t0
    assert all(t.state == TaskState.DONE for t in tasks.values())
    assert replay_check(trace) == []
    assert wall < 300.0, f"hetero run took {wall:.0f}s"


# 10. master/worker throughput and exactly-once ---------------------------

def test_raptor_100k_calls_exactly_once_with_bounded_inflight(tmp_path):
    n_calls = 100_000
    t0 = time.monotonic()
    s = create_session(str(tmp_path / "work"), seed=0, uid="s")
    pd = PilotDescription(uid="pl", fabric=Fabric.LOCAL, nodes=1,
                          cores_per_node=12, oversubscribe=True)
    s.create_pilot_manager().submit_pilot(pd)
    tm = s.create_task_manager()
    cfg = MasterConfig(workers_per_master=4, cores_per_worker=1)
    handles = []
    for m in range(2):
        h = launch_master(s, tm, cfg, muid=f"m{m}", pilot_pd=pd)
        launch_workers(h)
        handles.append(h)
    half = n_calls // 2
    for m, h in enumerate(handles):
        h.submit_calls([{"uid": f"m{m}.c{i:06d}", "fn": "noop", "payload": ""}
                        for i in range(half)])
    all_results = []
    for h in handles:
        all_results.extend(h.results(half, timeout_s=280.0))
        h.close()
    pilot_handle = s.pilots["pl"]
    pilot_handle.tracer.flush()
    pilot_handle.tracer.close()
    s.close()
    wall = time.monotonic() - t0
    uids = [r["uid"] for r in all_results]
    assert len(uids) == n_calls
    assert len(set(uids)) == n_calls  # exactly-once
    assert all(r["ok"] for r in all_results)
    assert wall < 300.0, f"raptor run took {wall:.0f}s"

    trace = load_session_traces(pilot_handle.trace_dir)
    rate = rate_series(trace, 1.0, event_name="call_result")
    assert rate.integral() == pytest.approx(n_calls)
    capacity = 2 * cfg.workers_per_master * cfg.cores_per_worker
    conc = concurrency_series(trace, 0.25, start_name="call_dispatch",
                              stop_name="call_result")
    assert conc.peak() <= capacity + 1e-6
    assert conc.peak() >= capacity * 0.5


# 11. tracing overhead ----------------------------------------------------

def test_tracing_overhead_at_most_five_percent(tmp_path):
    def one_run(label, enabled):
        s = create_session(str(tmp_path / label), seed=0, uid="s",
                           trace_enabled=enabled)
        pd = PilotDescription(uid="pl", fabric=Fabric.LOCAL, nodes=1,
                              cores_per_node=8, oversubscribe=True)
        s.create_pilot_manager().submit_pilot(pd)
        tm = s.create_task_manager()
        from pilotkit.core import TaskKind
        tds = [TaskDescription(uid=f"t{i:04d}", kind=TaskKind.FUNCTION,
                               function="sleep",
                               arguments=("--duration", "0.005"))
               for i in range(1000)]
        t0 = time.monotonic()
        handles = tm.submit_tasks(tds)
        states = tm.wait_tasks(handles, timeout_s=120.0)
        wall = time.monotonic() - t0
        s.close()
        assert states == ["DONE"] * 1000
        return wall

    # best-of-3 each way to suppress machine noise; the runs alternate, so
    # load that changes during the test falls on both sides
    walls = {False: [], True: []}
    for i in range(3):
        for enabled in (False, True):
            walls[enabled].append(one_run(f"{'on' if enabled else 'off'}{i}", enabled))
    off, on = min(walls[False]), min(walls[True])
    assert on <= off * 1.05, f"tracing overhead {100 * (on / off - 1):.1f}%"


# 12. end-to-end determinism ----------------------------------------------

def test_identical_spec_and_seed_give_identical_summaries(tmp_path):
    spec = ExperimentSpec(
        kind="strong",
        pilots=[{"nodes": 2, "cores_per_node": 8},
                {"nodes": 4, "cores_per_node": 8}],
        tasks_per_pilot=[64, 64],
        cores_per_task=[1, 4],
        duration_mean_s=0.3,
        duration_std_s=0.1,
        mpi_fraction=0.1,
        latency_model={"prepare_mean_s": 0.02, "prepare_std_s": 0.01,
                       "ack_mean_s": 0.02, "ack_std_s": 0.01},
        repetitions=2,
        seed=33,
    )
    run_experiment(spec, str(tmp_path / "a"))
    run_experiment(spec, str(tmp_path / "b"))
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b
    with open(tmp_path / "a" / "summary.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert all(r["complete"] == "ok" for r in rows)
