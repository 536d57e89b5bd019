"""Simulated-fabric agent: exactness under zero latency, lifecycle event
order, latency recovery, launcher fault tolerance, and determinism."""

import hashlib
import os
import random
import statistics

import pytest

from pilotkit.analytics import (
    compute_ttx,
    compute_utilization,
    latency_stats,
    load_session_traces,
    replay_check,
    task_timelines,
)
from pilotkit.core import LatencyModel, TaskState
from pilotkit.simulator import SimAgent, sim_duration
from pilotkit.tracer import Tracer

from conftest import assert_lifecycle, task


def run_sim(pd, tds, tmp_path, seed=0, **kw):
    tracer = Tracer(str(tmp_path / "traces"))
    tracer.meta["seed"] = seed
    tracer.meta["pilot"] = pd.to_dict()
    agent = SimAgent(pd, tracer, seed=seed, **kw)
    tasks = agent.run(tds)
    tracer.close()
    return tasks, load_session_traces(str(tmp_path / "traces"))


class TestSimDuration:
    def test_fixed_duration(self):
        import random
        td = task("t", duration=2.5)
        assert sim_duration(td, random.Random(0)) == 2.5

    def test_mean_without_std(self):
        import random
        from pilotkit.core import TaskDescription
        td = TaskDescription(uid="t", executable="pilotkit-emulate",
                             arguments=("--mean", "3.0"))
        assert sim_duration(td, random.Random(0)) == 3.0

    def test_sampled_clamped_nonnegative(self):
        import random
        from pilotkit.core import TaskDescription
        td = TaskDescription(uid="t", executable="pilotkit-emulate",
                             arguments=("--mean", "0.01", "--std", "5.0"))
        rng = random.Random(1)
        assert all(sim_duration(td, rng) >= 0 for _ in range(200))

    def test_fallback_expected_runtime(self):
        import random
        from pilotkit.core import TaskDescription
        td = TaskDescription(uid="t", executable="x", expected_runtime_s=7.0)
        assert sim_duration(td, random.Random(0)) == 7.0


class TestZeroLatency:
    def test_32_uniform_tasks_fill_8_cores_exactly(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=4, lm=LatencyModel())
        tds = [task(f"t{i:03d}", duration=2.0) for i in range(32)]
        tasks, trace = run_sim(pd, tds, tmp_path)
        assert all(t.state == TaskState.DONE for t in tasks.values())
        # 32 tasks x 2 s on 8 cores: four back-to-back generations
        assert compute_ttx(trace) == pytest.approx(8.0, abs=1e-9)
        report = compute_utilization(trace, pd)
        assert report.breakdown_us["exec_cmd"] == 64 * 1_000_000
        assert report.generations == 4
        assert replay_check(trace) == []

    def test_single_task_timeline(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=1, cores=1)
        tasks, trace = run_sim(pd, [task("t0", duration=1.0)], tmp_path)
        tl = task_timelines(trace)["t0"]
        assert (tl.exec_stop_us - tl.exec_start_us) == 1_000_000


class TestEventOrder:
    def test_lifecycle_events_in_order_per_task(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=4,
                       lm=LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.02,
                                       ack_mean_s=0.03, ack_std_s=0.01))
        tds = [task(f"t{i:03d}", duration=0.2) for i in range(40)]
        tasks, trace = run_sim(pd, tds, tmp_path, seed=3)
        order = ["db_bridge_pull", "schedule_ok", "prepare_start",
                 "exec_start", "exec_stop", "spawn_return"]
        per_task = {}
        for e in trace.events:
            if e.task_uid and e.name in order:
                per_task.setdefault(e.task_uid, []).append((e.name, e.ts_us))
        assert len(per_task) == 40
        for uid, evs in per_task.items():
            assert [n for n, _ in evs] == order
            stamps = [ts for _, ts in evs]
            assert stamps == sorted(stamps)

    def test_agent_ready_before_any_pull(self, sim_pilot, tmp_path):
        pd = sim_pilot()
        tasks, trace = run_sim(pd, [task("t0")], tmp_path)
        ready = trace.first("agent_ready").ts_us
        pull = trace.first("db_bridge_pull").ts_us
        assert ready <= pull


class TestLatencyRecovery:
    def test_recovered_means_within_ten_percent(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, ack_mean_s=0.135,
                          ack_std_s=0.107)
        pd = sim_pilot(nodes=8, cores=16, lm=lm)
        tds = [task(f"t{i:04d}", duration=0.05) for i in range(1200)]
        tasks, trace = run_sim(pd, tds, tmp_path, seed=11)
        stats = latency_stats(trace)
        assert stats["prepare_mean_s"] == pytest.approx(0.037, rel=0.10)
        # clamping at zero biases the recovered ack mean upward slightly
        assert stats["ack_mean_s"] == pytest.approx(0.135, rel=0.10)


class TestFaultTolerance:
    def test_one_dvm_loss_all_tasks_complete(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=4, cores=4, dvm_max=2)  # two DVMs of two nodes
        tds = [task(f"t{i:03d}", duration=1.0) for i in range(16)]
        tasks, trace = run_sim(pd, tds, tmp_path, dvm_failures=[(0, 0.5)])
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace.by_name("dvm_failed")
        assert replay_check(trace) == []

    def test_retry_keeps_placement(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tds = [task("t0", duration=1.0)]
        tracer = Tracer(str(tmp_path / "tr"))
        agent = SimAgent(pd, tracer, dvm_failures=[(0, 0.5)])
        tasks = agent.run(tds)
        tracer.close()
        t = tasks["t0"]
        assert t.state == TaskState.DONE
        assert t.placement.node_indices == (0,)  # same slots after retry

    def test_second_loss_fails_task(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tracer = Tracer(str(tmp_path / "tr"))
        agent = SimAgent(pd, tracer, dvm_failures=[(0, 0.2), (1, 0.4)])
        tasks = agent.run([task("t0", duration=10.0)])
        tracer.close()
        assert tasks["t0"].state == TaskState.FAILED

    def test_lifecycle_with_a_dvm_lost_mid_run(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.02,
                          ack_mean_s=0.03, ack_std_s=0.01)
        pd = sim_pilot(nodes=4, cores=4, dvm_max=2, lm=lm)
        tds = [task(f"t{i:02d}", duration=1.0,
                    stage_in=(("a", "a"),) if i % 3 == 0 else (),
                    stage_out=(("b", "b"),) if i % 4 == 0 else ())
               for i in range(24)]
        tasks, trace = run_sim(pd, tds, tmp_path, seed=2, dvm_failures=[(0, 0.5)])
        starts = [e.task_uid for e in trace.by_name("exec_start")]
        assert len(starts) > len(set(starts))  # some tasks were relaunched
        assert all(t.state == TaskState.DONE for t in tasks.values())
        for t in tasks.values():
            assert_lifecycle(t)
        assert "STAGING_IN" in tasks["t00"].timestamps
        assert "STAGING_OUT" in tasks["t00"].timestamps

    def test_dvm_lost_before_agent_ready_launches_nothing(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=4, cores=4, dvm_max=2, bootstrap_s=1.0)
        tds = [task(f"t{i:02d}", duration=1.0) for i in range(16)]
        tasks, trace = run_sim(pd, tds, tmp_path, dvm_failures=[(0, 0.5)])
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace.manifest["rejected_events"] == 0
        assert [e.detail for e in trace.by_name("dvm_failed")] == ["0"]
        assert not [e for e in trace.by_name("schedule_ok") if "|dvm=0|" in e.detail]
        compute_utilization(trace, pd)

    def test_all_dvms_lost_drains_waiting(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tracer = Tracer(str(tmp_path / "tr"))
        agent = SimAgent(pd, tracer, dvm_failures=[(0, 0.2), (1, 0.2)])
        tasks = agent.run([task(f"t{i}", duration=10.0) for i in range(6)])
        tracer.close()
        assert all(t.state == TaskState.FAILED for t in tasks.values())


class TestValidation:
    def test_oversized_task_fails_without_blocking_others(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=1, cores=4)
        tds = [task("big", cores=8), task("ok", duration=0.1)]
        tasks, trace = run_sim(pd, tds, tmp_path)
        assert tasks["big"].state == TaskState.FAILED
        assert tasks["ok"].state == TaskState.DONE


class TestDeterminism:
    def test_same_seed_identical_traces(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.04,
                          ack_mean_s=0.03, ack_std_s=0.02)
        def run(sub):
            pd = sim_pilot(nodes=2, cores=4, lm=lm)
            d = tmp_path / sub
            d.mkdir()
            tds = [task(f"t{i:03d}", duration=0.5) for i in range(30)]
            run_sim(pd, tds, d, seed=9)
            return (d / "traces" / "executor.csv").read_bytes()
        assert run("a") == run("b")

    def test_different_seeds_differ(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.05, prepare_std_s=0.04)
        results = []
        for seed in (1, 2):
            pd = sim_pilot(nodes=1, cores=2, lm=lm)
            d = tmp_path / f"s{seed}"
            d.mkdir()
            tasks, trace = run_sim(pd, [task("t0", duration=0.5)], d, seed=seed)
            results.append(compute_ttx(trace))
        assert results[0] != results[1]


def hetero_mix(n, seed):
    """1-8 cores, 0-2 GPUs, 10% MPI, 0.5-2 s: the heterogeneous workload."""
    rng = random.Random(seed)
    return [task(f"t{i:03d}", cores=rng.randint(1, 8), gpus=rng.randint(0, 2),
                 mpi=rng.random() < 0.1, duration=round(rng.uniform(0.5, 2.0), 3))
            for i in range(n)]


def tagged_mix(n, seed):
    """The heterogeneous mix plus tags: each of four tags first binds a
    40-core, 2-GPU MPI task's nodes; a third of the rest are pinned there,
    some of them MPI."""
    rng = random.Random(seed)
    tags = ("a", "b", "c", "d")
    tds = [task(f"lead-{tag}", cores=40, gpus=2, mpi=True, tag=tag, duration=1.0)
           for tag in tags]
    for i in range(n):
        mpi = rng.random() < 0.1
        tag = rng.choice(tags) if rng.random() < 0.33 else None
        tds.append(task(f"t{i:03d}", cores=rng.randint(1, 24 if mpi else 8),
                        gpus=rng.randint(0, 2), mpi=mpi, tag=tag,
                        duration=round(rng.uniform(0.5, 2.0), 3)))
    return tds


def trace_sha256(trace_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(trace_dir)):
        h.update(name.encode() + b"\0" + (trace_dir / name).read_bytes())
    return h.hexdigest()


class TestGoldenTrace:
    # The simulated trace is a contract: refactoring the agent must leave
    # it byte-identical for a given seed. Change this digest only with a
    # deliberate change to the simulated model or the trace format.
    DIGEST = "b49f33e9fe64172d3eb3d6e2ea3bfcf630dd572123c9779efcc6e67fbec08721"

    def test_hetero_with_two_of_four_dvms_lost(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                          ack_mean_s=0.135, ack_std_s=0.107, ack_scale_exponent=0.1)
        pd = sim_pilot(nodes=8, cores=16, gpus=2, dvm_max=2, lm=lm)
        run_sim(pd, hetero_mix(120, seed=4), tmp_path, seed=4,
                dvm_failures=[(1, 1.0), (2, 2.2)])
        assert trace_sha256(tmp_path / "traces") == self.DIGEST

    # Computed before the scheduler gained its free-capacity index and
    # shape buckets; those must not move a placement.
    TAGGED_DIGEST = "a9069574d46e4736d924d7292376fa1ecabeb5725907e9d60dd92c51b12c2e73"

    def test_tagged_mix_on_37_nodes(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                          ack_mean_s=0.135, ack_std_s=0.107, ack_scale_exponent=0.1)
        pd = sim_pilot(nodes=37, cores=16, gpus=2, dvm_max=8, lm=lm)
        tasks, _ = run_sim(pd, tagged_mix(400, seed=6), tmp_path, seed=6)
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace_sha256(tmp_path / "traces") == self.TAGGED_DIGEST
