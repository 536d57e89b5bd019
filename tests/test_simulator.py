"""Simulated-fabric agent: exactness under zero latency, lifecycle event
order, latency recovery, launcher fault tolerance, and determinism."""

import gc
import hashlib
import os
import random
import statistics

import pytest

from pilotkit.analytics import (
    compute_ttx,
    compute_utilization,
    concurrency_series,
    latency_stats,
    load_session_traces,
    parse_schedule_detail,
    rate_series,
    replay_check,
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
        [a] = trace.attempts
        assert (a.exec_stop_us - a.exec_start_us) == 1_000_000


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

    def test_stranded_task_is_placed_again_on_a_surviving_node(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tasks, trace = run_sim(pd, [task("t0", duration=1.0)], tmp_path,
                               dvm_failures=[(0, 0.5)])
        t = tasks["t0"]
        assert t.state == TaskState.DONE
        assert [node for node, _, _ in t.placement] == [1]
        assert [e.detail for e in trace.by_name("schedule_ok")] == [
            "0:0:|dvm=0|mpi=0", "1:0:|dvm=1|mpi=0"]
        assert replay_check(trace) == []

    def test_second_loss_fails_task(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tracer = Tracer(str(tmp_path / "tr"))
        agent = SimAgent(pd, tracer, dvm_failures=[(0, 0.2), (1, 0.4)])
        tasks = agent.run([task("t0", duration=10.0)])
        tracer.close()
        assert tasks["t0"].state == TaskState.FAILED

    def test_lifecycle_with_a_dvm_lost_mid_run(self, sim_pilot, tmp_path, state_paths):
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
            assert_lifecycle(t, state_paths)
        assert TaskState.STAGING_IN in state_paths["t00"]
        assert TaskState.STAGING_OUT in state_paths["t00"]

    def test_dvm_lost_before_agent_ready_launches_nothing(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=4, cores=4, dvm_max=2, bootstrap_s=1.0)
        tds = [task(f"t{i:02d}", duration=1.0) for i in range(16)]
        tasks, trace = run_sim(pd, tds, tmp_path, dvm_failures=[(0, 0.5)])
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace.manifest["rejected_events"] == 0
        assert [e.detail for e in trace.by_name("dvm_failed")] == ["0"]
        assert not [e for e in trace.by_name("schedule_ok") if "|dvm=0|" in e.detail]
        compute_utilization(trace, pd)

    @pytest.mark.parametrize("failures", [[(0, 0.2), (1, 0.4)], [(0, 0.2), (1, 0.2)]],
                             ids=["second_loss", "no_dvm_left"])
    def test_failed_launch_closes_its_exec_interval(self, sim_pilot, tmp_path, failures):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tasks, trace = run_sim(pd, [task("t0", duration=10.0)], tmp_path,
                               dvm_failures=failures)
        assert tasks["t0"].state == TaskState.FAILED
        assert all(a.complete and not a.returned for a in trace.attempts)
        fail = trace.by_name("task_failed")[0].ts_us
        assert trace.attempts[-1].exec_stop_us == trace.attempts[-1].end_us == fail
        assert_partition_exact(trace, pd)
        assert replay_check(trace) == []

    def test_all_dvms_lost_drains_waiting(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1)
        tracer = Tracer(str(tmp_path / "tr"))
        agent = SimAgent(pd, tracer, dvm_failures=[(0, 0.2), (1, 0.2)])
        tasks = agent.run([task(f"t{i}", duration=10.0) for i in range(6)])
        tracer.close()
        assert all(t.state == TaskState.FAILED for t in tasks.values())


class TestLauncherModel:
    """A task launches through the DVM that owns its first node; a lost DVM
    takes its nodes out of service, and the tasks with a slot on them are
    placed again elsewhere."""

    def test_fault_gate_launches_through_owners_off_the_lost_nodes(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=64, cores=4, dvm_max=4)  # 16 DVMs of 4 nodes
        tds = [task(f"t{i:03d}", duration=2.0) for i in range(256)]
        tasks, trace = run_sim(pd, tds, tmp_path, seed=5,
                               dvm_failures=[(3, 1.0), (11, 1.0)])
        for e in trace.by_name("schedule_ok"):
            placement, dvm_id, _ = parse_schedule_detail(e.detail)
            assert dvm_id == placement[0][0] // 4, e
        # A launch returned exactly when it was off the lost nodes.
        lost = set(range(12, 16)) | set(range(44, 48))
        for a in trace.attempts:
            assert a.returned == lost.isdisjoint(node for node, _, _ in a.placement), a
        assert concurrency_series(trace, 0.5).peak() <= pd.total_cores
        assert sum(t.state == TaskState.DONE for t in tasks.values()) == 256
        assert replay_check(trace) == []

    def test_fault_gate_accounts_for_every_launch(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=64, cores=4, dvm_max=4)
        tds = [task(f"t{i:03d}", duration=2.0) for i in range(256)]
        _, trace = run_sim(pd, tds, tmp_path, seed=5, dvm_failures=[(3, 1.0), (11, 1.0)])
        # 32 launches on the lost nodes, 0.1 s -> 1.0 s each, are lost; the
        # 256 launches that returned ran 2 s each. Replay reads all 288.
        assert len(trace.attempts) == 288
        assert all(a.complete for a in trace.attempts)
        assert sum(not a.returned for a in trace.attempts) == 32
        assert replay_check(trace) == []
        report = compute_utilization(trace, pd)
        assert report.breakdown_us["exec_cmd"] == 512_000_000
        assert report.breakdown_us["lost"] == 28_800_000
        assert report.breakdown_us["idle"] == 483_200_000
        assert_partition_exact(trace, pd)
        assert report.tasks == 256
        assert rate_series(trace, 0.5).integral() == pytest.approx(256.0)

    def test_span_across_partitions_is_stranded_by_either_owner(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=4, cores=2, dvm_max=2)  # DVM 0: nodes 0-1, DVM 1: 2-3
        tds = [task("a", cores=2, duration=0.5),
               task("m", cores=4, mpi=True, duration=2.0)]
        tasks, trace = run_sim(pd, tds, tmp_path, dvm_failures=[(1, 1.0)])
        assert [e.detail for e in trace.by_name("schedule_ok") if e.task_uid == "m"] == [
            "1:0,1:;2:0,1:|dvm=0|mpi=1", "0:0,1:;1:0,1:|dvm=0|mpi=1"]
        stops = [e.ts_us for e in trace.by_name("exec_stop") if e.task_uid == "m"]
        assert stops == [1_000_000, 3_000_000]  # the lost launch ends at the loss
        assert tasks["m"].state == TaskState.DONE
        assert [node for node, _, _ in tasks["m"].placement] == [0, 1]
        assert replay_check(trace) == []
        assert_partition_exact(trace, pd)


class TestValidation:
    def test_oversized_task_fails_without_blocking_others(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=1, cores=4)
        tds = [task("big", cores=8), task("ok", duration=0.1)]
        tasks, trace = run_sim(pd, tds, tmp_path)
        assert tasks["big"].state == TaskState.FAILED
        assert tasks["ok"].state == TaskState.DONE


    def test_duplicate_uid_fails_at_pull_and_leaves_the_first(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=1, cores=2)
        first, second = task("t", duration=1.0), task("t", cores=2, duration=0.5)
        tasks, trace = run_sim(pd, [first, second, task("u", duration=0.5)], tmp_path)
        assert tasks["t"].description is first
        assert {uid: t.state for uid, t in tasks.items()} == {
            "t": TaskState.DONE, "u": TaskState.DONE}
        failed = trace.by_name("task_failed")
        assert [e.task_uid for e in failed] == ["t"]
        assert "uid already pulled" in failed[0].detail
        assert [e.task_uid for e in trace.by_name("schedule_ok")] == ["t", "u"]
        compute_utilization(trace, pd)


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


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_gc_state_as_found(sim_pilot, tmp_path, monkeypatch, gc_restored,
                                      enabled):
    gc.enable() if enabled else gc.disable()
    run_sim(sim_pilot(nodes=1, cores=2), [task("t0", duration=0.5)], tmp_path)
    assert gc.isenabled() is enabled
    # A run that raises restores the state too.
    agent = SimAgent(sim_pilot(nodes=1, cores=2), Tracer(str(tmp_path / "b")))
    monkeypatch.setattr(agent, "_rescan", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        agent.run([task("t0", duration=0.5)])
    agent.tracer.close()
    assert gc.isenabled() is enabled


def assert_partition_exact(trace, pd):
    """compute_utilization succeeds and its categories sum to cores x span."""
    report = compute_utilization(trace, pd)
    span = trace.last("agent_stop").ts_us - trace.first("pilot_start").ts_us
    assert sum(report.breakdown_us.values()) == report.total_core_us == pd.total_cores * span


def hetero_mix(n, seed):
    """1-8 cores, 0-2 GPUs, 10% MPI, 0.5-2 s: the heterogeneous workload."""
    rng = random.Random(seed)
    return [task(f"t{i:03d}", cores=rng.randint(1, 8), gpus=rng.randint(0, 2),
                 mpi=rng.random() < 0.1, duration=round(rng.uniform(0.5, 2.0), 3))
            for i in range(n)]


def mpi_lead_mix(n, seed):
    """Four 40-core, 2-GPU MPI leads, then a heterogeneous mix whose MPI
    tasks span up to 24 cores."""
    rng = random.Random(seed)
    tds = [task(f"lead-{c}", cores=40, gpus=2, mpi=True, duration=1.0) for c in "abcd"]
    for i in range(n):
        mpi = rng.random() < 0.1
        tds.append(task(f"t{i:03d}", cores=rng.randint(1, 24 if mpi else 8),
                        gpus=rng.randint(0, 2), mpi=mpi,
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
    # deliberate change to the simulated model or the trace format. Every
    # digest below changed when tasks began to launch through the DVM that
    # owns their first node, and a lost DVM began to withdraw its nodes and
    # send the tasks stranded on them back to the scheduler. The digests of
    # the cases that lose a DVM changed again, and only, when a stranded
    # launch began to end with launch_lost in place of spawn_return. Every
    # digest changed once more when the manifest lost its per-component
    # clock_offset_s and the pilot snapshot its walltime_s; every trace
    # CSV stayed byte-identical.
    DIGEST = "3cf683e313f86cac45801fef77eddd3e9df84ff185feb8fe791368811b27d1ee"

    def test_hetero_with_two_of_four_dvms_lost(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                          ack_mean_s=0.135, ack_std_s=0.107, ack_scale_exponent=0.1)
        pd = sim_pilot(nodes=8, cores=16, gpus=2, dvm_max=2, lm=lm)
        tasks, trace = run_sim(pd, hetero_mix(120, seed=4), tmp_path, seed=4,
                               dvm_failures=[(1, 1.0), (2, 2.2)])
        # t012 spans nodes 1-2 (DVMs 0 and 1), then nodes 0 and 4 (DVMs 0
        # and 2), and is stranded by both losses.
        assert tasks["t012"].state == TaskState.FAILED
        assert_partition_exact(trace, pd)
        assert trace_sha256(tmp_path / "traces") == self.DIGEST

    # The scheduler's free-capacity index and shape buckets were checked
    # against this case; they must not move a placement. 37 nodes pad the
    # index, and each MPI lead spans three nodes and takes GPUs. No DVM is
    # lost, but each DVM's ack latency grows with its own in-flight count.
    # The digest was taken from the commit before task tags were deleted:
    # that deletion left untagged placements as they were.
    MPI_LEAD_DIGEST = "658c082488f74613816852fb20f4e02e979f3411a3271639cda059158dda9d83"

    def test_mpi_lead_mix_on_37_nodes(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                          ack_mean_s=0.135, ack_std_s=0.107, ack_scale_exponent=0.1)
        pd = sim_pilot(nodes=37, cores=16, gpus=2, dvm_max=8, lm=lm)
        tasks, _ = run_sim(pd, mpi_lead_mix(400, seed=6), tmp_path, seed=6)
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace_sha256(tmp_path / "traces") == self.MPI_LEAD_DIGEST

    # The four cases below check that stages pop in (time, seq) order and
    # that the stages of a lost launch are emitted at the loss.
    STALE_DIGEST = "37d7b90b4e34c101945f2bb40d18bea6da4ccccc2dedfb1ef83f841410e26b1d"

    def test_stale_stages_of_a_lost_launch_set_agent_stop(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.05, ack_mean_s=0.1)
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1, lm=lm)
        tasks, trace = run_sim(pd, [task("t0", duration=10.0)], tmp_path,
                               dvm_failures=[(0, 0.2), (1, 0.4)])
        assert tasks["t0"].state == TaskState.FAILED
        # The stages of both lost launches are dropped: the pilot drains at
        # the second loss, 0.4 s, and tears down for 0.05 s.
        assert trace.last("agent_stop").ts_us == 450_000
        assert trace_sha256(tmp_path / "traces") == self.STALE_DIGEST

    TIES_DIGEST = "0aadba7675b60acacb6fe55bcef2b2478d572393d30583d25a7b7e07e610fbf1"

    def test_zero_latency_stages_tie_and_order_by_seq(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=4, cores=2, dvm_max=2, bootstrap_s=0.5)
        rng = random.Random(11)
        tds = [task(f"t{i:02d}", cores=rng.choice((1, 1, 2)),
                    duration=rng.choice((0.0, 0.5, 1.0))) for i in range(40)]
        # Every stage time is a multiple of 0.5 s, so stages of different
        # launches and the launcher loss share timestamps.
        tasks, _ = run_sim(pd, tds, tmp_path, seed=11, dvm_failures=[(1, 1.5)])
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace_sha256(tmp_path / "traces") == self.TIES_DIGEST

    BOOTSTRAP_LOSS_DIGEST = "6e7c3b3ae65cb8ba3d0e326fa1ec447f9c0dc97ee4077443fbfff9cf31aa4a6f"

    def test_dvm_lost_at_bootstrap(self, sim_pilot, tmp_path):
        lm = LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                          ack_mean_s=0.135, ack_std_s=0.107)
        pd = sim_pilot(nodes=4, cores=4, dvm_max=2, lm=lm)
        tds = [task(f"t{i:02d}", duration=1.0) for i in range(24)]
        # Queued before the first launches, the loss pops before their
        # prepare_start: the tasks on DVM 0's nodes get three stages and
        # launch_lost at the loss and are placed again on DVM 1's.
        tasks, _ = run_sim(pd, tds, tmp_path, seed=3,
                           dvm_failures=[(0, pd.bootstrap_s)])
        assert all(t.state == TaskState.DONE for t in tasks.values())
        assert trace_sha256(tmp_path / "traces") == self.BOOTSTRAP_LOSS_DIGEST

    ALL_LOST_DIGEST = "602147b512338e7e700411e305048354107bdf82d49cf024c85c1bc8691788cc"

    def test_all_dvms_lost_with_tasks_waiting(self, sim_pilot, tmp_path):
        pd = sim_pilot(nodes=2, cores=1, dvm_max=1, lm=LatencyModel(ack_mean_s=0.1))
        tasks, trace = run_sim(pd, [task(f"t{i}", duration=10.0) for i in range(8)],
                               tmp_path, dvm_failures=[(0, 0.2), (1, 0.2)])
        assert all(t.state == TaskState.FAILED for t in tasks.values())
        # With both partitions withdrawn nothing fits, so the tasks still
        # waiting fail at the drain, at the loss.
        failed = {e.task_uid: (e.ts_us, e.detail) for e in trace.by_name("task_failed")}
        assert [failed[f"t{i}"] for i in range(4, 8)] == [
            (200_000, "unschedulable at drain")] * 4
        assert trace_sha256(tmp_path / "traces") == self.ALL_LOST_DIGEST
