import json

import pytest
from hypothesis import given, strategies as st

from pilotkit.core import (
    EmptyUid,
    Fabric,
    IllegalTransition,
    LIFECYCLE,
    LatencyModel,
    PilotDescription,
    SingleNodeViolation,
    Task,
    TaskDescription,
    TaskKind,
    TaskState,
    TERMINAL_STATES,
    TooLarge,
    ValidationError,
    advance_task_state,
    build_node_list,
    load_pilot_profile,
    validate_task_description,
)

from conftest import task


class TestTaskDescription:
    def test_defaults(self):
        td = TaskDescription(uid="t0")
        assert td.cores_per_task == 1
        assert td.kind == TaskKind.EXECUTABLE

    def test_cores_must_be_positive(self):
        with pytest.raises(ValidationError):
            TaskDescription(uid="t0", cores_per_task=0)

    def test_function_tasks_take_no_gpus(self):
        with pytest.raises(ValidationError):
            TaskDescription(uid="t0", kind=TaskKind.FUNCTION, function="noop",
                            gpus_per_task=1)

    def test_dict_round_trip(self):
        td = task("t0", cores=3, gpus=1, mpi=True, tag="A",
                  stage_in=(("a", "input/a"),), environment=(("K", "V"),))
        assert TaskDescription.from_dict(td.to_dict()) == td


class TestPilotDescription:
    def test_local_requires_one_node(self):
        with pytest.raises(ValidationError):
            PilotDescription(uid="p", fabric=Fabric.LOCAL, nodes=2)

    def test_local_core_cap_bypass(self):
        pd = PilotDescription(uid="p", fabric=Fabric.LOCAL, nodes=1,
                              cores_per_node=1024, oversubscribe=True)
        assert pd.total_cores == 1024

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValidationError):
            PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=0)

    def test_negative_bootstrap_rejected(self):
        with pytest.raises(ValidationError, match="bootstrap_s"):
            PilotDescription(uid="p", fabric=Fabric.SIMULATED, bootstrap_s=-0.1)

    def test_negative_teardown_rejected(self):
        # A negative teardown would stamp agent_stop before the last task event.
        with pytest.raises(ValidationError, match="teardown_s"):
            PilotDescription(uid="p", fabric=Fabric.SIMULATED, teardown_s=-1.0)

    def test_profile_round_trip(self, tmp_path, sim_pilot):
        pd = sim_pilot(nodes=3, cores=8, gpus=2)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(pd.to_dict()))
        assert load_pilot_profile(str(path)) == pd


class TestValidate:
    def test_exact_fit(self, sim_pilot):
        pd = sim_pilot(nodes=1, cores=4)
        td = task("t", cores=4)
        assert validate_task_description(td, pd) is td

    def test_single_node_violation(self, sim_pilot):
        with pytest.raises(SingleNodeViolation):
            validate_task_description(task("t", cores=6), sim_pilot(nodes=1, cores=4))

    def test_mpi_spans_nodes(self, sim_pilot):
        pd = sim_pilot(nodes=2, cores=4)
        # brute-force feasibility: 6 cores over 2x4 free nodes is satisfiable
        free = [4, 4]
        need = 6
        feasible = any(
            a + b >= need and a <= free[0] and b <= free[1]
            for a in range(free[0] + 1) for b in range(free[1] + 1))
        assert feasible
        assert validate_task_description(task("t", cores=6, mpi=True), pd)

    def test_too_large(self, sim_pilot):
        with pytest.raises(TooLarge):
            validate_task_description(task("t", cores=100, mpi=True),
                                      sim_pilot(nodes=2, cores=4))

    def test_empty_uid(self, sim_pilot):
        with pytest.raises(EmptyUid):
            validate_task_description(task(""), sim_pilot())


class TestNodeList:
    def test_shape(self, sim_pilot):
        nl = build_node_list(sim_pilot(nodes=2, cores=4, gpus=1))
        assert len(nl) == 2
        assert len(nl) * nl.cores_per_node == 8
        assert len(nl) * nl.gpus_per_node == 2

    def test_summit_node_shape(self, sim_pilot):
        nl = build_node_list(sim_pilot(nodes=1, cores=42, gpus=6))
        assert nl.cores_per_node == 42
        assert nl.gpus_per_node == 6

    def test_one_entry_per_node(self, sim_pilot):
        assert len(build_node_list(sim_pilot(nodes=3))) == 3

    def test_pure(self, sim_pilot):
        pd = sim_pilot(nodes=2, cores=4, gpus=1)
        a, b = build_node_list(pd), build_node_list(pd)
        assert a == b and a is not b


class TestLifecycle:
    def test_new_to_submitted(self):
        t = Task(description=task("t"))
        advance_task_state(t, TaskState.SUBMITTED)
        assert t.state == TaskState.SUBMITTED

    def test_illegal_backward(self):
        t = Task(description=task("t"), state=TaskState.EXECUTING)
        with pytest.raises(IllegalTransition, match="EXECUTING -> STAGING_IN"):
            advance_task_state(t, TaskState.STAGING_IN)

    def test_scheduled_to_executing(self):
        t = Task(description=task("t"), state=TaskState.SCHEDULED)
        advance_task_state(t, TaskState.EXECUTING)
        assert t.state == TaskState.EXECUTING

    def test_staging_skipped_without_directives(self):
        t = Task(description=task("t"), state=TaskState.AGENT_PULLED)
        advance_task_state(t, TaskState.SCHEDULED)
        assert t.state == TaskState.SCHEDULED

    def test_staging_required_with_directives(self):
        td = task("t", stage_in=(("a", "b"),))
        t = Task(description=td, state=TaskState.AGENT_PULLED)
        with pytest.raises(IllegalTransition):
            advance_task_state(t, TaskState.SCHEDULED)
        advance_task_state(t, TaskState.STAGING_IN)

    @given(st.booleans(), st.booleans(),
           st.lists(st.sampled_from([0, 1, 2]), min_size=0, max_size=12))
    def test_random_legal_walk_terminates_in_order(self, has_in, has_out, choices):
        # 0: advance along lifecycle, 1: fail, 2: cancel; the walk visits
        # lifecycle states in order and ends in at most one terminal state.
        td = task("t",
                  stage_in=(("a", "b"),) if has_in else (),
                  stage_out=(("c", "d"),) if has_out else ())
        t = Task(description=td)
        visited = []
        for c in choices:
            if t.state in TERMINAL_STATES:
                break
            if c == 0:
                nxt = None
                idx = LIFECYCLE.index(t.state) + 1
                while idx < len(LIFECYCLE):
                    cand = LIFECYCLE[idx]
                    if cand == TaskState.STAGING_IN and not has_in:
                        idx += 1
                        continue
                    if cand == TaskState.STAGING_OUT and not has_out:
                        idx += 1
                        continue
                    nxt = cand
                    break
                if nxt is None:
                    break
            else:
                nxt = TaskState.FAILED if c == 1 else TaskState.CANCELED
            advance_task_state(t, nxt)
            visited.append(nxt)
        assert t.state == (visited[-1] if visited else TaskState.NEW)
        positions = [LIFECYCLE.index(s) for s in visited if s in LIFECYCLE]
        assert positions == sorted(set(positions))
        assert sum(s in TERMINAL_STATES for s in visited) <= 1

    def test_terminal_has_no_successor(self):
        t = Task(description=task("t"), state=TaskState.DONE)
        with pytest.raises(IllegalTransition):
            advance_task_state(t, TaskState.FAILED)


class TestLatencyModel:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            LatencyModel(prepare_mean_s=-1)

    def test_deterministic_with_zero_std(self):
        import random
        lm = LatencyModel(prepare_mean_s=0.5, ack_mean_s=0.25)
        rng = random.Random(0)
        assert lm.sample_prepare(rng) == 0.5
        assert lm.sample_ack(rng, inflight=0) == 0.25

    def test_clamped_at_zero(self):
        import random
        lm = LatencyModel(prepare_mean_s=0.001, prepare_std_s=10.0)
        rng = random.Random(1)
        assert all(lm.sample_prepare(rng) >= 0 for _ in range(100))

    def test_ack_scales_with_inflight(self):
        import random
        lm = LatencyModel(ack_mean_s=0.1, ack_scale_exponent=0.5)
        rng = random.Random(0)
        assert lm.sample_ack(rng, inflight=3) == pytest.approx(0.1 * 2.0)
