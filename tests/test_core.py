import json
import os

import pytest
from hypothesis import given, strategies as st

from pilotkit import bus
from pilotkit.client import create_session
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

from pilotkit.harness import ExperimentSpec

from conftest import task

texts = st.text(max_size=8)
pairs = st.tuples(texts, texts)


def tuples(elements):
    return st.lists(elements, max_size=3).map(tuple)


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

    @given(st.builds(TaskDescription, uid=texts.filter(bool), kind=st.sampled_from(TaskKind),
                     executable=texts, function=texts, arguments=tuples(texts),
                     cores_per_task=st.integers(1, 64), uses_mpi=st.booleans(),
                     stage_in=tuples(pairs), stage_out=tuples(pairs),
                     environment=tuples(pairs)))
    def test_dict_round_trip(self, td):
        assert TaskDescription.from_dict(json.loads(json.dumps(td.to_dict()))) == td


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

    @given(st.builds(
        PilotDescription, uid=texts.filter(bool), fabric=st.just(Fabric.SIMULATED),
        nodes=st.integers(1, 4096), cores_per_node=st.integers(1, 128),
        gpus_per_node=st.integers(0, 8), dvm_max_nodes=st.integers(1, 512),
        latency_model=st.builds(LatencyModel, *[st.floats(0, 10)] * 4, st.floats(-2, 2)),
        bootstrap_s=st.floats(0, 100), teardown_s=st.floats(0, 100),
        oversubscribe=st.booleans()))
    def test_dict_round_trip(self, pd):
        assert PilotDescription.from_dict(json.loads(json.dumps(pd.to_dict()))) == pd

    def test_profile_round_trip(self, tmp_path, sim_pilot):
        pd = sim_pilot(nodes=3, cores=8, gpus=2)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(pd.to_dict()))
        assert load_pilot_profile(str(path)) == pd


class TestJsonForm:
    """Descriptions and specs are read by ``JsonRecord.from_dict``: the keys
    are the dataclass fields, and a key that names none is refused."""

    @pytest.mark.parametrize("cls, d, message", [
        (TaskDescription, {"uid": "t0", "cores": 4, "gpu": 1},
         "unknown TaskDescription keys: cores, gpu"),
        (PilotDescription, {"uid": "p", "dvm_max_node": 2},
         "unknown PilotDescription keys: dvm_max_node"),
        (PilotDescription, {"uid": "p", "latency_model": {"ack_mean": 0.1}},
         "unknown LatencyModel keys: ack_mean"),
        (LatencyModel, {"ack_mean_s": 0.1, "prepare": 0.2}, "unknown LatencyModel keys: prepare"),
        (ExperimentSpec, {"kind": "strong", "pilots": [], "tasks_per_pilot": [], "sede": 2},
         "unknown ExperimentSpec keys: sede"),
    ])
    def test_unknown_keys_refused(self, cls, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls.from_dict(d)

    @pytest.mark.parametrize("d", [None, [], "uid", 3])
    def test_non_object_refused(self, d):
        with pytest.raises(TypeError, match="expected a JSON object"):
            TaskDescription.from_dict(d)

    def test_missing_keys_take_the_dataclass_defaults(self):
        assert TaskDescription.from_dict({"uid": "t0"}) == TaskDescription(uid="t0")
        assert PilotDescription.from_dict({"uid": "p"}) == PilotDescription(uid="p")
        assert LatencyModel.from_dict({}) == LatencyModel()

    def test_values_converted(self):
        td = TaskDescription.from_dict({"uid": "t0", "kind": "function", "cores_per_task": "2",
                                        "arguments": ["a"], "stage_in": [["s", "t"]]})
        assert (td.kind, td.cores_per_task, td.arguments, td.stage_in) == \
            (TaskKind.FUNCTION, 2, ("a",), (("s", "t"),))
        pd = PilotDescription.from_dict({"uid": "p", "fabric": "simulated", "nodes": 2.0,
                                         "latency_model": {"ack_mean_s": 0.1}})
        assert (pd.fabric, pd.nodes, pd.latency_model) == \
            (Fabric.SIMULATED, 2, LatencyModel(ack_mean_s=0.1))

    @pytest.mark.parametrize("cls, key, value", [
        (TaskDescription, "uses_mpi", "false"), (TaskDescription, "uses_mpi", 0),
        (TaskDescription, "cores_per_task", 1.9), (TaskDescription, "cores_per_task", True),
        (TaskDescription, "arguments", "--duration 5"),
        (TaskDescription, "stage_in", "ab"), (TaskDescription, "stage_out", ["ab"]),
        (TaskDescription, "environment", {"KV": "x"}),
        (PilotDescription, "oversubscribe", "no"), (PilotDescription, "nodes", 1e400),
        (PilotDescription, "dvm_max_nodes", False)])
    def test_values_of_the_wrong_type_refused(self, cls, key, value):
        uid = "t0" if cls is TaskDescription else "p"
        with pytest.raises(TypeError, match=f"^{cls.__name__}.{key}: expected "):
            cls.from_dict({"uid": uid, key: value})

    def test_bus_payload_and_manifest_snapshot_bytes(self, tmp_path):
        # Both literals were written by the per-field to_dict bodies this
        # reader replaced; task records in JSON files and analyze read them.
        td = TaskDescription(
            uid="t7", kind=TaskKind.EXECUTABLE, executable="/bin/echo", function="f",
            arguments=("a", "b c"), cores_per_task=3, gpus_per_task=2, uses_mpi=True,
            stage_in=(("src", "in/a"),), stage_out=(("out/b", "dst"),),
            environment=(("K", "V"), ("X", "1")))
        assert bus.pack_message(td.to_dict()) == (
            b'{"arguments":["a","b c"],"cores_per_task":3,"environment":[["K","V"],["X","1"]],'
            b'"executable":"/bin/echo","function":"f",'
            b'"gpus_per_task":2,"kind":"executable","stage_in":[["src","in/a"]],'
            b'"stage_out":[["out/b","dst"]],"uid":"t7","uses_mpi":true}')
        pd = PilotDescription(
            uid="p1", fabric=Fabric.SIMULATED, nodes=4, cores_per_node=42, gpus_per_node=6,
            dvm_max_nodes=2, bootstrap_s=0.2, teardown_s=0.0, oversubscribe=True,
            latency_model=LatencyModel(prepare_mean_s=0.037, prepare_std_s=0.01,
                                       ack_mean_s=0.135, ack_std_s=0.107,
                                       ack_scale_exponent=0.5))
        session = create_session(str(tmp_path), seed=3)
        pilot = session.create_pilot_manager().submit_pilot(pd)
        session.create_task_manager().submit_tasks([task("t0")])
        session.close()
        with open(os.path.join(pilot.trace_dir, "manifest.json")) as fh:
            manifest = fh.read()
        assert """
  "pilot": {
    "bootstrap_s": 0.2,
    "cores_per_node": 42,
    "dvm_max_nodes": 2,
    "fabric": "simulated",
    "gpus_per_node": 6,
    "latency_model": {
      "ack_mean_s": 0.135,
      "ack_scale_exponent": 0.5,
      "ack_std_s": 0.107,
      "prepare_mean_s": 0.037,
      "prepare_std_s": 0.01
    },
    "nodes": 4,
    "oversubscribe": true,
    "teardown_s": 0.0,
    "uid": "p1"
  },
""" in manifest


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
