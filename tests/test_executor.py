"""DVM partitioning, launch-command derivation, and local spawn."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.core import Fabric, PilotDescription, TaskKind, build_node_list
from pilotkit.executor import (
    SpawnFailure,
    UnsupportedKind,
    build_launch_command,
    partition_dvms,
    spawn_local,
)

from conftest import task


def nodes(n, cores=4):
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=n,
                          cores_per_node=cores)
    return build_node_list(pd)


class TestPartition:
    def test_1024_nodes_cap_256_gives_4_dvms(self):
        dvms = partition_dvms(nodes(1024), 256)
        assert len(dvms) == 4
        assert all(len(d.node_indices) == 256 for d in dvms)

    def test_4097_nodes_cap_256_gives_17_dvms(self):
        dvms = partition_dvms(nodes(4097), 256)
        assert len(dvms) == 17
        assert len(dvms[-1].node_indices) == 1

    def test_partition_is_disjoint_and_total(self):
        dvms = partition_dvms(nodes(100), 7)
        seen = [i for d in dvms for i in d.node_indices]
        assert seen == list(range(100))

    def test_consecutive_ranges(self):
        for d in partition_dvms(nodes(50), 8):
            idx = d.node_indices
            assert idx == tuple(range(idx[0], idx[-1] + 1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 64))
    def test_count_is_ceiling(self, n, cap):
        assert len(partition_dvms(nodes(n), cap)) == math.ceil(n / cap)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            partition_dvms(nodes(4), 0)


class TestLaunchCommand:
    def placement(self):
        return ((0, (0, 1), (0,)), (1, (2,), ()))

    def test_env_carries_slot_pins(self):
        td = task("t0", cores=3, gpus=1, mpi=True)
        cmd = build_launch_command(td, self.placement())
        env = dict(cmd.env)
        assert env["PILOTKIT_TASK_ID"] == "t0"
        assert env["PILOTKIT_CORES"] == "0,1,2"
        assert env["PILOTKIT_GPUS"] == "0"
        assert cmd.program == "pilotkit-emulate"

    def test_task_environment_preserved(self):
        td = task("t0", environment=(("MY_VAR", "x"),))
        cmd = build_launch_command(td, self.placement())
        assert dict(cmd.env)["MY_VAR"] == "x"

    def test_deterministic(self):
        td = task("t0", cores=3, gpus=1, mpi=True)
        assert build_launch_command(td, self.placement()) == \
            build_launch_command(td, self.placement())

    def test_function_task_rejected(self):
        from pilotkit.core import TaskDescription
        td = TaskDescription(uid="f", kind=TaskKind.FUNCTION, function="noop")
        with pytest.raises(UnsupportedKind):
            build_launch_command(td, self.placement())


class TestSpawnLocal:
    def cmd(self, *args):
        td = task("t0")
        base = build_launch_command(td, ((0, (0,), ()),))
        return base.__class__(program=sys.executable, args=tuple(args), env=base.env)

    def test_exit_code_zero(self, tmp_path):
        assert spawn_local(self.cmd("-c", "pass"), "t0") == 0

    def test_nonzero_exit_code(self):
        assert spawn_local(self.cmd("-c", "raise SystemExit(3)"), "t0") == 3

    def test_env_visible_to_child(self, tmp_path):
        out = tmp_path / "out.txt"
        code = f"import os; open({str(out)!r},'w').write(os.environ['PILOTKIT_TASK_ID'])"
        spawn_local(self.cmd("-c", code), "t0")
        assert out.read_text() == "t0"

    def test_stdout_captured(self, tmp_path):
        out = tmp_path / "task.out"
        spawn_local(self.cmd("-c", "print('hello')"), "t0", stdout_path=str(out))
        assert out.read_text().strip() == "hello"

    def test_missing_program_raises(self):
        bad = self.cmd().__class__(program="/no/such/program", args=(),
                                   env=())
        with pytest.raises(SpawnFailure):
            spawn_local(bad, "t0")

    def test_unopenable_output_raises(self, tmp_path):
        with pytest.raises(SpawnFailure):
            spawn_local(self.cmd("-c", "pass"), "t0", stdout_path=str(tmp_path))

    def test_emulator_runs_without_path_lookup(self):
        emu = self.cmd().__class__(program="pilotkit-emulate",
                                   args=("--duration", "0", "--exit-code", "3"),
                                   env=(("PATH", ""),))
        assert spawn_local(emu, "t0") == 3

    def test_register_receives_process_handle(self):
        seen = []
        spawn_local(self.cmd("-c", "pass"), "t0", register=seen.append)
        assert len(seen) == 1 and seen[0].pid > 0
