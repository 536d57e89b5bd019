"""Executor-side machinery: DVM partitioning, launch commands, local spawn.

The local fabric spawns real child processes; the simulated fabric submits
tasks to latency-modeled DVM launchers (see :mod:`pilotkit.simulator`).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field

from . import emulator
from .core import NodeList, PilotkitError, TaskDescription, TaskKind
from .scheduler import Placement

# The built-in workload stand-in. Spawning it always runs this package's own
# emulator module file with the running interpreter, so it needs neither an
# installed console script nor a PATH lookup.
EMULATOR_PROGRAM = "pilotkit-emulate"
_EMULATOR_ARGV = (sys.executable, os.path.abspath(emulator.__file__))


class SpawnFailure(PilotkitError):
    pass


class UnsupportedKind(PilotkitError):
    pass


@dataclass
class Dvm:
    id: int
    node_indices: tuple[int, ...]
    lost: bool = False
    # uid -> its launch, in launch order, for the tasks not yet returned
    inflight: dict[str, object] = field(default_factory=dict)


def partition_dvms(node_list: NodeList, max_nodes_per_dvm: int) -> list[Dvm]:
    """Partition nodes into ceil(n/max) DVMs of consecutive index ranges."""
    if max_nodes_per_dvm < 1:
        raise ValueError("max_nodes_per_dvm must be >= 1")
    nodes = range(len(node_list))
    return [Dvm(id=i, node_indices=tuple(nodes[start:start + max_nodes_per_dvm]))
            for i, start in enumerate(range(0, len(nodes), max_nodes_per_dvm))]


@dataclass(frozen=True)
class CommandSpec:
    program: str
    args: tuple[str, ...]
    env: tuple[tuple[str, str], ...]


def build_launch_command(td: TaskDescription, placement: Placement) -> CommandSpec:
    """Derive the deterministic launch command for an executable task."""
    if td.kind != TaskKind.EXECUTABLE:
        raise UnsupportedKind(f"task {td.uid!r} is not an executable task")
    cores = [str(c) for _, node_cores, _ in placement for c in node_cores]
    gpus = [str(g) for _, _, node_gpus in placement for g in node_gpus]
    env = dict(td.environment)
    env["PILOTKIT_TASK_ID"] = td.uid
    env["PILOTKIT_CORES"] = ",".join(cores)
    env["PILOTKIT_GPUS"] = ",".join(gpus)
    return CommandSpec(
        program=td.executable,
        args=tuple(td.arguments),
        env=tuple(sorted(env.items())),
    )


def spawn_local(cmd: CommandSpec, task_uid: str, cwd: str | None = None,
                stdout_path: str | None = None, stderr_path: str | None = None,
                register=None) -> int:
    """Run a child process to completion and return its exit code.

    Raises SpawnFailure when the program cannot be started at all, including
    when its stdout/stderr files cannot be opened. The program
    ``pilotkit-emulate`` runs as this package's emulator module file. The
    optional ``register`` callback receives the Popen handle so the caller
    can terminate the child on cancellation.
    """
    env = dict(os.environ)
    env.update(dict(cmd.env))
    if cmd.program == EMULATOR_PROGRAM:
        argv = [*_EMULATOR_ARGV, *cmd.args]
    else:
        argv = [cmd.program, *cmd.args]
    out_fh = err_fh = subprocess.DEVNULL
    try:
        if stdout_path:
            out_fh = open(stdout_path, "wb")
        if stderr_path:
            err_fh = open(stderr_path, "wb")
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out_fh, stderr=err_fh)
    except OSError as exc:
        raise SpawnFailure(f"task {task_uid!r}: cannot spawn {cmd.program!r}: {exc}") from exc
    finally:
        for fh in (out_fh, err_fh):
            if hasattr(fh, "close"):
                fh.close()
    if register is not None:
        register(proc)
    return proc.wait()
