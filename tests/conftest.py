import gc
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import pilotkit
from pilotkit import agent, simulator
from pilotkit.core import (
    LIFECYCLE,
    TERMINAL_STATES,
    Fabric,
    LatencyModel,
    PilotDescription,
    TaskDescription,
    advance_task_state,
)


@pytest.fixture
def gc_restored():
    """Puts the cyclic garbage collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def sim_pilot():
    def make(uid="p0", nodes=2, cores=4, gpus=0, dvm_max=256, lm=None, **kw):
        return PilotDescription(
            uid=uid, fabric=Fabric.SIMULATED, nodes=nodes, cores_per_node=cores,
            gpus_per_node=gpus, dvm_max_nodes=dvm_max,
            latency_model=lm or LatencyModel(), **kw)
    return make


@pytest.fixture
def local_pilot():
    def make(uid="pl", cores=4, **kw):
        return PilotDescription(
            uid=uid, fabric=Fabric.LOCAL, nodes=1, cores_per_node=cores,
            oversubscribe=True, **kw)
    return make


def task(uid, cores=1, gpus=0, mpi=False, duration=0.0, **kw):
    return TaskDescription(
        uid=uid, executable="pilotkit-emulate",
        arguments=("--duration", str(duration)),
        cores_per_task=cores, gpus_per_task=gpus, uses_mpi=mpi, **kw)


@pytest.fixture
def state_paths(monkeypatch):
    """Records every state change the agents make: task uid -> the states
    it was advanced to, in order. Wraps ``advance_task_state`` where the
    local and simulated agents call it."""
    paths = defaultdict(list)

    def recording(task, state):
        advance_task_state(task, state)
        paths[task.uid].append(state)
        return task

    monkeypatch.setattr(agent, "advance_task_state", recording)
    monkeypatch.setattr(simulator, "advance_task_state", recording)
    return paths


def assert_lifecycle(t, paths):
    """The states task ``t`` was advanced to, as ``state_paths`` recorded
    them, follow LIFECYCLE order and end in exactly one terminal state: the
    task's current one."""
    visited = paths[t.uid]
    terminal = [s for s in visited if s in TERMINAL_STATES]
    assert terminal == [t.state] == visited[-1:], (t.uid, visited)
    order = [LIFECYCLE.index(s) for s in visited if s in LIFECYCLE]
    assert order == sorted(set(order)), (t.uid, visited)


def run_console_script(name, *args):
    """Run the ``[project.scripts]`` entry point ``name`` in a child process.

    The child does what the wrapper written by ``pip install`` does: import
    the declared function from a fresh interpreter and exit with its return
    value. It imports the same ``pilotkit`` that this test process imported,
    so the suite runs from the source tree without an install.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, fn = target.split(":")
    code = (f"import sys; from {module} import {fn}; "
            f"sys.argv[0] = {name!r}; sys.exit({fn}())")
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(pilotkit.__file__)))
    env = dict(os.environ, PYTHONPATH=package_parent)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
