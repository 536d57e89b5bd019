"""Core domain types: tasks, pilots, node lists, lifecycle state machines."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from enum import Enum


class PilotkitError(Exception):
    """Base class for all pilotkit errors."""


class ValidationError(PilotkitError):
    pass


class TooLarge(ValidationError):
    pass


class SingleNodeViolation(ValidationError):
    pass


class EmptyUid(ValidationError):
    pass


class IllegalTransition(PilotkitError):
    pass


class TaskKind(str, Enum):
    EXECUTABLE = "executable"
    FUNCTION = "function"


class Fabric(str, Enum):
    LOCAL = "local"
    SIMULATED = "simulated"


class TaskState(str, Enum):
    NEW = "NEW"
    SUBMITTED = "SUBMITTED"
    AGENT_PULLED = "AGENT_PULLED"
    STAGING_IN = "STAGING_IN"
    SCHEDULED = "SCHEDULED"
    EXECUTING = "EXECUTING"
    STAGING_OUT = "STAGING_OUT"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


# Lifecycle in visit order; FAILED/CANCELED reachable from any non-terminal state.
LIFECYCLE: tuple[TaskState, ...] = (
    TaskState.NEW,
    TaskState.SUBMITTED,
    TaskState.AGENT_PULLED,
    TaskState.STAGING_IN,
    TaskState.SCHEDULED,
    TaskState.EXECUTING,
    TaskState.STAGING_OUT,
    TaskState.DONE,
)

TERMINAL_STATES = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.CANCELED})

@dataclass(frozen=True)
class LatencyModel:
    """Launcher latency model for the simulated fabric.

    Prepare latency is sampled once per submission; acknowledgment latency
    grows with the launcher's in-flight task count via a power law:
    ``ack_mean * (1 + inflight) ** ack_scale_exponent``.
    """

    prepare_mean_s: float = 0.0
    prepare_std_s: float = 0.0
    ack_mean_s: float = 0.0
    ack_std_s: float = 0.0
    ack_scale_exponent: float = 0.0

    def __post_init__(self):
        for name in ("prepare_mean_s", "prepare_std_s", "ack_mean_s", "ack_std_s"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")

    def sample_prepare(self, rng) -> float:
        return max(0.0, rng.gauss(self.prepare_mean_s, self.prepare_std_s))

    def sample_ack(self, rng, inflight: int) -> float:
        mean = self.ack_mean_s * (1.0 + inflight) ** self.ack_scale_exponent
        return max(0.0, rng.gauss(mean, self.ack_std_s))


@dataclass(frozen=True)
class TaskDescription:
    uid: str
    kind: TaskKind = TaskKind.EXECUTABLE
    executable: str = ""
    function: str = ""
    arguments: tuple[str, ...] = ()
    cores_per_task: int = 1
    gpus_per_task: int = 0
    uses_mpi: bool = False
    expected_runtime_s: float | None = None
    stage_in: tuple[tuple[str, str], ...] = ()
    stage_out: tuple[tuple[str, str], ...] = ()
    tag: str | None = None
    environment: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.cores_per_task < 1:
            raise ValidationError(f"task {self.uid!r}: cores_per_task must be >= 1")
        if self.gpus_per_task < 0:
            raise ValidationError(f"task {self.uid!r}: gpus_per_task must be >= 0")
        if self.kind == TaskKind.FUNCTION and self.gpus_per_task != 0:
            raise ValidationError(f"task {self.uid!r}: function tasks take no GPUs")
        if self.expected_runtime_s is not None and self.expected_runtime_s < 0:
            raise ValidationError(f"task {self.uid!r}: expected_runtime_s must be >= 0")

    def to_dict(self) -> dict:
        return {
            "uid": self.uid,
            "kind": self.kind.value,
            "executable": self.executable,
            "function": self.function,
            "arguments": list(self.arguments),
            "cores_per_task": self.cores_per_task,
            "gpus_per_task": self.gpus_per_task,
            "uses_mpi": self.uses_mpi,
            "expected_runtime_s": self.expected_runtime_s,
            "stage_in": [list(p) for p in self.stage_in],
            "stage_out": [list(p) for p in self.stage_out],
            "tag": self.tag,
            "environment": [list(p) for p in self.environment],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TaskDescription":
        return cls(
            uid=d["uid"],
            kind=TaskKind(d.get("kind", "executable")),
            executable=d.get("executable", ""),
            function=d.get("function", ""),
            arguments=tuple(d.get("arguments", ())),
            cores_per_task=int(d.get("cores_per_task", 1)),
            gpus_per_task=int(d.get("gpus_per_task", 0)),
            uses_mpi=bool(d.get("uses_mpi", False)),
            expected_runtime_s=d.get("expected_runtime_s"),
            stage_in=tuple((s, t) for s, t in d.get("stage_in", ())),
            stage_out=tuple((s, t) for s, t in d.get("stage_out", ())),
            tag=d.get("tag"),
            environment=tuple((k, v) for k, v in d.get("environment", ())),
        )


@dataclass(frozen=True)
class PilotDescription:
    uid: str
    fabric: Fabric = Fabric.LOCAL
    nodes: int = 1
    cores_per_node: int = 1
    gpus_per_node: int = 0
    walltime_s: float = 3600.0
    dvm_max_nodes: int = 256
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    bootstrap_s: float = 0.1
    teardown_s: float = 0.05
    oversubscribe: bool = False

    def __post_init__(self):
        if not self.uid:
            raise EmptyUid("pilot uid must be nonempty")
        if self.nodes < 1:
            raise ValidationError("nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValidationError("cores_per_node must be >= 1")
        if self.gpus_per_node < 0:
            raise ValidationError("gpus_per_node must be >= 0")
        if self.walltime_s <= 0:
            raise ValidationError("walltime_s must be positive")
        if self.dvm_max_nodes < 1:
            raise ValidationError("dvm_max_nodes must be >= 1")
        if self.bootstrap_s < 0:
            raise ValidationError("bootstrap_s must be >= 0")
        if self.teardown_s < 0:
            raise ValidationError("teardown_s must be >= 0")
        if self.fabric == Fabric.LOCAL:
            if self.nodes != 1:
                raise ValidationError("local fabric requires nodes = 1")
            physical = os.cpu_count() or 1
            if not self.oversubscribe and self.cores_per_node > physical:
                raise ValidationError(
                    f"cores_per_node {self.cores_per_node} exceeds {physical} "
                    "physical cores (set oversubscribe=True to allow)"
                )

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpus_per_node

    def to_dict(self) -> dict:
        d = {
            "uid": self.uid,
            "fabric": self.fabric.value,
            "nodes": self.nodes,
            "cores_per_node": self.cores_per_node,
            "gpus_per_node": self.gpus_per_node,
            "walltime_s": self.walltime_s,
            "dvm_max_nodes": self.dvm_max_nodes,
            "bootstrap_s": self.bootstrap_s,
            "teardown_s": self.teardown_s,
            "oversubscribe": self.oversubscribe,
            "latency_model": {
                "prepare_mean_s": self.latency_model.prepare_mean_s,
                "prepare_std_s": self.latency_model.prepare_std_s,
                "ack_mean_s": self.latency_model.ack_mean_s,
                "ack_std_s": self.latency_model.ack_std_s,
                "ack_scale_exponent": self.latency_model.ack_scale_exponent,
            },
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PilotDescription":
        lm = d.get("latency_model", {})
        return cls(
            uid=d["uid"],
            fabric=Fabric(d.get("fabric", "local")),
            nodes=int(d.get("nodes", 1)),
            cores_per_node=int(d.get("cores_per_node", 1)),
            gpus_per_node=int(d.get("gpus_per_node", 0)),
            walltime_s=float(d.get("walltime_s", 3600.0)),
            dvm_max_nodes=int(d.get("dvm_max_nodes", 256)),
            latency_model=LatencyModel(**lm) if lm else LatencyModel(),
            bootstrap_s=float(d.get("bootstrap_s", 0.1)),
            teardown_s=float(d.get("teardown_s", 0.05)),
            oversubscribe=bool(d.get("oversubscribe", False)),
        )


def load_pilot_profile(path: str) -> PilotDescription:
    """Load a pilot description from a JSON fabric-profile file."""
    with open(path) as fh:
        return PilotDescription.from_dict(json.load(fh))


FREE = 0
BUSY = 1


@dataclass
class Node:
    name: str
    core_states: list[int]
    gpu_states: list[int]

    @property
    def free_cores(self) -> int:
        return self.core_states.count(FREE)

    @property
    def free_gpus(self) -> int:
        return self.gpu_states.count(FREE)


@dataclass
class NodeList:
    nodes: list[Node]
    cores_per_node: int
    gpus_per_node: int

    def __len__(self) -> int:
        return len(self.nodes)


def build_node_list(pd: PilotDescription) -> NodeList:
    """Build an all-free occupancy table for a pilot, one entry per node.

    Node names are zero-padded index strings so ordering is deterministic.
    """
    nodes = [
        Node(
            name=f"node{i:05d}",
            core_states=[FREE] * pd.cores_per_node,
            gpu_states=[FREE] * pd.gpus_per_node,
        )
        for i in range(pd.nodes)
    ]
    return NodeList(nodes=nodes, cores_per_node=pd.cores_per_node, gpus_per_node=pd.gpus_per_node)


def validate_task_description(td: TaskDescription, pd: PilotDescription) -> TaskDescription:
    """Check that a task can ever be placed on the given pilot.

    Returns the description unchanged when satisfiable; raises otherwise.
    """
    if not td.uid:
        raise EmptyUid("task uid must be nonempty")
    if td.gpus_per_task > pd.total_gpus:
        raise TooLarge(
            f"task {td.uid!r} wants {td.gpus_per_task} gpus, pilot has {pd.total_gpus}"
        )
    if not td.uses_mpi:
        if td.cores_per_task > pd.cores_per_node:
            raise SingleNodeViolation(
                f"task {td.uid!r} wants {td.cores_per_task} cores on one node, "
                f"nodes have {pd.cores_per_node}"
            )
        if td.gpus_per_task > pd.gpus_per_node:
            raise SingleNodeViolation(
                f"task {td.uid!r} wants {td.gpus_per_task} gpus on one node, "
                f"nodes have {pd.gpus_per_node}"
            )
    else:
        if td.cores_per_task > pd.total_cores:
            raise TooLarge(
                f"task {td.uid!r} wants {td.cores_per_task} cores, pilot has {pd.total_cores}"
            )
    return td


@dataclass
class Task:
    """A task instance owned by the runtime: description plus live state."""

    description: TaskDescription
    state: TaskState = TaskState.NEW
    placement: object | None = None  # scheduler.Placement once SCHEDULED
    exit_code: int | None = None
    error: str | None = None
    timestamps: dict[str, float] = field(default_factory=dict)

    @property
    def uid(self) -> str:
        return self.description.uid


def _successors(state: TaskState, stage_in: bool, stage_out: bool) -> frozenset[TaskState]:
    if state in TERMINAL_STATES:
        return frozenset()
    succ = {TaskState.FAILED, TaskState.CANCELED}
    for cand in LIFECYCLE[LIFECYCLE.index(state) + 1:]:
        # A staging state is skipped when the task has no such directives.
        if (cand == TaskState.STAGING_IN and not stage_in) or \
                (cand == TaskState.STAGING_OUT and not stage_out):
            continue
        succ.add(cand)
        break
    return frozenset(succ)


# Legal successors per (state, has stage_in, has stage_out).
_SUCCESSORS = {(s, i, o): _successors(s, i, o)
               for s in TaskState for i in (False, True) for o in (False, True)}


def advance_task_state(task: Task, next_state: TaskState, now: float) -> Task:
    """Advance a task to its next lifecycle state, stamping the time.

    The only place that changes a task's state; raises IllegalTransition
    for any step the lifecycle does not allow.
    """
    td = task.description
    if next_state not in _SUCCESSORS[task.state, bool(td.stage_in), bool(td.stage_out)]:
        raise IllegalTransition(f"task {task.uid!r}: {task.state.value} -> {next_state.value}")
    task.state = next_state
    task.timestamps[next_state._value_] = now
    return task


__all__ = [
    "PilotkitError",
    "ValidationError",
    "TooLarge",
    "SingleNodeViolation",
    "EmptyUid",
    "IllegalTransition",
    "TaskKind",
    "Fabric",
    "TaskState",
    "LIFECYCLE",
    "TERMINAL_STATES",
    "LatencyModel",
    "TaskDescription",
    "PilotDescription",
    "load_pilot_profile",
    "FREE",
    "BUSY",
    "Node",
    "NodeList",
    "build_node_list",
    "validate_task_description",
    "Task",
    "advance_task_state",
]
