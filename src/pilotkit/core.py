"""Core domain types: tasks, pilots, node lists, lifecycle state machines."""

from __future__ import annotations

import functools
import gc
import json
import os
from dataclasses import dataclass, field, fields
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


class JsonRecord:
    """A dataclass whose JSON keys are its field names: a missing key takes
    the field's default, and a key that names no field is an error.
    ``_from_json`` maps a field whose JSON value needs converting to its
    converter."""

    _from_json: dict = {}

    def to_dict(self) -> dict:
        """What ``dataclasses.asdict`` gives, without its deep copy."""
        return {f.name: v.to_dict() if isinstance(v := getattr(self, f.name), JsonRecord) else v
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__}: expected a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
        convert = cls._from_json
        return cls(**{k: convert[k](v) if k in convert else v for k, v in d.items()})


def _pairs(items) -> tuple[tuple[str, str], ...]:
    return tuple((a, b) for a, b in items)


@dataclass(frozen=True)
class LatencyModel(JsonRecord):
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
class TaskDescription(JsonRecord):
    uid: str
    kind: TaskKind = TaskKind.EXECUTABLE
    executable: str = ""
    function: str = ""
    arguments: tuple[str, ...] = ()
    cores_per_task: int = 1
    gpus_per_task: int = 0
    uses_mpi: bool = False
    stage_in: tuple[tuple[str, str], ...] = ()
    stage_out: tuple[tuple[str, str], ...] = ()
    environment: tuple[tuple[str, str], ...] = ()

    _from_json = {"kind": TaskKind, "arguments": tuple, "cores_per_task": int,
                  "gpus_per_task": int, "uses_mpi": bool, "stage_in": _pairs,
                  "stage_out": _pairs, "environment": _pairs}

    def __post_init__(self):
        if self.cores_per_task < 1:
            raise ValidationError(f"task {self.uid!r}: cores_per_task must be >= 1")
        if self.gpus_per_task < 0:
            raise ValidationError(f"task {self.uid!r}: gpus_per_task must be >= 0")
        if self.kind == TaskKind.FUNCTION and self.gpus_per_task != 0:
            raise ValidationError(f"task {self.uid!r}: function tasks take no GPUs")


@dataclass(frozen=True)
class PilotDescription(JsonRecord):
    uid: str
    fabric: Fabric = Fabric.LOCAL
    nodes: int = 1
    cores_per_node: int = 1
    gpus_per_node: int = 0
    dvm_max_nodes: int = 256
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    bootstrap_s: float = 0.1
    teardown_s: float = 0.05
    oversubscribe: bool = False

    _from_json = {"fabric": Fabric, "nodes": int, "cores_per_node": int, "gpus_per_node": int,
                  "dvm_max_nodes": int, "latency_model": LatencyModel.from_dict,
                  "bootstrap_s": float, "teardown_s": float, "oversubscribe": bool}

    def __post_init__(self):
        if not self.uid:
            raise EmptyUid("pilot uid must be nonempty")
        if self.nodes < 1:
            raise ValidationError("nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValidationError("cores_per_node must be >= 1")
        if self.gpus_per_node < 0:
            raise ValidationError("gpus_per_node must be >= 0")
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


def load_pilot_profile(path: str) -> PilotDescription:
    """Load a pilot description from a JSON fabric-profile file."""
    with open(path) as fh:
        return PilotDescription.from_dict(json.load(fh))


@dataclass
class NodeList:
    """A pilot's nodes, all of one shape; a node is its index, 0 to count - 1."""
    count: int
    cores_per_node: int
    gpus_per_node: int

    def __len__(self) -> int:
        return self.count


def build_node_list(pd: PilotDescription) -> NodeList:
    """Build a pilot's node list; which slots are free is kept by
    :class:`pilotkit.scheduler.SlotMap`."""
    return NodeList(count=pd.nodes, cores_per_node=pd.cores_per_node,
                    gpus_per_node=pd.gpus_per_node)


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


def advance_task_state(task: Task, next_state: TaskState) -> Task:
    """Advance a task to its next lifecycle state.

    The only place that changes a task's state; raises IllegalTransition
    for any step the lifecycle does not allow.
    """
    td = task.description
    if next_state not in _SUCCESSORS[task.state, bool(td.stage_in), bool(td.stage_out)]:
        raise IllegalTransition(f"task {task.uid!r}: {task.state.value} -> {next_state.value}")
    task.state = next_state
    return task


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector off, then restore its
    state: for bulk passes that keep many objects and make no cycles."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


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
    "JsonRecord",
    "LatencyModel",
    "TaskDescription",
    "PilotDescription",
    "load_pilot_profile",
    "NodeList",
    "build_node_list",
    "validate_task_description",
    "Task",
    "advance_task_state",
]
