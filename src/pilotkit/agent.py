"""The pilot agent: one task lifecycle, two ways to launch.

``AgentCore`` owns what every fabric shares: the task table, the node list
and the scheduler; pulling, validating and failing tasks at pull; the
bookkeeping when a task is placed; finishing and canceling with the slot
release; and the trace events of each step. Every state change goes through
:func:`pilotkit.core.advance_task_state`.

``LocalAgent`` launches on this machine: it runs in its own thread and
takes the client's task descriptions, as objects, from an inbox of its own.
Executable tasks become child processes and function tasks run callables
from FUNCTION_REGISTRY on exec threads. The agent thread is the only writer
of task state: exec threads trace, run the task and hand its completion
back through a deque that the agent loop drains, and the agent reports each
task's end to its owner through a callback. The simulated fabric's
``SimAgent`` (:mod:`pilotkit.simulator`) launches through latency-modeled
DVMs on a virtual clock.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from . import bus
from .core import (
    Fabric,
    NodeList,
    PilotDescription,
    Task,
    TaskDescription,
    TaskKind,
    TaskState,
    ValidationError,
    advance_task_state,
    build_node_list,
    validate_task_description,
)
from .executor import CommandSpec, SpawnFailure, build_launch_command, spawn_local
from .scheduler import Scheduler, SlotMap, format_placement
from .tracer import Tracer

CANCEL_GRACE_S = 5.0
BULK_SIZE = 1024  # most messages taken from a channel per receive

_END_EVENTS = {
    TaskState.DONE: "task_done",
    TaskState.FAILED: "task_failed",
    TaskState.CANCELED: "task_canceled",
}


class AgentCore:
    """Task lifecycle of one pilot, shared by the local and simulated agents.

    A backend supplies trace emission (``_emit``), data staging
    (``_stage``) and the launch of a placed task (``_launch``); it reports a
    launched task's return through ``_returned``.
    """

    def __init__(self, pd: PilotDescription, tracer: Tracer, node_list: NodeList):
        self.pd = pd
        self.tracer = tracer
        self.node_list = node_list
        self.scheduler = Scheduler(SlotMap(self.node_list))
        self.tasks: dict[str, Task] = {}
        self._dirty = False  # slots freed or tasks queued since the last rescan

    # backend hooks -------------------------------------------------------

    def _emit(self, component: str, name: str, uid: str | None = None,
              detail: str | None = None):
        self.tracer.emit(component, name, task_uid=uid, detail=detail)

    def _validate(self, td: TaskDescription):
        validate_task_description(td, self.pd)

    def _stage(self, td: TaskDescription, direction: str):
        """Move a task's "in" or "out" data; raises OSError on failure.
        The simulated fabric moves no data."""

    def _launch(self, task: Task):
        raise NotImplementedError

    def _notify(self, task: Task):
        """Tell the client that a task ended."""

    # lifecycle -----------------------------------------------------------

    def _pull(self, td: TaskDescription):
        """Take a submitted task: validate, stage in, queue for placement.
        A task whose uid was pulled before fails validation and is kept
        out of the task table."""
        task = Task(description=td, state=TaskState.SUBMITTED)  # by the client
        duplicate = td.uid in self.tasks
        if not duplicate:
            self.tasks[td.uid] = task
        advance_task_state(task, TaskState.AGENT_PULLED)
        self._emit("agent", "db_bridge_pull", td.uid)
        try:
            if duplicate:
                raise ValidationError(f"task {td.uid!r}: uid already pulled")
            self._validate(td)
        except ValidationError as exc:
            self._reject(task, str(exc))
            return
        if td.stage_in:
            advance_task_state(task, TaskState.STAGING_IN)
            try:
                self._stage(td, "in")
            except OSError as exc:
                cause = "SourceMissing" if isinstance(exc, FileNotFoundError) else "StageInFailed"
                self._reject(task, f"{cause}: {exc}")
                return
        self.scheduler.submit(td)
        self._dirty = True

    def _reject(self, task: Task, reason: str):
        """Fail a task that never got a placement."""
        self._emit("scheduler", "schedule_fail", task.uid, reason)
        self._end(task, TaskState.FAILED, reason)

    def _rescan(self):
        """Place and launch what fits; trace the newly queued tasks that
        must wait."""
        self._dirty = False
        scheduler = self.scheduler
        if not scheduler.waiting:
            return
        for td, placement in scheduler.rescan():
            task = self.tasks[td.uid]
            if task.placement is None:  # a stranded task placed again keeps its state
                advance_task_state(task, TaskState.SCHEDULED)
            task.placement = placement
            self._launch(task)
        for td in scheduler.newly_waiting:
            self._emit("scheduler", "schedule_wait", td.uid)

    def _schedule_ok(self, task: Task, launcher: str = ""):
        td = task.description
        self._emit("scheduler", "schedule_ok", td.uid,
                   f"{format_placement(task.placement)}{launcher}|mpi={int(td.uses_mpi)}")

    def _release(self, task: Task):
        self.scheduler.complete(task.uid)
        self._dirty = True

    def _returned(self, task: Task, ok: bool, exit_code: int | None,
                  error: str | None = None, detail: str | None = None):
        """A launched task came back: free its slots, stage out, end it."""
        self._release(task)
        td = task.description
        state = TaskState.DONE if ok else TaskState.FAILED
        if ok and td.stage_out:
            advance_task_state(task, TaskState.STAGING_OUT)
            try:
                self._stage(td, "out")
            except OSError as exc:
                state, error = TaskState.FAILED, f"stage_out: {exc}"
        self._emit("executor", "spawn_return", task.uid, detail)
        task.exit_code = exit_code
        self._end(task, state, error)

    def _end(self, task: Task, state: TaskState, error: str | None = None):
        task.error = error
        advance_task_state(task, state)
        uid = task.description.uid
        self._emit("agent", _END_EVENTS[state], uid, error)
        if self.tasks.get(uid) is task:  # a refused duplicate's uid is not its own
            self._notify(task)


class FnContext:
    """Execution context handed to function tasks."""

    def __init__(self, td: TaskDescription, hub: bus.MessageHub, tracer: Tracer,
                 cancel: threading.Event):
        self.td = td
        self.args = list(td.arguments)
        self.hub = hub
        self.tracer = tracer
        self.cancel = cancel

    def arg(self, name: str, default=None):
        for i, a in enumerate(self.args):
            if a == name and i + 1 < len(self.args):
                return self.args[i + 1]
        return default


def _fn_noop(ctx: FnContext):
    return 0


def _fn_sleep(ctx: FnContext):
    duration = float(ctx.arg("--duration", "0"))
    deadline = time.monotonic() + duration
    while time.monotonic() < deadline:
        if ctx.cancel.is_set():
            return 1
        time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
    return 0


FUNCTION_REGISTRY: dict[str, callable] = {
    "noop": _fn_noop,
    "sleep": _fn_sleep,
}


def register_function(name: str, fn):
    FUNCTION_REGISTRY[name] = fn


@dataclass
class _Running:
    thread: threading.Thread | None = None
    proc: subprocess.Popen | None = None


class LocalAgent(AgentCore):
    """One pilot's agent on the local machine.

    ``submit(td)`` queues a description in the agent's inbox, before or
    after ``start()``; the agent thread pulls that very object. Only the
    agent thread writes task state. ``on_end(task)`` is called on the agent
    thread when a task ends: it must not wait on the agent.
    """

    def __init__(self, pd: PilotDescription, hub: bus.MessageHub, tracer: Tracer,
                 sandbox_root: str, on_end: Callable[[Task], None] | None = None):
        assert pd.fabric == Fabric.LOCAL
        super().__init__(pd, tracer, build_node_list(pd))
        self.hub = hub
        self.sandbox_root = sandbox_root
        self._inbox = bus._Endpoint(bus.DEFAULT_CAPACITY)
        self._on_end = on_end
        # (uid, exit code, error) of finished launches, appended by exec threads
        self._ended: deque[tuple[str, int, str | None]] = deque()
        self.running: dict[str, _Running] = {}
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None

    # lifecycle -----------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(target=self._run, name=f"agent-{self.pd.uid}",
                                        daemon=True)
        self._thread.start()

    def submit(self, td: TaskDescription):
        self._inbox.put(td)

    def stop(self, timeout_s: float = 60.0):
        """Cancel every task the agent has not ended and end its thread."""
        self._cancel.set()
        if self._thread is not None:
            self._thread.join(timeout_s)

    def _notify(self, task: Task):
        if self._on_end is not None:
            self._on_end(task)

    # main loop -----------------------------------------------------------

    def _run(self):
        self._emit("agent", "pilot_start", detail=self.pd.uid)
        self._emit("agent", "agent_ready", detail=self.pd.uid)
        while True:
            for td in self._inbox.receive(BULK_SIZE, timeout_s=0.01):
                self._pull(td)
            # Counted before the cancel is looked at: an end that the cancel
            # caused (a function that saw it and returned) comes after.
            ended = len(self._ended)
            if self._cancel.is_set():  # before a rescan could start what it cancels
                self._do_cancel()
                break
            for _ in range(ended):
                uid, exit_code, error = self._ended.popleft()
                del self.running[uid]
                self._returned(self.tasks[uid], exit_code == 0, exit_code, error)
            if self._dirty:
                self._rescan()
        self._emit("agent", "agent_stop", detail=self.pd.uid)
        self.tracer.flush()

    def _do_cancel(self):
        runners = self.running
        for r in runners.values():
            if r.proc is not None:
                try:
                    r.proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + CANCEL_GRACE_S
        for r in runners.values():
            r.thread.join(max(0.0, deadline - time.monotonic()))
            if r.thread.is_alive() and r.proc is not None:
                try:
                    r.proc.kill()
                except OSError:
                    pass
                r.thread.join(5.0)
        # Completions not yet taken are dropped: everything non-terminal,
        # still in the inbox, waiting or running, ends CANCELED. The inbox
        # is closed first, so a later submit raises rather than waits.
        self._inbox.close()
        while queued := self._inbox.receive(BULK_SIZE):
            for td in queued:
                if td.uid not in self.tasks:  # a duplicate uid is not its own
                    task = self.tasks[td.uid] = Task(description=td, state=TaskState.SUBMITTED)
                    self._end(task, TaskState.CANCELED)
        for td in self.scheduler.take_waiting():
            self._end(self.tasks[td.uid], TaskState.CANCELED)
        for uid, r in runners.items():
            task = self.tasks[uid]
            self._release(task)
            if not r.thread.is_alive():  # joined: its launch record ends as a return's
                self._emit("executor", "spawn_return", uid)
            self._end(task, TaskState.CANCELED)
        runners.clear()

    # task intake ---------------------------------------------------------

    def _validate(self, td: TaskDescription):
        super()._validate(td)
        if td.kind == TaskKind.FUNCTION and td.function not in FUNCTION_REGISTRY:
            raise ValidationError(f"task {td.uid!r}: unknown function {td.function!r}")

    def sandbox(self, uid: str) -> str:
        return os.path.join(self.sandbox_root, self.pd.uid, uid)

    def _stage(self, td: TaskDescription, direction: str):
        self._emit("agent", f"stage_{direction}_start", td.uid)
        box = self.sandbox(td.uid)
        for src, dst in (td.stage_in if direction == "in" else td.stage_out):
            if direction == "in":
                source, target = src, os.path.join(box, dst)
            else:
                source, target = os.path.join(box, src), os.path.abspath(dst)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copyfile(source, target)
        self._emit("agent", f"stage_{direction}_stop", td.uid)

    # execution -----------------------------------------------------------

    def _launch(self, task: Task):
        self._schedule_ok(task)
        advance_task_state(task, TaskState.EXECUTING)
        runner = self.running[task.uid] = _Running()
        runner.thread = threading.Thread(target=self._execute, args=(task, runner),
                                         name=f"exec-{task.uid}", daemon=True)
        runner.thread.start()

    def _execute(self, task: Task, runner: _Running):
        """An exec thread: trace, run the task, append its completion. A
        task whose thread starts after ``stop()`` runs nothing."""
        td = task.description
        self._emit("executor", "prepare_start", uid=td.uid)
        cmd = build_launch_command(td, task.placement) if td.kind == TaskKind.EXECUTABLE else None
        self._emit("executor", "exec_start", uid=td.uid)
        try:
            if self._cancel.is_set():
                code, error = -1, "canceled before start"
            elif cmd is not None:
                code, error = self._run_executable(td, cmd, runner), None
            else:
                code, error = self._run_function(td)
        except SpawnFailure as exc:
            code, error = -1, str(exc)
        self._emit("executor", "exec_stop", uid=td.uid)
        self._ended.append((td.uid, code, error))

    def _run_executable(self, td: TaskDescription, cmd: CommandSpec, runner: _Running) -> int:
        box = self.sandbox(td.uid)
        try:
            os.makedirs(box, exist_ok=True)
        except OSError as exc:
            raise SpawnFailure(f"task {td.uid!r}: cannot create sandbox {box!r}: {exc}") from exc
        runner.proc = spawn_local(cmd, td.uid, cwd=box,
                                  stdout_path=os.path.join(box, "task.out"),
                                  stderr_path=os.path.join(box, "task.err"))
        return runner.proc.wait()

    def _run_function(self, td: TaskDescription) -> tuple[int, str | None]:
        try:
            return int(FUNCTION_REGISTRY[td.function](
                FnContext(td, self.hub, self.tracer, self._cancel)) or 0), None
        except Exception as exc:  # function errors become task failures
            return -1, repr(exc)
