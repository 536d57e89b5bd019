"""The pilot agent: one task lifecycle, two ways to launch.

``AgentCore`` owns what every fabric shares: the task table, the node list
and the scheduler; pulling, validating and failing tasks at pull; the
bookkeeping when a task is placed; finishing and canceling with the slot
release; and the trace events of each step. Every state change goes through
:func:`pilotkit.core.advance_task_state`.

``LocalAgent`` launches on this machine: it runs in its own thread,
executable tasks become child processes and function tasks run callables
from FUNCTION_REGISTRY on exec threads. Exec threads hand completions back
through a deque that the agent loop drains, and the agent reports each
task's end to its owner through a callback. The simulated fabric's
``SimAgent`` (:mod:`pilotkit.simulator`) launches through latency-modeled
DVMs on a virtual clock.
"""

from __future__ import annotations

import os
import shutil
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
from .executor import SpawnFailure, build_launch_command, spawn_local
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
                 cancel: threading.Event, sandbox: str):
        self.td = td
        self.args = list(td.arguments)
        self.hub = hub
        self.tracer = tracer
        self.cancel = cancel
        self.sandbox = sandbox

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
    task: Task
    thread: threading.Thread | None = None
    proc: object | None = None


class LocalAgent(AgentCore):
    """One pilot's agent on the local machine.

    ``on_end(task)`` is called on the agent thread when a task ends, at
    times with the agent's ``_lock`` held: it must not wait on the agent.
    """

    def __init__(self, pd: PilotDescription, hub: bus.MessageHub, tracer: Tracer,
                 sandbox_root: str, on_end: Callable[[Task], None] | None = None):
        assert pd.fabric == Fabric.LOCAL
        super().__init__(pd, tracer, build_node_list(pd))
        self.hub = hub
        self.sandbox_root = sandbox_root
        self.in_q = hub.open(f"agent.{pd.uid}.tasks")
        self._on_end = on_end
        # (uid, exit code, error) of finished launches, appended by exec threads
        self._ended: deque[tuple[str, int, str | None]] = deque()
        self.running: dict[str, _Running] = {}
        self._cancel = threading.Event()
        self._stop_requested = threading.Event()
        self._thread: threading.Thread | None = None
        self.ready = threading.Event()
        self._lock = threading.Lock()

    # lifecycle -----------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(target=self._run, name=f"agent-{self.pd.uid}",
                                        daemon=True)
        self._thread.start()

    def stop(self, cancel: bool = False, timeout_s: float = 60.0):
        """Request shutdown; with cancel, terminate running work."""
        if cancel:
            self._cancel.set()
        self._stop_requested.set()
        if self._thread is not None:
            self._thread.join(timeout_s)

    def _notify(self, task: Task):
        if self._on_end is not None:
            self._on_end(task)

    # main loop -----------------------------------------------------------

    def _run(self):
        self._emit("agent", "pilot_start", detail=self.pd.uid)
        self._emit("agent", "agent_ready", detail=self.pd.uid)
        self.ready.set()
        while True:
            for raw in self.in_q.receive(BULK_SIZE, timeout_s=0.01):
                self._pull(TaskDescription.from_dict(bus.unpack_message(raw)))
            while self._ended:
                uid, exit_code, error = self._ended.popleft()
                with self._lock:
                    del self.running[uid]
                self._returned(self.tasks[uid], exit_code == 0, exit_code, error)
            if self._cancel.is_set():  # before a rescan could start what it cancels
                self._do_cancel()
                break
            if self._dirty:
                self._rescan()
            if self._stop_requested.is_set() and not self.running \
                    and self.scheduler.waiting_count() == 0 \
                    and self.in_q.pending() == 0:
                break
        self._emit("agent", "agent_stop", detail=self.pd.uid)
        self.tracer.flush()

    def _do_cancel(self):
        with self._lock:
            runners = list(self.running.values())
        for r in runners:
            proc = r.proc
            if proc is not None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + CANCEL_GRACE_S
        for r in runners:
            r.thread.join(max(0.0, deadline - time.monotonic()))
            if r.thread.is_alive() and r.proc is not None:
                try:
                    r.proc.kill()
                except OSError:
                    pass
                r.thread.join(5.0)
        # Completions not yet taken are dropped: everything non-terminal,
        # waiting or running, ends CANCELED.
        with self._lock:
            for td in self.scheduler.take_waiting():
                self._end(self.tasks[td.uid], TaskState.CANCELED)
            for r in self.running.values():
                self._release(r.task)
                self._end(r.task, TaskState.CANCELED)
            self.running.clear()

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
        runner = _Running(task=task)
        runner.thread = threading.Thread(target=self._execute, args=(task, runner),
                                         name=f"exec-{task.uid}", daemon=True)
        with self._lock:
            self.running[task.uid] = runner
        runner.thread.start()

    def _execute(self, task: Task, runner: _Running):
        td = task.description
        self._emit("executor", "prepare_start", uid=td.uid)
        error = None
        try:
            if td.kind == TaskKind.EXECUTABLE:
                code = self._run_executable(task, runner)
            else:
                code, error = self._run_function(task)
        except SpawnFailure as exc:
            code, error = -1, str(exc)
        self._ended.append((td.uid, code, error))

    def _exec_start(self, task: Task):
        """SCHEDULED -> EXECUTING, unless a cancel ended the task first."""
        with self._lock:
            if task.state == TaskState.CANCELED:
                raise SpawnFailure(f"task {task.uid!r}: canceled before start")
            advance_task_state(task, TaskState.EXECUTING)
        self._emit("executor", "exec_start", uid=task.uid)

    def _run_executable(self, task: Task, runner: _Running) -> int:
        td = task.description
        box = self.sandbox(td.uid)
        cmd = build_launch_command(td, task.placement)
        self._exec_start(task)

        def register(proc):
            runner.proc = proc

        # Every exec_start gets its exec_stop, also when the task cannot start.
        try:
            try:
                os.makedirs(box, exist_ok=True)
            except OSError as exc:
                raise SpawnFailure(
                    f"task {td.uid!r}: cannot create sandbox {box!r}: {exc}") from exc
            return spawn_local(
                cmd, td.uid, cwd=box,
                stdout_path=os.path.join(box, "task.out"),
                stderr_path=os.path.join(box, "task.err"), register=register)
        finally:
            self._emit("executor", "exec_stop", uid=td.uid)

    def _run_function(self, task: Task) -> tuple[int, str | None]:
        td = task.description
        ctx = FnContext(td, self.hub, self.tracer, self._cancel, self.sandbox(td.uid))
        self._exec_start(task)
        try:
            code, error = int(FUNCTION_REGISTRY[td.function](ctx) or 0), None
        except Exception as exc:  # function errors become task failures
            code, error = -1, repr(exc)
        self._emit("executor", "exec_stop", uid=td.uid)
        return code, error
