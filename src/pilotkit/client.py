"""User-facing API: sessions, pilot and task managers, task handles.

A Session owns the message hub (the built-in queue service), the trace
directories and the seed. PilotManager submits pilots (local agents run in
their own thread; simulated pilots execute deterministically on a virtual
clock when waited on). TaskManager validates and enqueues tasks and
round-robins them across pilots.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import random
import threading
import time

from . import bus
from .agent import LocalAgent
from .core import (
    Fabric,
    PilotDescription,
    PilotkitError,
    TaskDescription,
    TaskState,
    ValidationError,
    validate_task_description,
)
from .simulator import SimAgent
from .tracer import Tracer

TERMINAL = {TaskState.DONE.value, TaskState.FAILED.value, TaskState.CANCELED.value}
_SUBMITTED = TaskState.SUBMITTED.value


class WorkdirUnwritable(PilotkitError):
    pass


class FabricUnavailable(PilotkitError):
    pass


class WaitTimeout(PilotkitError):
    def __init__(self, pending_uids: list[str]):
        super().__init__(f"{len(pending_uids)} tasks not terminal")
        self.pending_uids = pending_uids


class NoPilot(PilotkitError):
    pass


class TaskHandle:
    def __init__(self, uid: str, pilot_uid: str):
        self.uid = uid
        self.pilot_uid = pilot_uid
        self.state = _SUBMITTED
        self.exit_code: int | None = None
        self.error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def __repr__(self):
        return f"TaskHandle({self.uid!r}, {self.state})"


class PilotHandle:
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"

    def __init__(self, pd: PilotDescription, session: "Session"):
        self.pd = pd
        self.uid = pd.uid
        self.session = session
        self.state = self.PENDING
        self.agent: LocalAgent | None = None
        self.tracer: Tracer | None = None
        self.sim_buffer: list[TaskDescription] = []
        self.sim_ran = False
        self.dvm_failures: list[tuple[int, float]] = []

    @property
    def trace_dir(self) -> str:
        return os.path.join(self.session.directory, "pilots", self.uid, "traces")


class PilotManager:
    def __init__(self, session: "Session"):
        self.session = session

    def submit_pilot(self, pd: PilotDescription) -> PilotHandle:
        return self.session._submit_pilot(pd)


class TaskManager:
    """Validates, enqueues and tracks tasks; round-robins across pilots."""

    def __init__(self, session: "Session"):
        self.session = session
        self._rr = 0

    def _pick_pilot(self) -> PilotHandle:
        pilots = [p for p in self.session.pilots.values()
                  if p.state in (PilotHandle.PENDING, PilotHandle.ACTIVE)]
        if not pilots:
            raise NoPilot("no pilot submitted")
        handle = pilots[self._rr % len(pilots)]
        self._rr += 1
        return handle

    def submit_tasks(self, tds: list[TaskDescription]) -> list[TaskHandle | ValidationError]:
        """Returns a handle per accepted task; a ValidationError entry marks
        a rejected description, or a uid already taken in this batch or
        session, without aborting the batch."""
        out: list[TaskHandle | ValidationError] = []
        for td in tds:
            pilot = self._pick_pilot()
            handle = TaskHandle(td.uid, pilot.uid)
            try:
                validate_task_description(td, pilot.pd)
                self.session._register_handle(handle)
            except ValidationError as exc:
                out.append(exc)
                continue
            self.session.tracer.emit("client", "task_submit", task_uid=td.uid,
                                     detail=pilot.uid)
            if pilot.pd.fabric == Fabric.LOCAL:
                pilot.agent.in_q.send([bus.pack_message(td.to_dict())])
            else:
                pilot.sim_buffer.append(td)
            out.append(handle)
        return out

    def wait_tasks(self, handles: list[TaskHandle], timeout_s: float = 300.0) -> list[str]:
        return self.session._wait(handles, timeout_s)


class Session:
    """Top-level container: workdir, seed, queue service, pilots, traces."""

    def __init__(self, workdir: str, seed: int = 0, uid: str | None = None,
                 trace_enabled: bool = True):
        try:
            os.makedirs(workdir, exist_ok=True)
            probe = os.path.join(workdir, ".write_probe")
            with open(probe, "w") as fh:
                fh.write("")
            os.remove(probe)
        except OSError as exc:
            raise WorkdirUnwritable(f"workdir {workdir!r}: {exc}") from exc
        if uid is None:
            stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d_%H%M%S")
            suffix = "".join(random.choice("0123456789abcdef") for _ in range(6))
            uid = f"session_{stamp}_{suffix}"
        self.uid = uid
        self.seed = seed
        self.directory = os.path.join(workdir, uid)
        os.makedirs(self.directory, exist_ok=True)
        self.trace_enabled = trace_enabled
        self.hub = bus.MessageHub()
        self._t0 = time.monotonic()
        self.clock = lambda: time.monotonic() - self._t0
        self.tracer = Tracer(os.path.join(self.directory, "traces"),
                             enabled=trace_enabled, clock=self.clock)
        self.tracer.meta = {"seed": seed, "session": uid}
        self.pilots: dict[str, PilotHandle] = {}
        self.handles: dict[str, TaskHandle] = {}
        self.state = "open"
        self._cond = threading.Condition()
        self.tracer.emit("client", "session_start", detail=uid)
        with open(os.path.join(self.directory, "session.json"), "w") as fh:
            json.dump({"uid": uid, "seed": seed}, fh, indent=2)

    # managers ------------------------------------------------------------

    def create_pilot_manager(self) -> PilotManager:
        return PilotManager(self)

    def create_task_manager(self) -> TaskManager:
        return TaskManager(self)

    # pilots --------------------------------------------------------------

    def _submit_pilot(self, pd: PilotDescription) -> PilotHandle:
        if pd.uid in self.pilots:
            raise ValidationError(f"pilot uid {pd.uid!r} already submitted")
        handle = PilotHandle(pd, self)
        os.makedirs(handle.trace_dir, exist_ok=True)
        self.pilots[pd.uid] = handle
        if pd.fabric == Fabric.LOCAL:
            tracer = Tracer(handle.trace_dir, enabled=self.trace_enabled, clock=self.clock)
            tracer.meta = {"seed": self.seed, "pilot": pd.to_dict()}
            handle.tracer = tracer
            agent = LocalAgent(pd, self.hub, tracer, sandbox_root=self.directory,
                               on_end=lambda task: self._tasks_ended((task,)))
            handle.agent = agent
            agent.start()
            if not agent.ready.wait(10.0):
                handle.state = PilotHandle.FAILED
                raise FabricUnavailable(f"agent for pilot {pd.uid!r} did not come up")
            handle.state = PilotHandle.ACTIVE
        else:
            handle.state = PilotHandle.ACTIVE
        return handle

    # task state plumbing -------------------------------------------------

    def _register_handle(self, handle: TaskHandle):
        with self._cond:
            if handle.uid in self.handles:
                raise ValidationError(f"task {handle.uid!r}: uid already submitted")
            self.handles[handle.uid] = handle

    def _tasks_ended(self, tasks):
        """Copy ended tasks' outcomes to their handles and wake waiters.
        A local agent calls this on its own thread, at times holding its
        lock, so nothing may wait on an agent while holding ``_cond``."""
        with self._cond:
            for task in tasks:
                h = self.handles.get(task.uid)
                if h is not None:
                    h.state = task.state._value_
                    h.exit_code = task.exit_code
                    h.error = task.error
            self._cond.notify_all()

    def _run_sim_pilots(self):
        for pilot in self.pilots.values():
            if pilot.pd.fabric != Fabric.SIMULATED or not pilot.sim_buffer:
                continue
            if pilot.sim_ran:
                raise PilotkitError(
                    f"simulated pilot {pilot.uid!r} already executed its workload")
            tracer = Tracer(pilot.trace_dir, enabled=self.trace_enabled)
            tracer.meta = {"seed": self.seed, "pilot": pilot.pd.to_dict()}
            pilot.tracer = tracer
            agent = SimAgent(pilot.pd, tracer, seed=self.seed,
                             dvm_failures=pilot.dvm_failures)
            tasks = agent.run(pilot.sim_buffer)
            pilot.sim_buffer = []
            pilot.sim_ran = True
            tracer.close()
            self._tasks_ended(tasks.values())
            pilot.state = PilotHandle.DONE

    def _wait(self, handles: list[TaskHandle], timeout_s: float) -> list[str]:
        self._run_sim_pilots()
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                pending = [h.uid for h in handles if not h.terminal]
                if not pending:
                    return [h.state for h in handles]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WaitTimeout(pending)
                self._cond.wait(remaining)

    # shutdown ------------------------------------------------------------

    def close(self):
        """Finalize pilots, stop the queue service, consolidate traces."""
        if self.state != "open":
            return
        self._run_sim_pilots()
        for pilot in self.pilots.values():
            if pilot.agent is not None:
                has_live = any(
                    h.pilot_uid == pilot.uid and not h.terminal
                    for h in self.handles.values())
                pilot.agent.stop(cancel=has_live)
                pilot.state = PilotHandle.DONE
            if pilot.tracer is not None:
                pilot.tracer.close()
        self.tracer.emit("client", "session_close", detail=self.uid)
        self.state = "closed"
        self.tracer.close()
        self.hub.close()


def create_session(workdir: str, seed: int = 0, **kw) -> Session:
    return Session(workdir, seed=seed, **kw)
