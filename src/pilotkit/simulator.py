"""Simulated fabric: a discrete-event agent running on a virtual clock.

Executes a workload of task descriptions over a simulated multi-node pilot
with DVM-partitioned launchers. Launch latencies come from the pilot's
latency model; all randomness derives from one seeded generator, so a run
is fully deterministic. Trace timestamps are virtual seconds.
"""

from __future__ import annotations

import heapq
import random

from .agent import AgentCore
from .core import (
    TERMINAL_STATES,
    Fabric,
    PilotDescription,
    Task,
    TaskDescription,
    TaskState,
    build_node_list,
)
from .executor import DvmSelector, DvmState, NoReadyDvm, partition_dvms
from .tracer import Tracer


def sim_duration(td: TaskDescription, rng: random.Random) -> float:
    """Task runtime for the simulated fabric, from the emulator arguments.

    Recognizes ``--duration X`` (fixed) and ``--mean M [--std S]`` (sampled,
    clamped at zero); falls back to expected_runtime_s, then 0.
    """
    args = td.arguments
    mean = std = None
    fixed = None
    for i, a in enumerate(args):
        if a == "--duration" and i + 1 < len(args):
            fixed = float(args[i + 1])
        elif a == "--mean" and i + 1 < len(args):
            mean = float(args[i + 1])
        elif a == "--std" and i + 1 < len(args):
            std = float(args[i + 1])
    if fixed is not None:
        return max(0.0, fixed)
    if mean is not None:
        if std:
            return max(0.0, rng.gauss(mean, std))
        return max(0.0, mean)
    if td.expected_runtime_s is not None:
        return td.expected_runtime_s
    return 0.0


class SimAgent(AgentCore):
    """Deterministic single-threaded simulation of one pilot's agent.

    Placed tasks launch through the pilot's DVMs: each launch becomes four
    events on a virtual-clock heap (prepare_start, exec_start, exec_stop,
    spawn_return) whose times come from the DVM's latency model.
    """

    def __init__(self, pd: PilotDescription, tracer: Tracer, seed: int = 0,
                 dvm_failures: list[tuple[int, float]] | None = None):
        assert pd.fabric == Fabric.SIMULATED
        super().__init__(pd, tracer, build_node_list(pd))
        self.rng = random.Random(seed)
        self.dvm_failures = list(dvm_failures or [])
        self.dvms = partition_dvms(self.node_list, pd.dvm_max_nodes, pd.latency_model)
        self.selector = DvmSelector(self.dvms)
        self._heap: list = []
        self._seq = 0
        self._attempt: dict[str, int] = {}
        self._retried: set[str] = set()
        self._pending_retries: list[tuple[Task, int]] = []
        self.now = 0.0

    # backend hooks -------------------------------------------------------

    def _now(self) -> float:
        return self.now

    def _emit(self, component: str, name: str, uid: str | None = None,
              detail: str | None = None):
        self.tracer.emit(component, name, task_uid=uid, detail=detail, timestamp=self.now)

    def _reject(self, task: Task, reason: str):
        self._emit("scheduler", "schedule_fail", task.uid, reason)
        super()._reject(task, reason)

    def _push(self, t: float, kind: str, data):
        heapq.heappush(self._heap, (t, self._seq, kind, data))
        self._seq += 1

    # workload entry ------------------------------------------------------

    def run(self, tds: list[TaskDescription]) -> dict[str, Task]:
        """Execute the workload to completion; returns tasks by uid."""
        pd = self.pd
        self.now = 0.0
        self._emit("agent", "pilot_start", detail=pd.uid)
        for dvm in self.dvms:
            self._emit("executor", "dvm_boot", detail=str(dvm.id))
        self.now = pd.bootstrap_s
        for dvm in self.dvms:
            dvm.state = DvmState.READY
            self._emit("executor", "dvm_ready", detail=str(dvm.id))
        self._emit("agent", "agent_ready", detail=pd.uid)
        for dvm_id, t in self.dvm_failures:
            if t < pd.bootstrap_s:
                self._on_dvm_fail(dvm_id)  # lost before it could launch anything
            else:
                self._push(t, "dvm_fail", dvm_id)

        # Everything submitted is pulled at agent readiness.
        for td in tds:
            self._pull(td)

        self._rescan()
        while self._heap:
            t, _, kind, data = heapq.heappop(self._heap)
            assert t >= self.now, f"event at {t} s popped at {self.now} s"
            self.now = t
            self._handle(kind, data)
            if not self._heap or self._heap[0][0] > t:
                # End of this timestamp: simultaneous launcher failures are
                # all marked before any stranded task is redispatched.
                if self._pending_retries:
                    retries, self._pending_retries = self._pending_retries, []
                    for task, exclude in retries:
                        self._submit_to_dvm(task, first=False, exclude=exclude)
                if self._dirty:
                    self._rescan()
        for task in self.tasks.values():
            if task.state not in TERMINAL_STATES:
                self._reject(task, "unschedulable at drain")
        self.now += pd.teardown_s
        self._emit("agent", "agent_stop", detail=pd.uid)
        return self.tasks

    # internals -----------------------------------------------------------

    def _rescan(self):
        super()._rescan()
        for td in self.scheduler.newly_waiting:
            self._emit("scheduler", "schedule_wait", uid=td.uid)

    def _launch(self, task: Task):
        self._submit_to_dvm(task, first=True)

    def _submit_to_dvm(self, task: Task, first: bool, exclude: int | None = None):
        td = task.description
        try:
            if exclude is not None:
                dvm = self.selector.select_excluding(exclude)
            else:
                dvm = self.selector.select(td.tag)
        except NoReadyDvm:
            self._release(task)
            self._end(task, TaskState.FAILED, "no ready DVM")
            return
        if first:
            self._schedule_ok(task, f"|dvm={dvm.id}")
        lm = dvm.latency_model
        prepare = lm.sample_prepare(self.rng)
        duration = sim_duration(td, self.rng)
        ack = lm.sample_ack(self.rng, len(dvm.inflight))
        dvm.inflight[td.uid] = None
        attempt = self._attempt.get(td.uid, 0)
        t0 = self.now
        self._push(t0, "prepare_start", (td.uid, attempt, dvm.id))
        self._push(t0 + prepare, "exec_start", (td.uid, attempt, dvm.id))
        self._push(t0 + prepare + duration, "exec_stop", (td.uid, attempt, dvm.id))
        self._push(t0 + prepare + duration + ack, "spawn_return", (td.uid, attempt, dvm.id))

    def _handle(self, kind: str, data):
        if kind == "dvm_fail":
            self._on_dvm_fail(data)
            return
        uid, attempt, dvm_id = data
        if self._attempt.get(uid, 0) != attempt:
            return  # an event of a launch lost with its DVM
        task = self.tasks[uid]
        if kind == "exec_start":
            # A relaunch after a lost DVM finds the task already EXECUTING.
            if task.state != TaskState.EXECUTING:
                self._advance(task, TaskState.EXECUTING)
        elif kind == "spawn_return":
            del self.dvms[dvm_id].inflight[uid]
            self._returned(task, True, 0, detail=str(dvm_id))
            return
        self._emit("executor", kind, uid=uid, detail=str(dvm_id))

    def _on_dvm_fail(self, dvm_id: int):
        dvm = self.dvms[dvm_id]
        if dvm.state != DvmState.READY:
            return
        dvm.state = DvmState.FAILED
        self._emit("executor", "dvm_failed", detail=str(dvm_id))
        stranded, dvm.inflight = list(dvm.inflight), {}
        for uid in stranded:
            task = self.tasks[uid]
            self._attempt[uid] = self._attempt.get(uid, 0) + 1
            if uid in self._retried:
                self._release(task)
                self._end(task, TaskState.FAILED, f"DVM {dvm_id} failed twice for task")
                continue
            self._retried.add(uid)
            # Keep the placement; resubmit the same slots to a surviving DVM
            # once every failure at this instant has been processed.
            self._pending_retries.append((task, dvm_id))
