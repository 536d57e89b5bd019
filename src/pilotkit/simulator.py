"""Simulated fabric: a discrete-event agent running on a virtual clock.

Executes waves of task descriptions over a simulated multi-node pilot with
DVM-partitioned launchers. Launch latencies come from the pilot's
latency model; all randomness derives from one seeded generator, so a run
is fully deterministic. Trace timestamps are virtual seconds.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict

from .agent import AgentCore
from .core import (
    TERMINAL_STATES,
    Fabric,
    PilotDescription,
    Task,
    TaskDescription,
    TaskState,
    _gc_paused,
    advance_task_state,
    build_node_list,
)
from .executor import partition_dvms
from .tracer import Tracer


def sim_duration(td: TaskDescription, rng: random.Random) -> float:
    """Task runtime for the simulated fabric, from the emulator arguments.

    Recognizes ``--duration X`` (fixed) and ``--mean M [--std S]`` (sampled,
    clamped at zero), the arguments the local fabric passes to
    ``pilotkit-emulate``; 0 without them.
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
    return 0.0


# The events of one launch, in the order they pop.
STAGES = ("prepare_start", "exec_start", "exec_stop", "spawn_return")
LOST = -1  # the stage of a heap entry that loses a DVM

# An enum member read through its class costs about 0.1 us on Python 3.11;
# the per-stage path reads this one as a module name.
_EXECUTING = TaskState.EXECUTING


class SimAgent(AgentCore):
    """Deterministic single-threaded simulation of one pilot's agent.

    Building the agent traces the pilot's start-up and schedules its DVM
    losses. Each ``run`` pulls one wave of tasks at the current virtual time
    and runs the clock until nothing is left; ``stop`` traces the teardown.

    A placed task launches through the DVM that owns its first node. A
    launch is the tuple ``(uid, DVM id, DVM id as text, stage times, first
    sequence number)`` and has one entry at a time on a virtual-clock heap,
    which pops once per stage (prepare_start, exec_start, exec_stop,
    spawn_return) at times drawn from the pilot's latency model. A launch takes four consecutive sequence
    numbers, and each popped stage queues the next with the following one,
    so that events pop in (time, sequence) order as if all four had been
    queued at the launch.

    A lost DVM takes its nodes out of service. Every task with a slot on
    them, an MPI span launched through another DVM included, is stranded:
    its launch gets the stages up to exec_stop that it had not reached at
    the loss and ends with ``launch_lost``, its slots are released, and it
    goes back to the scheduler to be placed again (or fails, if it was
    stranded before). A launch is current while its DVM holds it in
    ``inflight``; a stage of a lost launch is dropped when it pops and
    leaves the clock where it is.

    Trace rows are stamped with the virtual time and kept per component
    until a tracer buffer's worth is ready, or the agent stops; the tracer
    gets them in one call.
    """

    def __init__(self, pd: PilotDescription, tracer: Tracer, seed: int = 0,
                 dvm_failures: list[tuple[int, float]] | None = None):
        assert pd.fabric == Fabric.SIMULATED
        super().__init__(pd, tracer, build_node_list(pd))
        self.rng = random.Random(seed)
        self.dvms = partition_dvms(self.node_list, pd.dvm_max_nodes)
        self._owner = [dvm for dvm in self.dvms for _ in dvm.node_indices]  # by node
        self._heap: list = []  # (time, seq, stage, launch), or (time, seq, LOST, DVM id)
        self._seq = 0
        self._retried: set[str] = set()  # the tasks stranded once
        self._rows: defaultdict[str, list[tuple]] = defaultdict(list)  # not yet handed over
        self._rows_max = tracer.buffer_events
        self.now = 0.0
        self._emit("agent", "pilot_start", detail=pd.uid)
        for dvm in self.dvms:
            self._emit("executor", "dvm_boot", detail=str(dvm.id))
        self.now = pd.bootstrap_s
        for dvm in self.dvms:
            self._emit("executor", "dvm_ready", detail=str(dvm.id))
        self._emit("agent", "agent_ready", detail=pd.uid)
        for dvm_id, t in dvm_failures or ():
            if t < pd.bootstrap_s:
                self._on_dvm_fail(dvm_id)  # lost before it could launch anything
            else:
                heapq.heappush(self._heap, (t, self._seq, LOST, dvm_id))
                self._seq += 1

    # backend hooks -------------------------------------------------------

    def _emit(self, component: str, name: str, uid: str | None = None,
              detail: str | None = None):
        rows = self._rows[component]
        rows.append((self.now, name, uid, detail))
        if len(rows) >= self._rows_max:
            self._hand_over(component)

    def _hand_over(self, component: str):
        rows = self._rows.pop(component, None)
        if rows:
            self.tracer.emit_rows(component, rows)

    def _hand_over_all(self):
        for component in list(self._rows):
            self._hand_over(component)

    # workload entry ------------------------------------------------------

    @_gc_paused
    def run(self, tds: list[TaskDescription]) -> dict[str, Task]:
        """Pull a wave of tasks at the current virtual time and run the
        clock until nothing is left; returns every task of the pilot by uid."""
        for td in tds:
            self._pull(td)
        self._rescan()
        heap = self._heap
        dvms = self.dvms
        while heap:
            t, seq, stage, data = heapq.heappop(heap)
            assert t >= self.now, f"event at {t} s popped at {self.now} s"
            if stage == LOST:
                self.now = t
                self._on_dvm_fail(data, seq)
            elif dvms[data[1]].inflight.get(data[0]) is data:
                self.now = t
                if stage < 3:
                    heapq.heappush(heap, (data[3][stage + 1], seq + 1, stage + 1, data))
                self._step(stage, data)
            # else: a stage of a launch lost with its DVM
            if (not heap or heap[0][0] > self.now) and self._dirty:
                # End of this timestamp: every launcher lost at it has
                # stranded its tasks before they are placed again.
                self._rescan()
        # Nothing is in flight, so nothing frees slots for what still waits.
        if self.scheduler.take_waiting():
            for task in self.tasks.values():
                if task.state not in TERMINAL_STATES:
                    self._reject(task, "unschedulable at drain")
        return self.tasks

    def stop(self):
        """Tear the pilot down: ``agent_stop`` comes ``teardown_s`` after
        the last event, and the tracer gets every row not yet handed over."""
        self.now += self.pd.teardown_s
        self._emit("agent", "agent_stop", detail=self.pd.uid)
        self._hand_over_all()

    # internals -----------------------------------------------------------

    def _launch(self, task: Task):
        """Launch a placed task through the DVM that owns its first node."""
        td = task.description
        dvm = self._owner[task.placement[0][0]]
        self._schedule_ok(task, f"|dvm={dvm.id}")
        lm = self.pd.latency_model
        prepare = lm.sample_prepare(self.rng)
        duration = sim_duration(td, self.rng)
        ack = lm.sample_ack(self.rng, len(dvm.inflight))
        t0 = self.now
        t1 = t0 + prepare
        t2 = t1 + duration
        launch = (td.uid, dvm.id, str(dvm.id), (t0, t1, t2, t2 + ack), self._seq)
        dvm.inflight[td.uid] = launch
        heapq.heappush(self._heap, (t0, self._seq, 0, launch))
        self._seq += len(STAGES)

    def _step(self, stage: int, launch: tuple):
        """Act on the popped stage of a current launch, an index into STAGES."""
        uid, dvm_id, detail, _, _ = launch
        task = self.tasks[uid]
        if stage == 1:
            # A task placed again after a lost DVM may already be EXECUTING.
            if task.state is not _EXECUTING:
                advance_task_state(task, _EXECUTING)
        elif stage == 3:
            del self.dvms[dvm_id].inflight[uid]
            self._returned(task, True, 0, detail=detail)
            return
        self._emit("executor", STAGES[stage], uid, detail)

    def _on_dvm_fail(self, dvm_id: int, seq: int = -1):
        """Lose a DVM and its nodes; ``seq`` orders the loss among the events
        at its time. The tasks with a slot on those nodes are stranded in
        placement order, and the nodes are withdrawn."""
        dvm = self.dvms[dvm_id]
        if dvm.lost:
            return
        dvm.lost = True
        self._emit("executor", "dvm_failed", detail=str(dvm_id))
        lost = set(dvm.node_indices)
        slot_map = self.scheduler.slot_map
        stranded = [uid for uid, p in slot_map.busy.items()
                    if any(node in lost for node, _, _ in p)]
        loss = (self.now, seq)
        for uid in stranded:
            task = self.tasks[uid]
            launch = self._owner[task.placement[0][0]].inflight.pop(uid)
            times, first = launch[3], launch[4]
            done = sum(1 for k in range(len(STAGES)) if (times[k], first + k) < loss)
            for name in STAGES[done:-1]:  # its slots were held until now
                self._emit("executor", name, uid, launch[2])
            self._emit("executor", "launch_lost", uid, launch[2])
            self._release(task)
            if uid in self._retried:
                self._end(task, TaskState.FAILED, f"DVM {dvm_id} failed twice for task")
            else:
                self._retried.add(uid)
                self.scheduler.submit(task.description)
        slot_map.withdraw(dvm.node_indices)
