"""Master/worker framework for high-throughput function-call execution.

Masters and workers are ordinary function tasks scheduled through the
agent; coordination runs over dedicated bus channels. The master dispatches
call batches to the least-loaded worker, keeping at most ``cores_per_worker``
calls outstanding per worker, and guarantees exactly one result per call
uid (lost workers get their in-flight calls redispatched once; with no
worker left or starting, the calls the master holds fail).
"""

from __future__ import annotations

import ast
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import bus
from .agent import FnContext, register_function
from .core import PilotkitError, PilotDescription, TaskDescription, TaskKind


class CapacityExceeded(PilotkitError):
    pass


class _WorkerCrash(Exception):
    """Raised by the crash builtin to simulate an abrupt worker death."""


@dataclass
class MasterConfig:
    workers_per_master: int = 4
    cores_per_worker: int = 1

    def __post_init__(self):
        if self.workers_per_master < 1:
            raise ValueError("workers_per_master must be >= 1")
        if self.cores_per_worker < 1:
            raise ValueError("cores_per_worker must be >= 1")


# built-in call registry -------------------------------------------------

def _arith(expr: str) -> str:
    """Safely evaluate an arithmetic expression (numbers and + - * / // % **)."""
    node = ast.parse(expr, mode="eval")
    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
               ast.Pow, ast.USub, ast.UAdd)
    for n in ast.walk(node):
        if not isinstance(n, allowed):
            raise ValueError(f"disallowed expression element {type(n).__name__}")
        if isinstance(n, ast.Constant) and not isinstance(n.value, (int, float)):
            raise ValueError("only numeric constants allowed")
    value = eval(compile(node, "<arith>", "eval"))  # noqa: S307 - ast-validated
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)


def _spin(duration: float):
    end = time.perf_counter() + duration
    while time.perf_counter() < end:
        pass


CALL_REGISTRY = {
    "noop": lambda payload: "",
    "sleep": lambda payload: time.sleep(float(payload or 0)) or "",
    "spin": lambda payload: _spin(float(payload or 0)) or "",
    "arith": _arith,
}


def _crash_call(payload):
    raise _WorkerCrash()


CALL_REGISTRY["crash"] = _crash_call


def execute_call(call: dict, tracer=None) -> dict:
    """Run one registered function call; failures become failed results."""
    uid = call["uid"]
    fn = CALL_REGISTRY.get(call["fn"])
    if tracer is not None:
        tracer.emit("raptor", "call_start", task_uid=uid)
    if fn is None:
        result = {"uid": uid, "ok": False, "error": f"unknown function {call['fn']!r}"}
    else:
        try:
            result = {"uid": uid, "ok": True, "value": fn(call.get("payload", ""))}
        except _WorkerCrash:
            raise
        except Exception as exc:
            result = {"uid": uid, "ok": False, "error": repr(exc)}
    if tracer is not None:
        tracer.emit("raptor", "call_stop", task_uid=uid)
    return result


# channel names ----------------------------------------------------------

def master_in_channel(muid: str) -> str:
    return f"raptor.{muid}.in"


def master_out_channel(muid: str) -> str:
    return f"raptor.{muid}.out"


def worker_channel(muid: str, wuid: str) -> str:
    return f"raptor.{muid}.w.{wuid}"


# worker task ------------------------------------------------------------

def _worker_main(ctx: FnContext):
    muid = ctx.arg("--master")
    wuid = ctx.arg("--worker")
    cores = int(ctx.arg("--cores", "1"))
    inbox = ctx.hub.open(worker_channel(muid, wuid))
    to_master = ctx.hub.open(master_in_channel(muid))
    to_master.send([bus.pack_message({"type": "register", "worker": wuid})])
    pool = ThreadPoolExecutor(max_workers=cores)
    unfinished: list[str] = []
    crashed = False
    try:
        while not ctx.cancel.is_set():
            for raw in inbox.receive(16, timeout_s=0.02):
                msg = bus.unpack_message(raw)
                if msg["type"] == "stop":
                    return 0
                calls = msg["calls"]
                unfinished = [c["uid"] for c in calls]
                futures = [pool.submit(execute_call, c, ctx.tracer) for c in calls]
                results = []
                for fut in futures:
                    results.append(fut.result())  # _WorkerCrash propagates
                unfinished = []
                to_master.send([bus.pack_message(
                    {"type": "result", "worker": wuid, "results": results})])
        return 1
    except _WorkerCrash:
        crashed = True
        return 1
    finally:
        pool.shutdown(wait=not crashed, cancel_futures=crashed)
        to_master.send([bus.pack_message(
            {"type": "deregister", "worker": wuid, "unfinished": unfinished})])


# master task ------------------------------------------------------------

class _WorkerState:
    def __init__(self, wuid: str, capacity: int):
        self.wuid = wuid
        self.capacity = capacity
        self.outstanding: dict[str, dict] = {}

    @property
    def load(self) -> int:
        return len(self.outstanding)


def _master_main(ctx: FnContext):
    muid = ctx.arg("--master")
    capacity = int(ctx.arg("--cores-per-worker", "1"))
    inbox = ctx.hub.open(master_in_channel(muid))
    out = ctx.hub.open(master_out_channel(muid))
    workers: dict[str, _WorkerState] = {}
    pending: list[dict] = []
    done: set[str] = set()
    retries: dict[str, int] = {}
    starting = 0  # workers announced by launch_workers, not yet registered
    closing = False
    while not ctx.cancel.is_set():
        for raw in inbox.receive(1024, timeout_s=0.01):
            msg = bus.unpack_message(raw)
            mtype = msg["type"]
            if mtype == "register":
                workers.setdefault(msg["worker"], _WorkerState(msg["worker"], capacity))
                starting -= 1
            elif mtype == "workers":
                starting += msg["count"]
            elif mtype == "calls":
                pending.extend(msg["calls"])
            elif mtype == "close":
                closing = True
            elif mtype == "result":
                ws = workers.get(msg["worker"])
                forwarded = []
                for res in msg["results"]:
                    uid = res["uid"]
                    if ws is not None:
                        ws.outstanding.pop(uid, None)
                    if uid in done:
                        continue
                    done.add(uid)
                    ctx.tracer.emit("raptor", "call_result", task_uid=uid)
                    forwarded.append(res)
                if forwarded:
                    out.send([bus.pack_message({"type": "results", "results": forwarded})])
            elif mtype == "deregister":
                ws = workers.pop(msg["worker"], None)
                if ws is None:
                    continue
                ctx.tracer.emit("raptor", "worker_lost", detail=msg["worker"])
                lost = list(ws.outstanding.values())
                for call in lost:
                    uid = call["uid"]
                    if uid in done:
                        continue
                    retries[uid] = retries.get(uid, 0) + 1
                    if retries[uid] > 1:
                        done.add(uid)
                        out.send([bus.pack_message({"type": "results", "results": [
                            {"uid": uid, "ok": False, "error": "worker lost twice"}]})])
                    else:
                        pending.append(call)
                if not workers and starting <= 0:  # nothing left to run what it holds
                    failed = [{"uid": c["uid"], "ok": False, "error": "no worker left"}
                              for c in pending if c["uid"] not in done]
                    done.update(r["uid"] for r in failed)
                    pending.clear()
                    if failed:
                        out.send([bus.pack_message({"type": "results", "results": failed})])
        # dispatch to the least-loaded worker while capacity remains
        while pending and workers:
            ws = min(workers.values(), key=lambda w: (w.load, w.wuid))
            room = ws.capacity - ws.load
            if room <= 0:
                break
            batch = pending[:room]
            del pending[:len(batch)]
            for call in batch:
                ws.outstanding[call["uid"]] = call
                ctx.tracer.emit("raptor", "call_dispatch", task_uid=call["uid"],
                                detail=ws.wuid)
            ctx.hub.open(worker_channel(muid, ws.wuid)).send(
                [bus.pack_message({"type": "dispatch", "calls": batch})])
        if closing and not pending and all(w.load == 0 for w in workers.values()):
            break
    for ws in workers.values():
        ctx.hub.open(worker_channel(muid, ws.wuid)).send(
            [bus.pack_message({"type": "stop"})])
    out.send([bus.pack_message({"type": "closed"})])
    return 0


register_function("raptor.master", _master_main)
register_function("raptor.worker", _worker_main)


# client-side handle -----------------------------------------------------

class MasterHandle:
    """Client-side view of a running master and its worker pool."""

    def __init__(self, session, tm, muid: str, cfg: MasterConfig):
        self.session = session
        self.tm = tm
        self.muid = muid
        self.cfg = cfg
        self.task_handles = []
        self._in = session.hub.open(master_in_channel(muid))
        self._out = session.hub.open(master_out_channel(muid))

    def submit_calls(self, calls: list[dict], batch: int = 1024):
        for start in range(0, len(calls), batch):
            self._in.send([bus.pack_message(
                {"type": "calls", "calls": calls[start:start + batch]})])

    def results(self, count: int, timeout_s: float = 300.0) -> list[dict]:
        """Collect exactly ``count`` results (or fewer on timeout)."""
        out: list[dict] = []
        deadline = time.monotonic() + timeout_s
        while len(out) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for raw in self._out.receive(64, timeout_s=min(remaining, 0.1)):
                msg = bus.unpack_message(raw)
                if msg["type"] == "results":
                    out.extend(msg["results"])
        return out

    def close(self, timeout_s: float = 60.0):
        self._in.send([bus.pack_message({"type": "close"})])
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for raw in self._out.receive(16, timeout_s=0.1):
                if bus.unpack_message(raw).get("type") == "closed":
                    return
        raise PilotkitError(f"master {self.muid!r} did not acknowledge close")


def launch_master(session, tm, cfg: MasterConfig, muid: str = "master0",
                  pilot_pd: PilotDescription | None = None) -> MasterHandle:
    """Submit the master task (and, via launch_workers, its pool)."""
    if pilot_pd is not None:
        need = 1 + cfg.workers_per_master * cfg.cores_per_worker
        if need > pilot_pd.total_cores:
            raise CapacityExceeded(
                f"master {muid!r} needs {need} cores, pilot has {pilot_pd.total_cores}")
    handle = MasterHandle(session, tm, muid, cfg)
    td = TaskDescription(
        uid=f"{muid}.task", kind=TaskKind.FUNCTION, function="raptor.master",
        arguments=("--master", muid,
                   "--cores-per-worker", str(cfg.cores_per_worker)))
    handle.task_handles.extend(tm.submit_tasks([td]))
    return handle


def launch_workers(handle: MasterHandle, n: int | None = None) -> list:
    n = n if n is not None else handle.cfg.workers_per_master
    tds = []
    for i in range(n):
        wuid = f"{handle.muid}.w{i:03d}"
        tds.append(TaskDescription(
            uid=f"{wuid}.task", kind=TaskKind.FUNCTION, function="raptor.worker",
            cores_per_task=handle.cfg.cores_per_worker,
            arguments=("--master", handle.muid, "--worker", wuid,
                       "--cores", str(handle.cfg.cores_per_worker))))
    handle._in.send([bus.pack_message({"type": "workers", "count": n})])  # before they register
    out = handle.tm.submit_tasks(tds)
    handle.task_handles.extend(out)
    return out
