"""What a benchmark run executes, and the checks on its outputs.

A run has two parts, both driven from this single thread:

* the simulated part: batches of generated tasks on a simulated pilot,
  each submitted at once and awaited, then the pilot trace is analyzed the
  way ``pilotkit analyze`` does it (load, utilization, series, replay);
* the local part: real local pilots in rounds. A round runs (a) a batch of
  ``noop`` function tasks and (b) a batch of ``/bin/true`` executable
  tasks on a pilot with one core slot per CPU, (c) a chunk of a closed
  loop of one ``noop`` task at a time on the same pilot, and (d) a batch
  of ``noop`` calls through one master and two single-core workers on an
  oversubscribed pilot.

The run alternates the two parts, so every metric samples the whole run
rather than one window of it: on a shared host the CPU speed drifts over
seconds to minutes. The workloads differ in the simulated task mix; the
local part is the same in every workload. Executable tasks run
``/bin/true`` because the ``pilotkit-emulate`` console script is not on
PATH when pilotkit runs from its source tree.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from pilotkit import analytics, client, harness, raptor
from pilotkit.core import Fabric, PilotDescription, TaskDescription, TaskKind

LOCAL_EXECUTABLE = "/bin/true"
PAPER_LATENCY = {"prepare_mean_s": 0.037, "ack_mean_s": 0.135, "ack_std_s": 0.107}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``full`` is what the benchmark measures, ``smoke`` a
    seconds-long run that exercises every metric and check."""

    hetero_nodes: int
    hetero_tasks: int
    uniform_nodes: int
    fn_batch: int
    exec_batch: int
    closed_loop_round: int  # closed-loop samples per round
    closed_loop_min: int
    calls_batch: int
    setup_reps: int  # at least this many set-ups in a run
    setups_per_step: int  # set-ups before each simulated batch or local round


FULL = Sizes(hetero_nodes=256, hetero_tasks=2_500, uniform_nodes=1024,
             fn_batch=256, exec_batch=128, closed_loop_round=50, closed_loop_min=200,
             calls_batch=2048, setup_reps=40, setups_per_step=3)
SMOKE = Sizes(hetero_nodes=8, hetero_tasks=200, uniform_nodes=4,
              fn_batch=16, exec_batch=8, closed_loop_round=40, closed_loop_min=40,
              calls_batch=128, setup_reps=2, setups_per_step=1)


def sim_spec(workload: str, sizes: Sizes, seed: int) -> harness.ExperimentSpec:
    if workload == "sim_hetero":
        # The task mix of scripts/run_heterogeneous.py, on a quarter of its
        # machine with a quarter of its tasks: one batch then takes about a
        # second, so a run averages over many seeds of a mix whose run time
        # varies by +-20% from seed to seed.
        return harness.ExperimentSpec(
            kind="hetero_strong",
            pilots=[{"nodes": sizes.hetero_nodes, "cores_per_node": 42, "gpus_per_node": 6}],
            tasks_per_pilot=[sizes.hetero_tasks],
            cores_per_task=[1, 8], gpus_per_task=[0, 2],
            duration_range_s=[0.5, 2.0], mpi_fraction=0.1,
            latency_model=PAPER_LATENCY, seed=seed)
    if workload == "sim_uniform":
        # One full generation of 1-core 1 s tasks.
        nodes = sizes.uniform_nodes
        return harness.ExperimentSpec(
            kind="strong",
            pilots=[{"nodes": nodes, "cores_per_node": 128}],
            tasks_per_pilot=[nodes * 128],
            duration_mean_s=1.0,
            latency_model=PAPER_LATENCY, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sim_hetero", "sim_uniform")


@dataclass
class Checks:
    """Named output checks: how often each ran and how often it failed."""

    ran: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)

    def check(self, name: str, ok: bool, note: str = ""):
        self.ran[name] += 1
        if not ok:
            self.failed[name] += 1
            self.notes.append(f"{name}: {note}")

    @property
    def ok(self) -> bool:
        return not self.failed


def trace_digest(trace_dir: str) -> str:
    """sha256 over the pilot trace files, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(trace_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(trace_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check_partition(trace, report, pd, checks: Checks, name: str):
    """The utilization categories must sum exactly to cores x pilot span."""
    start = next(e.ts_us for e in trace.events if e.name == "pilot_start")
    stop = max(e.ts_us for e in trace.events if e.name == "agent_stop")
    expected = pd.total_cores * (stop - start)
    total = sum(report.breakdown_us.values())
    checks.check(name, total == expected == report.total_core_us,
                 f"partition {total} us, cores x span {expected} us")


def _count_done(states, checks: Checks, name: str) -> int:
    """Checks every task is DONE; returns how many are not."""
    bad = sum(1 for s in states if s != "DONE")
    checks.check(name, bad == 0, f"{bad} of {len(states)} tasks not DONE")
    return bad


# simulated part ---------------------------------------------------------

@dataclass
class SimRun:
    tasks: int
    failed: int
    wall_s: float
    events: int
    analyze_s: float
    digest: str
    trace_bytes: int
    ttx_s: float
    ru_pct: float
    generations: int
    # perf_counter at submit, at Session.close returning, after the analysis
    stamps: tuple[float, float, float]


def run_sim(workload: str, sizes: Sizes, seed: int, workdir: str, tag: str,
            checks: Checks) -> SimRun:
    spec = sim_spec(workload, sizes, seed)
    pd = harness.pilot_from_cell(spec, 0, "sim0")
    tds = harness.generate_tasks(spec, spec.tasks_per_pilot[0], random.Random(seed))
    session = client.create_session(workdir, seed=seed, uid=f"sim_{tag}")
    pilot = session.create_pilot_manager().submit_pilot(pd)
    tm = session.create_task_manager()
    gc.collect()
    t0 = time.perf_counter()
    handles = tm.submit_tasks(tds)
    accepted = [h for h in handles if isinstance(h, client.TaskHandle)]
    states = tm.wait_tasks(accepted, timeout_s=3600.0)
    session.close()
    t1 = time.perf_counter()
    trace = analytics.load_session_traces(pilot.trace_dir)
    report = analytics.compute_utilization(trace, pd)
    analytics.concurrency_and_rate_series(trace, 1.0)
    violations = analytics.replay_check(trace)
    t2 = time.perf_counter()
    failed = _count_done(states, checks, "sim_tasks_done") + len(handles) - len(accepted)
    checks.check("sim_replay_clean", not violations, "; ".join(violations[:3]))
    _check_partition(trace, report, pd, checks, "sim_utilization_exact")
    trace_bytes = sum(os.path.getsize(os.path.join(pilot.trace_dir, f))
                      for f in os.listdir(pilot.trace_dir) if f.endswith(".csv"))
    run = SimRun(tasks=len(tds), failed=failed, wall_s=t1 - t0,
                 events=len(trace.events), analyze_s=t2 - t1,
                 digest=trace_digest(pilot.trace_dir), trace_bytes=trace_bytes,
                 ttx_s=report.ttx_s, ru_pct=report.ru_pct,
                 generations=report.generations, stamps=(t0, t1, t2))
    del trace
    shutil.rmtree(session.directory)
    return run


# local part -------------------------------------------------------------

def local_pilot(uid: str, cores: int | None = None) -> PilotDescription:
    if cores is None:
        return PilotDescription(uid=uid, fabric=Fabric.LOCAL, nodes=1,
                                cores_per_node=os.cpu_count() or 1)
    return PilotDescription(uid=uid, fabric=Fabric.LOCAL, nodes=1,
                            cores_per_node=cores, oversubscribe=True)


def fn_task(uid: str) -> TaskDescription:
    return TaskDescription(uid=uid, kind=TaskKind.FUNCTION, function="noop")


def exec_task(uid: str) -> TaskDescription:
    return TaskDescription(uid=uid, executable=LOCAL_EXECUTABLE)


# One master and two single-core workers need three core slots, more than
# this machine may have, so the pilot is oversubscribed.
RAPTOR_CONFIG = raptor.MasterConfig(workers_per_master=2, cores_per_worker=1)
RAPTOR_CORES = 1 + 2


@dataclass
class LocalRun:
    """Samples of the local pilot phases, accumulated over rounds."""

    pd: PilotDescription
    fn_rates: list[float] = field(default_factory=list)
    exec_rates: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    call_rates: list[float] = field(default_factory=list)
    # per round: closed-loop uid and the session clock when its wait returned
    returns: list[list[tuple[str, float]]] = field(default_factory=list)
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    session_dirs: list[str] = field(default_factory=list)
    trace_dirs: list[tuple[str, str]] = field(default_factory=list)
    drains_ms: list[float] = field(default_factory=list)
    local_traces: list = field(default_factory=list)
    raptor_traces: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.trace_dirs)

    def needs_samples(self, sizes: Sizes) -> bool:
        """The closed loop needs its minimum and ten samples beyond the p95."""
        return (len(self.latencies_ms) < sizes.closed_loop_min
                or beyond_p95(self.latencies_ms) < 10)


def _batch(tm, make, size: int, prefix: str, run: LocalRun, checks: Checks,
           check_name: str) -> float:
    """Submit ``size`` tasks at once and await them; returns tasks/s."""
    tds = [make(f"{prefix}{i}") for i in range(size)]
    t0 = time.perf_counter()
    handles = tm.submit_tasks(tds)
    states = tm.wait_tasks(handles, timeout_s=600.0)
    rate = size / (time.perf_counter() - t0)
    run.attempted += size
    run.failed += _count_done(states, checks, check_name)
    return rate


def local_round(run: LocalRun, sizes: Sizes, closed_loop: int, workdir: str, seed: int,
                checks: Checks):
    """One batch of each phase and a chunk of the closed loop. Each pilot
    runs in its own session, closed at the end of the round, so that no
    pilot polls while the simulated part runs."""
    t_start = time.perf_counter()
    tag = str(run.rounds)
    session = client.create_session(workdir, seed=seed, uid=f"local_{tag}")
    pilot = session.create_pilot_manager().submit_pilot(run.pd)
    tm = session.create_task_manager()
    run.fn_rates.append(_batch(tm, fn_task, sizes.fn_batch, f"a{tag}.", run, checks,
                               "local_fn_tasks_done"))
    run.exec_rates.append(_batch(tm, exec_task, sizes.exec_batch, f"b{tag}.", run, checks,
                                 "local_exec_tasks_done"))
    returns = []
    bad = 0
    for i in range(closed_loop):
        uid = f"c{tag}.{i}"
        t0 = time.perf_counter()
        handles = tm.submit_tasks([fn_task(uid)])
        states = tm.wait_tasks(handles, timeout_s=60.0)
        run.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        returns.append((uid, session.clock()))
        bad += states[0] != "DONE"
    checks.check("local_closed_loop_done", bad == 0, f"{bad} tasks not DONE")
    run.attempted += closed_loop
    run.failed += bad
    run.returns.append(returns)
    session.close()

    rsession = client.create_session(workdir, seed=seed, uid=f"raptor_{tag}")
    rpd = local_pilot("raptor0", cores=RAPTOR_CORES)
    rpilot = rsession.create_pilot_manager().submit_pilot(rpd)
    handle = raptor.launch_master(rsession, rsession.create_task_manager(), RAPTOR_CONFIG,
                                  muid="m0", pilot_pd=rpd)
    raptor.launch_workers(handle)
    bad = _check_calls(["probe"], _calls(handle, ["probe"]), checks)
    uids = [f"d{tag}.{i}" for i in range(sizes.calls_batch)]
    t0 = time.perf_counter()
    results = _calls(handle, uids)
    run.call_rates.append(len(uids) / (time.perf_counter() - t0))
    bad += _check_calls(uids, results, checks)
    handle.close()
    rsession.close()
    run.calls += 1 + len(uids)
    run.attempted += 1 + len(uids)
    run.failed += bad
    run.session_dirs += [session.directory, rsession.directory]
    run.trace_dirs.append((pilot.trace_dir, rpilot.trace_dir))
    run.wall_s += time.perf_counter() - t_start


def finish_local(run: LocalRun, checks: Checks):
    """Load the local pilots' traces, check them and derive the drain
    times; then remove the sessions. Runs outside the timed window."""
    for (local_dir, raptor_dir), returns in zip(run.trace_dirs, run.returns):
        trace = analytics.load_session_traces(local_dir)
        done_at = {e.task_uid: e.ts for e in trace.events if e.name == "task_done"}
        run.drains_ms += [(t - done_at[uid]) * 1e3 for uid, t in returns if uid in done_at]
        violations = analytics.replay_check(trace)
        checks.check("local_replay_clean", not violations, "; ".join(violations[:3]))
        report = analytics.compute_utilization(trace, run.pd)
        _check_partition(trace, report, run.pd, checks, "local_utilization_exact")
        run.local_traces.append(trace)
        run.raptor_traces.append(analytics.load_session_traces(raptor_dir))
    for d in run.session_dirs:
        shutil.rmtree(d)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def beyond_p95(values: list[float]) -> int:
    """How many samples lie above the p95."""
    if len(values) < 2:
        return 0
    p95 = quantile(values, 95)
    return sum(1 for v in values if v > p95)


def _calls(handle, uids: list[str]) -> list[dict]:
    handle.submit_calls([{"uid": u, "fn": "noop", "payload": ""} for u in uids])
    return handle.results(len(uids), timeout_s=120.0)


def _check_calls(sent: list[str], results: list[dict], checks: Checks) -> int:
    """Every call uid must get exactly one ok result; returns the calls
    that did not."""
    ok = Counter(r["uid"] for r in results if r.get("ok"))
    other = Counter(r["uid"] for r in results if not r.get("ok"))
    bad = sum(1 for u in sent if ok[u] != 1 or other[u])
    strays = len((set(ok) | set(other)) - set(sent))
    checks.check("raptor_calls_exactly_once", bad == 0 and strays == 0,
                 f"{bad} of {len(sent)} calls without exactly one ok result, "
                 f"{strays} unknown uids")
    return bad


# set-up -----------------------------------------------------------------

def setup_once(workload: str, sizes: Sizes, seed: int, workdir: str, tag: str) -> float:
    """Wall seconds from create_session to a ready pilot, summed over the
    three pilots a pass uses; the master/worker pilot is ready when its
    first call is answered. Tear-down is not timed."""
    spec = sim_spec(workload, sizes, seed)
    t0 = time.perf_counter()
    s_sim = client.create_session(workdir, seed=seed, uid=f"setup_sim_{tag}")
    s_sim.create_pilot_manager().submit_pilot(harness.pilot_from_cell(spec, 0, "sim0"))
    s_local = client.create_session(workdir, seed=seed, uid=f"setup_local_{tag}")
    s_local.create_pilot_manager().submit_pilot(local_pilot("local0"))
    s_raptor = client.create_session(workdir, seed=seed, uid=f"setup_raptor_{tag}")
    rpd = local_pilot("raptor0", cores=RAPTOR_CORES)
    s_raptor.create_pilot_manager().submit_pilot(rpd)
    handle = raptor.launch_master(s_raptor, s_raptor.create_task_manager(), RAPTOR_CONFIG,
                                  muid="m0", pilot_pd=rpd)
    raptor.launch_workers(handle)
    answered = _calls(handle, ["probe"])
    elapsed = time.perf_counter() - t0
    if len(answered) != 1:
        raise RuntimeError("master/worker probe call was not answered")
    handle.close()
    for s in (s_sim, s_local, s_raptor):
        s.close()
        shutil.rmtree(s.directory)
    return elapsed
