"""Per-layer metrics: from the spans of a traced pass and from the
program's own trace files of an untraced one.

Which end-to-end metric each should move, on which part of a pass:

* ``scheduler.*`` (simulated part) move ``sim_tasks_per_s``; rescans, NoFit
  and the fit ratio mostly with the heterogeneous mix, the cost of one
  placement and of a release with the uniform one (the first-fit node walk).
* ``simulator.*`` move ``sim_tasks_per_s``; the virtual TTX, RU and
  generations are recorded so that a change in scheduling shows.
* ``tracer.*`` move ``sim_tasks_per_s`` and, through trace size,
  ``peak_rss_mb`` and ``analyze_events_per_s``.
* ``analytics.*`` move ``analyze_events_per_s`` and ``peak_rss_mb``.
* ``client.submit_us_per_task`` moves ``sim_tasks_per_s``; ``client.wait_s``,
  ``close_s`` and ``drain_ms`` (local part) move the local latencies.
* ``agent.*`` and ``executor.*`` (local pilot trace) move the local task
  rates and latencies.
* ``bus.*`` and ``raptor.*`` (local part) move the local rates and the
  master/worker call rate.

``raptor.calls_per_s`` and ``client.closed_loop_p95_ms`` are end-to-end
quantities kept here, ungated: both are chains of thread wake-ups, and on
a shared host whose CPUs are stolen for minutes at a time they move by a
factor of two to three between runs of the same code.
"""

from __future__ import annotations

from collections import Counter

from spans import LAYERS, SpanSummary, layer_of
from workloads import quantile

# Spans whose self time is time spent waiting for other threads or
# processes rather than work.
WAITS = frozenset({
    "bus._Endpoint.receive",
    "bus._Endpoint.put",
    "client.TaskManager.wait_tasks",
    "raptor.MasterHandle.results",
    "raptor.MasterHandle.close",
    "agent.LocalAgent.stop",
})

DISPATCH = b'"type":"dispatch"'


def _on_send(counters: Counter, args, result):
    channel, payloads = args[0], args[1]
    n = len(payloads)
    counters["bus.msgs"] += n
    counters["bus.bytes"] += sum(len(p) for p in payloads)
    if channel.name.startswith("raptor."):
        counters["raptor.msgs"] += n
        counters["raptor.dispatch_msgs"] += sum(1 for p in payloads if DISPATCH in p)


def _on_receive(counters: Counter, args, result):
    if not result:
        counters["bus.empty_receives"] += 1


def _on_rescan(counters: Counter, args, result):
    counters["scheduler.placements"] += len(result)
    waiting = len(args[0].waiting) + len(result)
    counters["scheduler.waiting_max"] = max(counters["scheduler.waiting_max"], waiting)


HOOKS = {
    "bus.Channel.send": _on_send,
    "bus._Endpoint.receive": _on_receive,
    "scheduler.Scheduler.rescan": _on_rescan,
}


def _ms_quantiles(values_us: list[int]) -> tuple[float, float]:
    if len(values_us) < 2:
        return 0.0, 0.0
    ms = [v / 1e3 for v in values_us]
    return quantile(ms, 50), quantile(ms, 95)


def _intervals(traces, start_name: str, stop_name: str, component: str | None = None,
               uids=None) -> list[int]:
    """Per uid and trace, microseconds from its first ``start_name`` to its
    first ``stop_name`` event after it."""
    out: list[int] = []
    for trace in traces:
        out += _trace_intervals(trace, start_name, stop_name, component, uids)
    return out


def _trace_intervals(trace, start_name, stop_name, component, uids) -> list[int]:
    starts: dict[str, int] = {}
    out: list[int] = []
    for e in trace.events:
        if component is not None and e.component != component:
            continue
        if uids is not None and not uids(e.task_uid):
            continue
        if e.name == start_name and e.task_uid not in starts:
            starts[e.task_uid] = e.ts_us
        elif e.name == stop_name and e.task_uid in starts:
            out.append(e.ts_us - starts.pop(e.task_uid))
    return out


def trace_metrics(local) -> dict[str, float]:
    """Stage latencies of the local pilots, from their own trace files."""
    m: dict[str, float] = {}
    tr = local.local_traces
    for key, (a, b) in {"queue_wait": ("db_bridge_pull", "schedule_ok"),
                        "launch": ("schedule_ok", "exec_start"),
                        "ack": ("exec_stop", "spawn_return")}.items():
        p50, p95 = _ms_quantiles(_intervals(tr, a, b))
        m[f"agent.{key}_ms_p50"], m[f"agent.{key}_ms_p95"] = p50, p95
    fn = _intervals(tr, "exec_start", "exec_stop", uids=lambda u: u[:1] in ("a", "c"))
    exe = _intervals(tr, "exec_start", "exec_stop", uids=lambda u: u[:1] == "b")
    m["executor.fn_exec_ms_p50"], m["executor.fn_exec_ms_p95"] = _ms_quantiles(fn)
    m["executor.exe_exec_ms_p50"], m["executor.exe_exec_ms_p95"] = _ms_quantiles(exe)
    calls = _intervals(local.raptor_traces, "call_dispatch", "call_result", component="raptor")
    m["raptor.call_latency_ms_p50"], m["raptor.call_latency_ms_p95"] = _ms_quantiles(calls)
    m["client.drain_ms"] = quantile(local.drains_ms, 50) if len(local.drains_ms) > 1 else 0.0
    return m


def sim_span_metrics(s: SpanSummary, sim) -> dict[str, float]:
    """Per-layer metrics of the simulated part of a traced pass."""
    c = s.counters
    m: dict[str, float] = {}
    rescan = "scheduler.Scheduler.rescan"
    tries = "scheduler.Scheduler.try_allocate"
    placements = c["scheduler.placements"]
    m["scheduler.rescan_calls"] = s.calls[rescan]
    m["scheduler.placements"] = placements
    m["scheduler.us_per_rescan"] = s.mean_us(rescan)
    m["scheduler.try_allocate_calls"] = s.calls[tries]
    m["scheduler.nofit_calls"] = s.failed[tries]
    m["scheduler.fit_ratio"] = placements / s.calls[tries] if s.calls[tries] else 0.0
    m["scheduler.waiting_max"] = c["scheduler.waiting_max"]
    m["scheduler.us_per_placement"] = s.mean_us(tries, ok_only=True)
    m["scheduler.complete_us"] = s.mean_us("scheduler.Scheduler.complete")
    run = "simulator.SimAgent.run"
    inside = s.child_ns[(run, "scheduler")] + s.child_ns[(run, "tracer")]
    m["simulator.init_s"] = s.total_s("simulator.SimAgent.__init__")
    m["simulator.run_s"] = s.total_s(run)
    m["simulator.self_us_per_task"] = (s.total_ns[run] - inside) / 1e3 / sim.tasks
    m["simulator.virtual_ttx_s"] = sim.ttx_s
    m["simulator.virtual_ru_pct"] = sim.ru_pct
    m["simulator.generations"] = sim.generations
    emit = "tracer.Tracer.emit"
    m["tracer.emit_calls"] = s.calls[emit]
    m["tracer.ns_per_emit"] = s.mean_us(emit) * 1e3
    m["tracer.close_s"] = s.total_s("tracer.Tracer.close")
    m["tracer.bytes_per_event"] = sim.trace_bytes / sim.events
    for key, name in {"load": "analytics.load_session_traces",
                      "utilization": "analytics.compute_utilization",
                      "series": "analytics.concurrency_and_rate_series",
                      "replay": "analytics.replay_check"}.items():
        m[f"analytics.{key}_us_per_event"] = s.total_ns[name] / 1e3 / sim.events
    m["client.submit_us_per_task"] = s.total_ns["client.TaskManager.submit_tasks"] / 1e3 / sim.tasks
    m["core.validate_us"] = s.mean_us("core.validate_task_description")
    return m


def local_span_metrics(s: SpanSummary, local) -> dict[str, float]:
    """Per-layer metrics of the local part of a traced pass."""
    c = s.counters
    m: dict[str, float] = {}
    m["client.wait_s"] = s.total_s("client.TaskManager.wait_tasks")
    m["client.close_s"] = s.total_s("client.Session.close")
    receive = "bus._Endpoint.receive"
    msgs = c["bus.msgs"]
    m["bus.send_msgs"] = msgs
    m["bus.receive_calls"] = s.calls[receive]
    m["bus.empty_receive_ratio"] = c["bus.empty_receives"] / s.calls[receive] if s.calls[receive] else 0.0
    m["bus.receive_blocked_s"] = s.total_s(receive)
    m["bus.bytes_per_msg"] = c["bus.bytes"] / msgs if msgs else 0.0
    m["bus.msgs_per_task"] = msgs / local.attempted
    calls = local.calls
    m["raptor.msgs_per_call"] = c["raptor.msgs"] / calls
    m["raptor.calls_per_dispatch"] = (calls / c["raptor.dispatch_msgs"]
                                      if c["raptor.dispatch_msgs"] else 0.0)
    return m


def layer_table(s: SpanSummary, retries: dict[str, int]) -> dict[str, dict]:
    """Per layer: spans counted, busy and waiting self time, spans that
    raised, and the named failed or retried operations given as
    ``{"layer.what": count}``."""
    table = {layer: {"count": 0, "busy_s": 0.0, "waited_s": 0.0, "failed_spans": 0}
             for layer in LAYERS}
    for name, calls in s.calls.items():
        row = table[layer_of(name)]
        row["count"] += calls
        row["failed_spans"] += s.failed[name]
        row["waited_s" if name in WAITS else "busy_s"] += s.self_ns[name] / 1e9
    for key, n in retries.items():
        layer, what = key.split(".", 1)
        table[layer][what] = n
    return table


def busy_metrics(sim_s: SpanSummary, local_s: SpanSummary) -> dict[str, float]:
    """Busy self time per layer (waiting spans left out), summed over both
    parts and all threads."""
    m = {f"{layer}.busy_s": 0.0 for layer in LAYERS}
    for s in (sim_s, local_s):
        for name, ns in s.self_ns.items():
            if name not in WAITS:
                m[f"{layer_of(name)}.busy_s"] += ns / 1e9
    return m


def top_spans(*summaries: SpanSummary) -> dict[str, dict]:
    """The span names with the most self time and with the most busy self
    time (waiting spans left out) over the summaries."""
    total: Counter = Counter()
    for s in summaries:
        total.update(s.self_ns)
    (name, ns), = total.most_common(1)
    (busy_name, busy_ns), = Counter(
        {k: v for k, v in total.items() if k not in WAITS}).most_common(1)
    return {"self": {"name": name, "s": ns / 1e9},
            "busy": {"name": busy_name, "s": busy_ns / 1e9}}
