#!/usr/bin/env python3
"""pilotkit benchmark: end-to-end rates of simulated and local pilots, and
per-layer costs from spans recorded around pilotkit's public functions.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim_hetero --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
spans recorded. It alternates simulated batches (input seeds derived from
``--seed``) with rounds of the local phases, each part kept to its share of
``--seconds`` and each preceded by a few timed set-ups, then runs the first
simulated input again: the two trace digests must match. Each simulated
batch runs with the main thread pinned to one CPU whose speed is sampled
(``hostspeed``); ``sim_tasks_per_s`` and ``analyze_events_per_s`` are rates
over reference seconds, so that they do not move with the speed of a shared
host's CPU. ``setup_s`` is likewise in reference seconds, scaled by
reference set-ups timed around each group of set-ups. The wall-clock values
go to the result file. ``--trace 1`` runs one untraced pass and one traced
pass of the same inputs and reports the per-layer metrics, the per-layer
table and the span overhead; the spans of the latest traced run of each
workload are written to ``perfbench/out``. ``--smoke`` shrinks every
input so that a run takes seconds. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
the environment, every check and the layer table, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>[-smoke].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Share of --seconds for the simulated batches; the rest goes to rounds of
# the local phases.
SIM_SHARE = 0.65

EXPECTED_CHECKS = (
    "sim_tasks_done", "sim_replay_clean", "sim_utilization_exact",
    "sim_trace_deterministic", "local_fn_tasks_done", "local_exec_tasks_done",
    "local_closed_loop_done", "raptor_calls_exactly_once", "local_replay_clean",
    "local_utilization_exact",
)


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git; None
    when the tree is not a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every metric and check in a few seconds")
    return ap.parse_args(argv)


@dataclass
class SimSample:
    """One simulated batch and its rates over reference seconds."""

    run: "workloads.SimRun"
    tasks_per_s: float
    events_per_s: float
    speed: float  # mean CPU speed during the batch, relative to the reference


def sim_sample(args, sizes, seed: int, workdir: str, tag: str, checks) -> SimSample:
    """Runs one simulated batch on a pinned CPU whose speed is sampled."""
    import workloads as W
    from hostspeed import HostSpeed
    with HostSpeed() as speed:
        r = W.run_sim(args.workload, sizes, seed, workdir, tag, checks)
    t0, t1, t2 = r.stamps
    ref_sim, ref_analyze = speed.reference_s(t0, t1), speed.reference_s(t1, t2)
    return SimSample(run=r, tasks_per_s=r.tasks / ref_sim,
                     events_per_s=r.events / ref_analyze,
                     speed=(ref_sim + ref_analyze) / (t2 - t0))


def end_to_end(setups, sims, local) -> dict[str, float]:
    """Medians over the run's samples; peak RSS before the benchmark loads
    the local pilots' traces for its own checks."""
    from workloads import quantile
    med = statistics.median
    return {
        "setup_s": med(setups),
        "sim_tasks_per_s": med(s.tasks_per_s for s in sims),
        "analyze_events_per_s": med(s.events_per_s for s in sims),
        "local_fn_tasks_per_s": med(local.fn_rates),
        "local_exec_tasks_per_s": med(local.exec_rates),
        "local_fn_latency_p50_ms": quantile(local.latencies_ms, 50),
        "local_fn_latency_p95_ms": quantile(local.latencies_ms, 95),
        "raptor_calls_per_s": med(local.call_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(args, sizes, workdir, checks, result) -> dict[str, float]:
    """Alternate simulated batches and local rounds, each part kept to its
    share of --seconds, with a few set-ups before each, then run the first
    simulated input again: its trace digest must equal the first run's.
    Set-ups are spread over the run, like every other sample, so that their
    median does not depend on the host's state in one moment of it. They
    run on one pinned CPU, since their threads hand work to each other and
    waking a second virtual CPU on a busy host costs a varying few
    milliseconds, and are scaled to reference seconds by reference set-ups
    timed just before and after them."""
    import workloads as W
    from hostspeed import pinned, setup_speed

    def set_up(n: int):
        """n set-ups between two measures of the host's set-up speed;
        keeps their wall times and their times over reference seconds."""
        if n <= 0:
            return
        tag = str(len(setup_walls))
        with pinned():
            before = setup_speed(workdir, f"{tag}.before")
            walls = [W.setup_once(args.workload, sizes, args.seed, workdir, f"{tag}.{k}")
                     for k in range(n)]
            after = setup_speed(workdir, f"{tag}.after")
        setup_walls.extend(walls)
        setups.extend(w * (before + after) / 2 for w in walls)

    # The first set-up in a process pays for imports and first-use caches.
    W.setup_once(args.workload, sizes, args.seed, workdir, "warm")
    setup_speed(workdir, "warm")
    setups: list[float] = []
    setup_walls: list[float] = []
    local = W.LocalRun(pd=W.local_pilot("local0"))
    sims = []
    sim_budget = args.seconds * SIM_SHARE
    local_budget = args.seconds - sim_budget
    sim_used = local_used = 0.0
    while True:
        sim_done = sims and sim_used >= sim_budget
        local_done = local.rounds and local_used >= local_budget \
            and not local.needs_samples(sizes)
        if sim_done and local_done:
            break
        set_up(sizes.setups_per_step)
        t0 = time.perf_counter()
        if not sim_done and (local_done or sim_used / sim_budget <= local_used / local_budget):
            sims.append(sim_sample(args, sizes, args.seed * 1000 + len(sims),
                                   workdir, str(len(sims)), checks))
            # The first input runs again at the end; its time is reserved now.
            sim_used += (time.perf_counter() - t0) * (2 if len(sims) == 1 else 1)
        else:
            W.local_round(local, sizes, sizes.closed_loop_round, workdir, args.seed, checks)
            local_used += time.perf_counter() - t0
    set_up(sizes.setup_reps - len(setups))
    repeat = sim_sample(args, sizes, args.seed * 1000, workdir, "repeat", checks)
    first, again = sims[0].run.digest, repeat.run.digest
    checks.check("sim_trace_deterministic", first == again, f"{first[:12]} != {again[:12]}")
    sims.append(repeat)
    metrics = end_to_end(setups, sims, local)
    W.finish_local(local, checks)
    result["samples"] = {
        "setup": len(setups), "sim_batches": len(sims),
        "sim_tasks_per_batch": sims[0].run.tasks, "local_rounds": local.rounds,
        "closed_loop_samples": len(local.latencies_ms),
        "closed_loop_beyond_p95": W.beyond_p95(local.latencies_ms),
    }
    result["raw"] = {
        "setup_s": setups, "setup_wall_s": setup_walls,
        "sim_tasks_per_s": [s.tasks_per_s for s in sims],
        "analyze_events_per_s": [s.events_per_s for s in sims],
        "sim_tasks_per_wall_s": [s.run.tasks / s.run.wall_s for s in sims],
        "analyze_events_per_wall_s": [s.run.events / s.run.analyze_s for s in sims],
        "sim_cpu_speed": [s.speed for s in sims],
        "local_fn_tasks_per_s": local.fn_rates, "local_exec_tasks_per_s": local.exec_rates,
        "local_fn_latency_ms": local.latencies_ms, "raptor_calls_per_s": local.call_rates,
    }
    result["attempted"] = sum(s.run.tasks for s in sims) + local.attempted
    result["failed"] = sum(s.run.failed for s in sims) + local.failed
    result["local_pilot_cores"] = local.pd.cores_per_node
    return metrics


def measure_traced(args, sizes, workdir, checks, result) -> dict[str, float]:
    """One untraced pass, then the same inputs with spans recorded."""
    import layers as L
    import workloads as W
    from spans import SpanRecorder
    W.setup_once(args.workload, sizes, args.seed, workdir, "warm")
    plain_sim = W.run_sim(args.workload, sizes, args.seed * 1000, workdir, "plain", checks)
    plain_local = W.LocalRun(pd=W.local_pilot("local0"))
    W.local_round(plain_local, sizes, sizes.closed_loop_min, workdir, args.seed, checks)
    W.finish_local(plain_local, checks)
    with SpanRecorder(hooks=L.HOOKS) as sim_rec:
        traced_sim = W.run_sim(args.workload, sizes, args.seed * 1000, workdir, "traced", checks)
    traced_local = W.LocalRun(pd=W.local_pilot("local0"))
    with SpanRecorder(hooks=L.HOOKS) as local_rec:
        W.local_round(traced_local, sizes, sizes.closed_loop_min, workdir, args.seed, checks)
    W.finish_local(traced_local, checks)
    checks.check("sim_trace_deterministic", plain_sim.digest == traced_sim.digest,
                 f"{plain_sim.digest[:12]} != {traced_sim.digest[:12]}")
    sim_sum, local_sum = sim_rec.summarize(), local_rec.summarize()
    plain_wall = plain_sim.wall_s + plain_sim.analyze_s + plain_local.wall_s
    traced_wall = traced_sim.wall_s + traced_sim.analyze_s + traced_local.wall_s
    metrics = {"bench.span_overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall}
    metrics.update(L.sim_span_metrics(sim_sum, traced_sim))
    metrics.update(L.local_span_metrics(local_sum, traced_local))
    metrics.update(L.trace_metrics(plain_local))
    metrics["raptor.calls_per_s"] = statistics.median(plain_local.call_rates)
    metrics["client.closed_loop_p95_ms"] = W.quantile(plain_local.latencies_ms, 95)
    metrics.update(L.busy_metrics(sim_sum, local_sum))
    worker_lost = sum(1 for t in traced_local.raptor_traces for e in t.events
                      if e.name == "worker_lost")
    result["layers"] = {
        "sim": L.layer_table(sim_sum, {
            "scheduler.nofit": sim_sum.failed["scheduler.Scheduler.try_allocate"]}),
        "local": L.layer_table(local_sum, {
            "scheduler.nofit": local_sum.failed["scheduler.Scheduler.try_allocate"],
            "bus.empty_polls": local_sum.counters["bus.empty_receives"],
            "raptor.worker_lost": worker_lost}),
    }
    result["top_spans"] = L.top_spans(sim_sum, local_sum)
    result["spans"] = {"sim": sim_sum.spans, "local": local_sum.spans,
                       "unfinished": sim_sum.unfinished + local_sum.unfinished}
    # One span file per workload and part, replaced by each traced run:
    # the simulated part alone can hold millions of spans.
    for part, rec in (("sim", sim_rec), ("local", local_rec)):
        smoke = "-smoke" if args.smoke else ""
        path = os.path.join(OUT, f"{args.workload}{smoke}-{part}-spans.csv.gz")
        rec.write(path)
        result.setdefault("span_files", []).append(os.path.relpath(path, ROOT))
    result["attempted"] = plain_sim.tasks + traced_sim.tasks + plain_local.attempted \
        + traced_local.attempted
    result["failed"] = plain_sim.failed + traced_sim.failed + plain_local.failed \
        + traced_local.failed
    result["local_pilot_cores"] = plain_local.pd.cores_per_node
    return metrics


def result_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")


def declared_metrics(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def print_report(result: dict):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  cpus {env['cpu_count']}  python {env['python']}  git {env['git_sha']}")
    print(f"local pilot: {result['local_pilot_cores']} cores; executable tasks run "
          f"{env['executable']} (pilotkit-emulate on PATH: {env['pilotkit_emulate_on_path']})")
    if "samples" in result:
        print("samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    for name, m in result["reported"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    for part, table in result.get("layers", {}).items():
        print(f"layers, {part} part: count, busy s, waited s, failed spans, retries")
        for layer, row in table.items():
            extra = {k: v for k, v in row.items()
                     if k not in ("count", "busy_s", "waited_s", "failed_spans")}
            print(f"  {layer:10s} {row['count']:9d} {row['busy_s']:9.3f} "
                  f"{row['waited_s']:9.3f} {row['failed_spans']:7d} {extra or ''}")
    for kind, top in result.get("top_spans", {}).items():
        print(f"most {kind} time: {top['name']} ({top['s']:.3f} s)")
    print("checks: " + ", ".join(f"{k} {v['ran'] - v['failed']}/{v['ran']}"
                                 for k, v in result["checks"].items()))
    for note in result["check_notes"]:
        print(f"  FAILED {note}")
    print(f"process peak RSS {result['process_peak_rss_mb']:.1f} MB")
    print(f"failed {result['failed']} of {result['attempted']} attempted "
          f"({100.0 * result['failed'] / result['attempted']:.3f}%)")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import pilotkit  # noqa: F401
        import workloads as W
    except ImportError as exc:
        print(f"cannot import pilotkit from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    sizes = W.SMOKE if args.smoke else W.FULL
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    checks = W.Checks()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": {
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(ROOT), "executable": W.LOCAL_EXECUTABLE,
            "pilotkit_emulate_on_path": shutil.which("pilotkit-emulate") is not None,
        },
    }
    try:
        if args.trace:
            metrics = measure_traced(args, sizes, workdir, checks, result)
        else:
            metrics = measure(args, sizes, workdir, checks, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["process_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in declared_metrics(section) if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result["reported"] = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in declared_metrics(section)}
    result["metrics"] = metrics
    result["checks"] = {name: {"ran": checks.ran[name], "failed": checks.failed[name]}
                        for name in sorted(set(EXPECTED_CHECKS) | set(checks.ran))}
    result["check_notes"] = checks.notes
    all_ran = all(checks.ran[name] for name in EXPECTED_CHECKS)
    result["correct"] = checks.ok and all_ran and result["failed"] == 0
    with open(os.path.join(OUT, result_stem(args) + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_report(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["reported"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
