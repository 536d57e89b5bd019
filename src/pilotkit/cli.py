"""Command line interface: run workloads, analyze traces, drive experiments."""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .analytics import (
    IncompleteTrace,
    UnwritableOutput,
    bin_width_us,
    compute_utilization,
    concurrency_and_rate_series,
    emit_report,
    load_session_traces,
)
from .client import Session, WaitTimeout
from .core import PilotDescription, TaskDescription, ValidationError, load_pilot_profile
from .harness import ExperimentSpec, run_experiment


# What reading a malformed input file raises.
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, ValidationError)


def _print_error(path: str, exc: Exception):
    print(f"pilotkit: error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)


def _read(path: str, read):
    """``read(path)``; a malformed input file exits 2, as a usage error does."""
    try:
        return read(path)
    except INPUT_ERRORS as exc:
        _print_error(path, exc)
        raise SystemExit(2) from None


def _read_workload(path: str):
    with open(path) as fh:
        cfg = json.load(fh)
    unknown = sorted(set(cfg) - {"pilot", "pilot_profile", "tasks", "seed", "timeout_s"})
    if unknown:
        raise ValueError(f"unknown workload keys: {', '.join(unknown)}")
    seed, timeout_s = cfg.get("seed", 0), cfg.get("timeout_s", 3600.0)
    if type(seed) is not int:
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if type(timeout_s) not in (int, float) or not timeout_s > 0:
        raise ValueError(f"timeout_s must be a positive number, got {timeout_s!r}")
    if "pilot_profile" in cfg:
        pd = load_pilot_profile(cfg["pilot_profile"])
    else:
        pd = PilotDescription.from_dict(cfg["pilot"])
    return pd, [TaskDescription.from_dict(d) for d in cfg["tasks"]], seed, timeout_s


def _cmd_run(args) -> int:
    pd, tds, seed, timeout_s = _read(args.config, _read_workload)
    session = Session(args.workdir, seed=seed)
    try:
        pm = session.create_pilot_manager()
        pm.submit_pilot(pd)
        tm = session.create_task_manager()
        handles = tm.submit_tasks(tds)
        rejected = [h for h in handles if isinstance(h, Exception)]
        good = [h for h in handles if not isinstance(h, Exception)]
        for exc in rejected:
            print(f"rejected: {exc}", file=sys.stderr)
        try:
            states = tm.wait_tasks(good, timeout_s=timeout_s)
        except WaitTimeout as exc:
            print(f"timeout_s {timeout_s} passed: {exc}", file=sys.stderr)
            states = [h.state for h in good]
    finally:
        session.close()
    done = sum(1 for s in states if s == "DONE")
    print(f"session {session.uid}: {done}/{len(tds)} tasks DONE "
          f"(traces under {session.directory})")
    return 0 if done == len(tds) else 1


def _find_trace_dirs(session_dir: str) -> list[str]:
    if os.path.exists(os.path.join(session_dir, "manifest.json")):
        return [session_dir]
    found = sorted(glob.glob(os.path.join(session_dir, "pilots", "*", "traces")))
    return [d for d in found if os.path.exists(os.path.join(d, "manifest.json"))]


def _cmd_analyze(args) -> int:
    trace_dirs = _find_trace_dirs(args.session_dir)
    if not trace_dirs:
        print(f"no trace manifest under {args.session_dir}", file=sys.stderr)
        return 1
    status = 0
    for trace_dir in trace_dirs:
        try:
            trace = load_session_traces(trace_dir)
            pd = PilotDescription.from_dict(trace.manifest["pilot"])
        except INPUT_ERRORS as exc:
            _print_error(trace_dir, exc)
            status = 1
            continue
        out = args.out or os.path.join(trace_dir, "analysis")
        if args.out and len(trace_dirs) > 1:
            out = os.path.join(args.out, pd.uid)  # one report per pilot
        try:
            report = compute_utilization(trace, pd)
            series = concurrency_and_rate_series(trace, args.bin_width)
            files = emit_report(report, series, out)
        except (IncompleteTrace, UnwritableOutput) as exc:
            _print_error(trace_dir, exc)
            status = 1
            continue
        print(f"{trace_dir}: TTX {report.ttx_s:.3f} s, RU {report.ru_pct:.1f}%, "
              f"OVH {report.ovh_pct:.1f}% -> {', '.join(files)}")
    return status


def _cmd_experiment(args) -> int:
    spec = _read(args.spec, ExperimentSpec.from_file)
    rows = run_experiment(spec, args.out)
    failures = [r for r in rows if "error" in r]
    for r in failures:
        print(f"cell {r['cell']} rep {r['rep']} failed: {r['error']}", file=sys.stderr)
    print(f"summary: {os.path.join(args.out, 'summary.csv')}")
    return 1 if failures else 0


def _bin_width(text: str) -> float:
    try:
        bin_width_us(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return float(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pilotkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload file through a pilot")
    p_run.add_argument("--config", required=True, help="workload JSON file")
    p_run.add_argument("--workdir", default="./pilotkit_sessions")
    p_run.set_defaults(fn=_cmd_run)

    p_an = sub.add_parser("analyze", help="compute metrics from session traces")
    p_an.add_argument("session_dir")
    p_an.add_argument("--bin-width", type=_bin_width, default=1.0)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(fn=_cmd_analyze)

    p_ex = sub.add_parser("experiment", help="run an experiment spec")
    p_ex.add_argument("--spec", required=True)
    p_ex.add_argument("--out", required=True)
    p_ex.set_defaults(fn=_cmd_experiment)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
