"""Buffered per-component event tracing: CSV trace files plus a JSON manifest.

Trace format: one event per line, ``timestamp,component,event_name,task_uid,detail``
with timestamps as decimal seconds at microsecond precision. One file per
component; a ``manifest.json`` records components, event counts, clock offsets,
the session seed and a config snapshot.
"""

from __future__ import annotations

import json
import os
import threading
import time

# The event table: every documented event name, with its rank among events
# that share a timestamp. Ranks follow the lifecycle, so a task's
# schedule_ok sorts before its prepare_start within one instant. Unknown
# names are recorded but counted separately, so a typo shows up in the
# manifest instead of failing a task; they rank UNKNOWN_RANK.
UNKNOWN_RANK = 50
EVENTS = {
    "session_start": 0,
    "pilot_start": 1,
    "dvm_boot": 2,
    "dvm_ready": 3,
    "agent_ready": 4,
    "task_submit": 5,
    "db_bridge_pull": 10,
    "stage_in_start": 11,
    "stage_in_stop": 12,
    "schedule_wait": 14,
    "schedule_ok": 15,
    "call_dispatch": 16,
    "prepare_start": 20,
    "exec_start": 21,
    "call_start": 21,  # master/worker calls have their own exec events
    "exec_stop": 22,
    "call_stop": 22,
    "call_result": 23,
    "stage_out_start": 24,
    "stage_out_stop": 25,
    "spawn_return": 30,
    "task_done": 31,
    "task_failed": 31,
    "task_canceled": 31,
    "dvm_failed": 40,
    "worker_lost": 41,
    "schedule_fail": UNKNOWN_RANK,
    "agent_stop": 90,
    "session_close": 99,
}

DEFAULT_BUFFER_EVENTS = 4096
LINE_FORMAT = "%.6f,%s,%s,%s,%s"  # timestamp, component, event name, task uid, detail


class Tracer:
    """Collects events per component and writes one CSV file per component.

    Tracing never raises into the caller's task path: I/O errors are counted
    and reported in the manifest. Timestamps passed explicitly must be
    non-decreasing per component; violations are rejected and counted.

    ``emit`` records one event and takes the lock, for threads that share
    the tracer. ``emit_rows`` records a batch of one component's events,
    with the same format and accounting and one lock for the batch.
    """

    def __init__(self, directory: str, enabled: bool = True,
                 buffer_events: int = DEFAULT_BUFFER_EVENTS, clock=None):
        self.directory = directory
        self.enabled = enabled
        self.buffer_events = buffer_events
        self._clock = clock  # callable returning seconds; default: monotonic since open
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._buffers: dict[str, list[str]] = {}
        self._counts: dict[str, int] = {}
        self._last_ts: dict[str, float] = {}
        self._offsets: dict[str, float] = {}
        self.rejected = 0
        self.unknown_names = 0
        self.io_errors = 0
        self._closed = False
        self.meta: dict = {}
        if enabled:
            os.makedirs(directory, exist_ok=True)

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return time.monotonic() - self._t0

    def set_offset(self, component: str, offset_s: float):
        """Record a per-component clock offset for the manifest."""
        self._offsets[component] = offset_s

    def emit(self, component: str, event_name: str, task_uid: str | None = None,
             detail: str | None = None, timestamp: float | None = None):
        if not self.enabled or self._closed:
            return
        with self._lock:
            if timestamp is None:
                timestamp = self.now()
            else:
                last = self._last_ts.get(component)
                if last is not None and timestamp < last:
                    self.rejected += 1
                    return
            self._last_ts[component] = timestamp
            if event_name not in EVENTS:
                self.unknown_names += 1
            line = LINE_FORMAT % (
                timestamp, component, event_name, task_uid or "", detail or "")
            buf = self._buffers.setdefault(component, [])
            buf.append(line)
            self._counts[component] = self._counts.get(component, 0) + 1
            if len(buf) >= self.buffer_events:
                self._flush_component(component)

    def emit_rows(self, component: str, rows: list[tuple]):
        """Record a batch of one component's events, each row a
        ``(timestamp, event_name, task_uid, detail)`` tuple: what ``emit``
        does with explicit timestamps, row by row, under one lock."""
        if not self.enabled or self._closed:
            return
        with self._lock:
            last = self._last_ts.get(component, float("-inf"))
            buf = self._buffers.setdefault(component, [])
            append = buf.append
            rejected = unknown = 0
            # LINE_FORMAT, with the timestamp formatted once for each run of
            # rows that share its float object.
            stamped = stamp = None
            for ts, name, uid, detail in rows:
                if ts < last:
                    rejected += 1
                    continue
                last = ts
                if name not in EVENTS:
                    unknown += 1
                if ts is not stamped:
                    stamped, stamp = ts, "%.6f" % ts
                append(f"{stamp},{component},{name},{uid or ''},{detail or ''}")
            self.rejected += rejected
            self.unknown_names += unknown
            if len(rows) > rejected:
                self._last_ts[component] = last
                self._counts[component] = self._counts.get(component, 0) + len(rows) - rejected
            if len(buf) >= self.buffer_events:
                self._flush_component(component)

    def _flush_component(self, component: str):
        buf = self._buffers.get(component)
        if not buf:
            return
        path = os.path.join(self.directory, f"{component}.csv")
        try:
            with open(path, "a") as fh:
                fh.write("\n".join(buf) + "\n")
        except OSError:
            self.io_errors += 1
        self._buffers[component] = []

    def flush(self):
        if not self.enabled:
            return
        with self._lock:
            for component in list(self._buffers):
                self._flush_component(component)

    def close(self):
        """Flush all buffers and write the manifest."""
        if not self.enabled or self._closed:
            self._closed = True
            return
        self.flush()
        manifest = {
            "components": [
                {
                    "name": c,
                    "file": f"{c}.csv",
                    "events": n,
                    "clock_offset_s": self._offsets.get(c, 0.0),
                }
                for c, n in sorted(self._counts.items())
            ],
            "rejected_events": self.rejected,
            "unknown_event_names": self.unknown_names,
            "io_errors": self.io_errors,
            "partial": self.io_errors > 0,
        }
        manifest.update(self.meta)
        try:
            with open(os.path.join(self.directory, "manifest.json"), "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
        except OSError:
            self.io_errors += 1
        self._closed = True

    def event_count(self, component: str | None = None) -> int:
        if component is None:
            return sum(self._counts.values())
        return self._counts.get(component, 0)


class NullTracer(Tracer):
    """Tracer with recording disabled; used when tracing is turned off."""

    def __init__(self):
        super().__init__(directory="", enabled=False)
