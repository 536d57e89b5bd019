"""Samples the speed of the CPU the benchmark's main thread runs on.

On a shared host a virtual CPU is not always equally fast: its speed can
drop to between a half and two thirds for seconds at a time (most likely
another tenant on the same physical core), and each virtual CPU changes
state on its own. A wall-clock
rate measured on such a CPU moves with the host, not with the program.

``HostSpeed`` pins the calling thread, and the threads it starts from then
on, to the CPU it is on, and starts a sampler thread on the same CPU. Every
``INTERVAL_S`` the sampler runs a fixed pure-Python loop and records how
much thread CPU time it took. ``reference_s(t0, t1)`` turns a wall-clock
interval into reference seconds: the wall time multiplied by the mean speed
of the CPU in that interval, relative to a CPU on which the loop takes
``REFERENCE_LOOP_S``. A rate over reference seconds is what the program
would reach on a CPU of constant reference speed.

The sampler shares the GIL with the program, so it costs the program a few
percent of its time, the same in every run.

Set-up time moves with the host even more: on a busy host the file system,
thread start and timer costs of a pilot set-up grow by up to ten times, for
seconds to minutes. ``setup_speed`` times a reference set-up, a fixed mix of
those operations that never changes with the program, and gives the host's
speed for set-up work relative to a host on which it takes
``REFERENCE_SETUP_S``.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

INTERVAL_S = 0.05

# Thread CPU time of one calibration loop on the reference CPU.
REFERENCE_LOOP_S = 0.00065

# Wall time of one reference set-up on the reference host.
REFERENCE_SETUP_S = 0.005


def calibration_loop(n: int = 400) -> int:
    """A fixed mix of what a Python event simulator does: a heap of
    events, dict access, string formatting and parsing."""
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = f"task.{i & 63:06d}"
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 32:
            ts, uid = heapq.heappop(heap)
            line = f"{ts},{uid},{key},exec_start"
            fields = line.split(",")
            total += int(fields[0]) + len(fields[2])
    return total


class HostSpeed:
    """Context manager: pins the current thread and samples its CPU."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.loops: list[float] = []  # thread CPU seconds of each sample
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostSpeed":
        self._pin = pinned()
        self._pin.__enter__()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._pin.__exit__(*exc)
        return False

    def _sample(self):
        calibration_loop()  # warm up
        while True:
            c0 = time.thread_time()
            calibration_loop()
            self.loops.append(time.thread_time() - c0)
            self.times.append(time.perf_counter())
            if self._stop.wait(self.interval_s):
                return

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]: its length
        times the mean relative speed of the samples taken in it, or of
        the nearest samples when it holds none."""
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        if lo >= hi:  # every interval has a sample on one side
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        speeds = [REFERENCE_LOOP_S / s for s in self.loops[lo:hi]]
        return (t1 - t0) * sum(speeds) / len(speeds)


def reference_setup(root: str, tag: str) -> float:
    """Wall seconds of a fixed mix of what a pilot set-up does: for each of
    three sessions a directory tree with two small JSON files and an
    agent-like thread that polls with 1 ms sleeps, started and seen ready;
    then some Python work. The tree and threads go away untimed."""
    t0 = time.perf_counter()
    top = os.path.join(root, f"reference-setup-{tag}")
    stop = threading.Event()
    threads = []

    def agent(ready: threading.Event):
        ready.set()
        while not stop.is_set():
            time.sleep(0.001)

    for part in ("sim", "local", "raptor"):
        traces = os.path.join(top, part, "pilots", "p0", "traces")
        os.makedirs(traces)
        for name in ("session.json", "manifest.json"):
            with open(os.path.join(traces, name), "w") as fh:
                json.dump({"part": part, "tag": tag, "name": name}, fh)
        ready = threading.Event()
        t = threading.Thread(target=agent, args=(ready,), daemon=True)
        t.start()
        threads.append(t)
        ready.wait()
    calibration_loop()
    calibration_loop()
    elapsed = time.perf_counter() - t0
    stop.set()
    for t in threads:
        t.join()
    shutil.rmtree(top)
    return elapsed


def setup_speed(root: str, tag: str, reps: int = 3) -> float:
    """The host's speed for set-up work relative to the reference host,
    from the median of ``reps`` reference set-ups."""
    return REFERENCE_SETUP_S / statistics.median(
        reference_setup(root, f"{tag}.{k}") for k in range(reps))


@contextmanager
def pinned():
    """Pins the calling thread, and the threads it starts meanwhile, to the
    CPU it is on; puts its affinity back on exit. Threads that hand work to
    each other then do not wait for a second virtual CPU to be scheduled."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    here = _current_cpu()
    os.sched_setaffinity(0, {here} if here in before else {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _current_cpu() -> int:
    """The CPU this thread last ran on, from /proc; -1 if unknown."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1
