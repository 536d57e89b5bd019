"""Message mesh: named in-process queue/topic channels.

Queue channels deliver each message to exactly one consumer; topic channels
deliver each message to every subscriber. Ordering is per-producer FIFO.
Structured payloads are encoded with :func:`pack_message` (canonical JSON,
sorted keys).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from .core import PilotkitError

QUEUE = "queue"
TOPIC = "topic"

DEFAULT_CAPACITY = 65536


class ChannelClosed(PilotkitError):
    pass


class KindMismatch(PilotkitError):
    pass


def pack_message(obj) -> bytes:
    """Canonical binary encoding of a structured payload (JSON, sorted keys)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def unpack_message(payload: bytes):
    return json.loads(payload.decode())


class _Endpoint:
    """One consumer endpoint: a bounded FIFO buffer with blocking receive."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._dq: deque[bytes] = deque()
        self._cond = threading.Condition()
        self.closed = False

    def put(self, payload: bytes):
        with self._cond:
            while len(self._dq) >= self.capacity and not self.closed:
                self._cond.wait()
            if self.closed:
                raise ChannelClosed("endpoint closed")
            self._dq.append(payload)
            self._cond.notify_all()

    def receive(self, max_msgs: int = 1, timeout_s: float = 0.0) -> list[bytes]:
        if max_msgs < 1:
            raise ValueError("max_msgs must be >= 1")
        deadline = time.monotonic() + timeout_s
        out: list[bytes] = []
        with self._cond:
            while not self._dq and not self.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return out
                self._cond.wait(remaining)
            while self._dq and len(out) < max_msgs:
                out.append(self._dq.popleft())
            self._cond.notify_all()
        return out

    def close(self):
        with self._cond:
            self.closed = True
            self._cond.notify_all()


class Channel:
    """In-process channel of one kind, queue or topic."""

    def __init__(self, name: str, kind: str, capacity: int = DEFAULT_CAPACITY):
        if not name:
            raise ValueError("channel name must be nonempty")
        if kind not in (QUEUE, TOPIC):
            raise ValueError(f"bad channel kind {kind!r}")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self.closed = False
        self._lock = threading.Lock()
        self._queue_ep = _Endpoint(capacity)  # shared by all queue consumers
        self._subscribers: list[_Endpoint] = []

    def send(self, payloads: list[bytes]):
        if self.closed:
            raise ChannelClosed(f"channel {self.name!r} closed")
        for payload in payloads:
            if self.kind == QUEUE:
                self._queue_ep.put(payload)
            else:
                with self._lock:
                    subs = list(self._subscribers)
                for ep in subs:
                    ep.put(payload)

    def receive(self, max_msgs: int = 1, timeout_s: float = 0.0) -> list[bytes]:
        if self.closed:
            raise ChannelClosed(f"channel {self.name!r} closed")
        if self.kind != QUEUE:
            raise KindMismatch("receive() on a topic channel requires subscribe()")
        return self._queue_ep.receive(max_msgs, timeout_s)

    def subscribe(self) -> _Endpoint:
        if self.closed:
            raise ChannelClosed(f"channel {self.name!r} closed")
        if self.kind != TOPIC:
            raise KindMismatch("subscribe() is only valid on topic channels")
        ep = _Endpoint(self.capacity)
        with self._lock:
            self._subscribers.append(ep)
        return ep

    def pending(self) -> int:
        return len(self._queue_ep._dq)

    def close(self):
        self.closed = True
        self._queue_ep.close()
        with self._lock:
            for ep in self._subscribers:
                ep.close()


class MessageHub:
    """Registry of named channels; open is idempotent per (name, kind)."""

    def __init__(self):
        self._channels: dict[str, Channel] = {}
        self._lock = threading.Lock()

    def open(self, name: str, kind: str = QUEUE,
             capacity: int = DEFAULT_CAPACITY) -> Channel:
        with self._lock:
            existing = self._channels.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise KindMismatch(
                        f"channel {name!r} already open as {existing.kind}")
                return existing
            ch = Channel(name, kind, capacity)
            self._channels[name] = ch
            return ch

    def close(self):
        with self._lock:
            for ch in self._channels.values():
                ch.close()
            self._channels.clear()
