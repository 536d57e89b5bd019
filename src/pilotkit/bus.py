"""Message mesh: named in-process queue channels.

A channel delivers each message to exactly one consumer. Ordering is
per-producer FIFO. Structured payloads are encoded with
:func:`pack_message` (canonical JSON, sorted keys).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from .core import PilotkitError

DEFAULT_CAPACITY = 65536


class ChannelClosed(PilotkitError):
    pass


def pack_message(obj) -> bytes:
    """Canonical binary encoding of a structured payload (JSON, sorted keys)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def unpack_message(payload: bytes):
    return json.loads(payload.decode())


class _Endpoint:
    """A channel's buffer: bounded FIFO with blocking receive."""

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
    """In-process queue channel; its consumers share one endpoint."""

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if not name:
            raise ValueError("channel name must be nonempty")
        self.name = name
        self.closed = False
        self._ep = _Endpoint(capacity)

    def send(self, payloads: list[bytes]):
        if self.closed:
            raise ChannelClosed(f"channel {self.name!r} closed")
        for payload in payloads:
            self._ep.put(payload)

    def receive(self, max_msgs: int = 1, timeout_s: float = 0.0) -> list[bytes]:
        if self.closed:
            raise ChannelClosed(f"channel {self.name!r} closed")
        return self._ep.receive(max_msgs, timeout_s)

    def pending(self) -> int:
        return len(self._ep._dq)

    def close(self):
        self.closed = True
        self._ep.close()


class MessageHub:
    """Registry of named channels; open is idempotent per name."""

    def __init__(self):
        self._channels: dict[str, Channel] = {}
        self._lock = threading.Lock()

    def open(self, name: str, capacity: int = DEFAULT_CAPACITY) -> Channel:
        with self._lock:
            ch = self._channels.get(name)
            if ch is None:
                ch = self._channels[name] = Channel(name, capacity)
            return ch

    def close(self):
        with self._lock:
            for ch in self._channels.values():
                ch.close()
            self._channels.clear()
