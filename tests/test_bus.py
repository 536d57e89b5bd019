"""Channel semantics: exactly-once queue delivery, per-producer FIFO, the
capacity bound, and hub reopen rules."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.bus import (
    Channel,
    ChannelClosed,
    MessageHub,
    pack_message,
    unpack_message,
)

# In-process is the only transport; the parameter keeps the test ids.
TRANSPORTS = ["in-process"]


@pytest.fixture
def hub():
    h = MessageHub()
    yield h
    h.close()


class TestPackMessage:
    def test_round_trip(self):
        msg = {"uid": "t0", "args": [1, 2], "nested": {"a": None}}
        assert unpack_message(pack_message(msg)) == msg

    def test_canonical_key_order(self):
        assert pack_message({"b": 1, "a": 2}) == pack_message({"a": 2, "b": 1})
        assert pack_message({"a": 2, "b": 1}) == b'{"a":2,"b":1}'


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestQueue:
    def test_fifo_single_consumer(self, hub, transport):
        ch = hub.open("q")
        msgs = [pack_message({"i": i}) for i in range(50)]
        ch.send(msgs)
        got = []
        while len(got) < 50:
            got.extend(ch.receive(max_msgs=50, timeout_s=2.0))
        assert got == msgs

    def test_exactly_once_two_consumers(self, hub, transport):
        ch = hub.open("q")
        n = 200
        consumers = [ch, ch]  # the queue endpoint is shared
        received = [[], []]

        def drain(idx):
            while True:
                batch = consumers[idx].receive(max_msgs=64, timeout_s=0.5)
                if not batch:
                    return
                received[idx].extend(unpack_message(m)["i"] for m in batch)

        threads = [threading.Thread(target=drain, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        ch.send([pack_message({"i": i}) for i in range(n)])
        for t in threads:
            t.join()
        assert sorted(received[0] + received[1]) == list(range(n))

    def test_receive_timeout_returns_empty(self, hub, transport):
        ch = hub.open("q")
        assert ch.receive(max_msgs=4, timeout_s=0.05) == []



class TestCapacity:
    """A full channel blocks its sender until a receive frees room or the
    channel closes."""

    def blocked_sender(self, ch):
        sent, errors = threading.Event(), []

        def send():
            try:
                ch.send([b"c"])
                sent.set()
            except ChannelClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=send, daemon=True)
        thread.start()
        assert not sent.wait(0.2)  # the third message finds no room
        return thread, sent, errors

    def test_receive_frees_room_for_a_blocked_sender(self):
        ch = Channel("q", capacity=2)
        ch.send([b"a", b"b"])
        thread, sent, errors = self.blocked_sender(ch)
        assert ch.receive(max_msgs=1) == [b"a"]
        thread.join(5.0)
        assert not thread.is_alive() and sent.is_set() and not errors
        assert ch.receive(max_msgs=2) == [b"b", b"c"]

    def test_close_unblocks_a_blocked_sender(self):
        ch = Channel("q", capacity=2)
        ch.send([b"a", b"b"])
        thread, sent, errors = self.blocked_sender(ch)
        ch.close()
        thread.join(5.0)
        assert not thread.is_alive() and not sent.is_set()
        assert len(errors) == 1


class TestHub:
    def test_open_idempotent(self, hub):
        a = hub.open("x")
        b = hub.open("x")
        assert a is b

    def test_closed_channel_raises(self, hub):
        ch = hub.open("x")
        hub.close()
        with pytest.raises(ChannelClosed):
            ch.send([b"m"])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=0, max_size=100),
       st.integers(1, 7))
def test_inproc_queue_conserves_messages(values, batch):
    ch = Channel("q")
    ch.send([pack_message(v) for v in values])
    assert ch.pending() == len(values)
    out = []
    while True:
        got = ch.receive(max_msgs=batch, timeout_s=0)
        if not got:
            break
        out.extend(unpack_message(m) for m in got)
    assert out == values
