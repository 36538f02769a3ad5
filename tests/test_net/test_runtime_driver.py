"""The live driver: one pass per loop callback, no polling, bounded inbox.

Pins what makes :class:`LiveRuntime` cheap per request: a steady read
load creates no asyncio tasks and queues no segment behind a writer
task, an idle runtime wakes only for its own timers, work that arrives
after idling is handled at its arrival time, a failing pass does not
wedge the driver, and overload sheds inbound messages instead of
growing memory.
"""

from __future__ import annotations

import asyncio

from repro.core.client import UserClient
from repro.core.messages import Ping, Pong
from repro.core.policy import AccessPolicy
from repro.net import tcp
from repro.net.cell import LiveCell
from repro.net.codec_bin import BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.sim.node import Node


class Recorder(Node):
    def __init__(self, address: str):
        super().__init__(address)
        self.received = []

    def handle_message(self, src, message):
        self.received.append((self.env.now, src, message))


class Sleeper(Node):
    """Runs one timer-only process: no traffic at all."""

    def __init__(self, address: str, delay: float):
        super().__init__(address)
        self.delay = delay
        self.fired_at = None

    def attach(self, network):
        super().attach(network)
        self.spawn(self._sleep())

    def _sleep(self):
        yield self.env.timeout(self.delay)
        self.fired_at = self.env.now


async def _until(predicate, limit: float = 5.0) -> None:
    for _ in range(int(limit / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition not reached")


def test_read_burst_creates_no_tasks_and_queues_no_segments(monkeypatch):
    queued = []
    enqueue = tcp._BinLink.enqueue
    monkeypatch.setattr(
        tcp._BinLink, "enqueue", lambda link, batch: queued.append(batch) or enqueue(link, batch)
    )

    async def scenario():
        loop = asyncio.get_running_loop()
        created = []
        loop.set_task_factory(
            lambda loop, coro, **kw: created.append(coro) or asyncio.Task(coro, loop=loop, **kw)
        )
        cell = LiveCell(n_managers=1, n_hosts=1, codec="binary",
                        policy=AccessPolicy(check_quorum=1, expiry_bound=3600.0))
        cell.seed_grant("app", "u")
        await cell.start()
        client_runtime = LiveRuntime(cell.secret, codec="binary")
        client = UserClient("c0", "u")
        client_runtime.register(client)
        await client_runtime.start()
        client_runtime.set_peers(cell.directory)
        host = cell.hosts[0].address
        try:
            # The first read connects, negotiates and fills the cache.
            assert (await client_runtime.run_process(client.invoke(host, "app"))).allowed
            tasks_before = len(asyncio.all_tasks())
            created.clear()
            queued.clear()
            results = [
                await client_runtime.run_process(client.invoke(host, "app"))
                for _ in range(500)
            ]
            return results, tasks_before, len(asyncio.all_tasks()), len(created), len(queued)
        finally:
            await client_runtime.stop()
            await cell.stop()

    results, tasks_before, tasks_after, created, queued_batches = asyncio.run(scenario())
    assert all(result.allowed for result in results)
    assert tasks_after == tasks_before
    assert created == 0
    # Every segment of the burst went straight to its open socket.
    assert queued_batches == 0


def test_idle_runtime_wakes_only_for_its_timer():
    async def scenario():
        runtime = LiveRuntime(b"secret", time_scale=1.0)
        sleeper = Sleeper("alpha", delay=0.2)
        runtime.register(sleeper)
        passes = []
        run_pass = runtime._pass
        runtime._pass = lambda floor=0.0: passes.append(floor) or run_pass(floor)
        await runtime.start()
        try:
            await asyncio.sleep(0.3)
            return sleeper.fired_at, passes
        finally:
            await runtime.stop()

    fired_at, passes = asyncio.run(scenario())
    assert fired_at is not None and 0.2 <= fired_at < 0.25
    # The start pass, then the pass its loop timer runs, which fires
    # it: no polling heartbeat in between.
    assert len(passes) == 2


def test_arrival_after_idle_is_handled_at_arrival_time():
    scale = 10.0

    async def scenario():
        loop = asyncio.get_running_loop()
        runtime = LiveRuntime(b"secret", time_scale=scale)
        recorder = Recorder("alpha")
        runtime.register(recorder)
        await runtime.start()
        began = loop.time()
        try:
            await asyncio.sleep(0.2)
            sent = loop.time()
            runtime.deliver("beta", "alpha", Ping(nonce=1, sender="beta"))
            await _until(lambda: recorder.received)
            return recorder.received[0][0], sent - began
        finally:
            await runtime.stop()

    handled_now, elapsed = asyncio.run(scenario())
    assert abs(handled_now - elapsed * scale) <= 0.010 * scale


def test_exception_in_a_pass_does_not_wedge_the_driver():
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda loop, context: errors.append(context["exception"]))
        runtime = LiveRuntime(b"secret", time_scale=10.0)
        recorder = Recorder("alpha")
        runtime.register(recorder)
        await runtime.start()
        try:
            runtime.call_soon(lambda: 1 / 0)
            await _until(lambda: errors)
            scheduled = runtime._scheduled
            runtime.deliver("beta", "alpha", Ping(nonce=2, sender="beta"))
            await _until(lambda: recorder.received)
            return errors, scheduled, recorder.received
        finally:
            await runtime.stop()

    errors, scheduled, received = asyncio.run(scenario())
    assert [type(error) for error in errors] == [ZeroDivisionError]
    assert scheduled is False
    assert [message for _now, _src, message in received] == [Ping(nonce=2, sender="beta")]


def test_pass_overfilling_its_inbox_sheds_and_counts():
    extra = 5

    async def scenario():
        runtime = LiveRuntime(b"secret", time_scale=10.0)
        recorder = Recorder("alpha")
        runtime.register(recorder)
        await runtime.start()

        def flood():
            # Inside a pass nothing drains the inbox until the pass
            # gets to it: the overflow is shed.
            for nonce in range(tcp._LINK_QUEUE_LIMIT + extra):
                runtime.deliver("beta", "alpha", Ping(nonce=nonce, sender="beta"))

        try:
            runtime.call_soon(flood)
            await _until(lambda: len(recorder.received) >= tcp._LINK_QUEUE_LIMIT)
            await asyncio.sleep(0.02)
            return (
                runtime.transport.messages_dropped,
                [message.nonce for _now, _src, message in recorder.received],
            )
        finally:
            await runtime.stop()

    dropped, nonces = asyncio.run(scenario())
    assert dropped == extra
    assert nonces == list(range(tcp._LINK_QUEUE_LIMIT))


class Responder(Node):
    def handle_message(self, src, message):
        self.send(src, Pong(nonce=message.nonce, sender=self.address))


def test_socket_burst_past_the_inbox_bound_loses_nothing():
    """A reader that outruns the pass drains the inbox instead of dropping.

    One read can hand the runtime many thousands of messages before a
    pass runs; the bound sheds only what a pass overfills itself.
    """
    burst = 20_000
    sinks = 8

    async def scenario():
        left = LiveRuntime(b"secret", codec="binary")
        right = LiveRuntime(b"secret", codec="binary")
        pinger = Recorder("pinger")
        left.register(pinger)
        for i in range(sinks):
            right.register(Responder(f"sink{i}"))
        directory = {"pinger": ("127.0.0.1", await left.start())}
        right_port = await right.start()
        directory.update({f"sink{i}": ("127.0.0.1", right_port) for i in range(sinks)})
        left.set_peers(directory)
        right.set_peers(directory)
        try:

            def fire():
                for i in range(burst):
                    pinger.send(f"sink{i % sinks}", Ping(nonce=i, sender="pinger"))

            left.call_soon(fire)
            await _until(lambda: len(pinger.received) >= burst, limit=30.0)
            return (
                left.transport.messages_dropped,
                right.transport.messages_dropped,
                sorted(message.nonce for _now, _src, message in pinger.received),
            )
        finally:
            await left.stop()
            await right.stop()

    left_dropped, right_dropped, nonces = asyncio.run(scenario())
    assert (left_dropped, right_dropped) == (0, 0)
    assert nonces == list(range(burst))


class _FakeSocket:
    def __init__(self, buffered: int, high: int):
        self.buffered = buffered
        self.high = high

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self):
        return (self.high // 4, self.high)


class _FakeWriter:
    def __init__(self, buffered: int = 0, high: int = 65536, fail: bool = False):
        self.transport = _FakeSocket(buffered, high)
        self.frames = []
        self.closed = False
        self.fail = fail

    def write(self, frame: bytes) -> None:
        self.frames.append(frame)
        if self.fail:
            # What a selector transport does when send() fails.
            self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def test_direct_write_falls_back_to_the_queue():
    batch = [("alpha", "beta", Ping(nonce=3, sender="alpha"))]

    async def scenario():
        runtime = LiveRuntime(b"secret", codec="binary")
        runtime.register(Recorder("alpha"))
        link = tcp._BinLink(runtime.transport, "127.0.0.1", 1)
        outcomes = {"before handshake": link.write_now(batch)}
        link.encoder = BinaryEncoder()
        link.writer = _FakeWriter(buffered=70000, high=65536)
        outcomes["above high water"] = link.write_now(batch)
        link.writer = _FakeWriter()
        link.queue.put_nowait(batch)
        outcomes["queue not empty"] = link.write_now(batch)
        link.queue.get_nowait()
        outcomes["open and idle"] = link.write_now(batch)
        writer = link.writer
        await link.close()
        return outcomes, writer.frames, runtime.transport.wire["segments_sent"]

    outcomes, frames, segments = asyncio.run(scenario())
    assert outcomes == {
        "before handshake": False,
        "above high water": False,
        "queue not empty": False,
        "open and idle": True,
    }
    assert len(frames) == 1 and segments == 1


def test_direct_write_to_a_failed_connection_counts_the_batch():
    batch = [("alpha", "beta", Ping(nonce=n, sender="alpha")) for n in range(3)]

    async def scenario():
        runtime = LiveRuntime(b"secret", codec="binary")
        runtime.register(Recorder("alpha"))
        link = tcp._BinLink(runtime.transport, "127.0.0.1", 1)
        link.encoder = BinaryEncoder()
        link.writer = _FakeWriter(fail=True)
        handled = link.write_now(batch)
        # The dead connection is not written to again: the next batch
        # goes to the queue, whose writer task reconnects.
        retried = link.write_now(batch)
        await link.close()
        transport = runtime.transport
        return handled, retried, transport.messages_dropped, transport.wire["segments_sent"]

    handled, retried, dropped, segments = asyncio.run(scenario())
    assert (handled, retried) == (True, False)
    assert dropped == len(batch)
    assert segments == 0
