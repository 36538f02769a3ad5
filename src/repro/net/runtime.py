""":class:`LiveRuntime` — a wall-clock driver for the protocol engine.

The whole protocol layer is written as generator processes over the
discrete-event :class:`~repro.sim.engine.Environment`.  Instead of
porting that code to asyncio, a live endpoint keeps a *private*
environment and advances it in real time.  The driver is not a task:
it is one synchronous *pass* run as an event-loop callback, which

1. advances the environment to ``sim_target = elapsed_wall x
   time_scale`` (firing due timers: retries, cache expiry, freeze
   pings), so whatever arrived while the runtime was idle is handled
   at its arrival time,
2. runs callbacks handed in from other tasks (:meth:`call_soon`),
3. delivers queued inbound messages (``handle_message`` executes the
   same protocol code the simulator runs) and processes the
   zero-delay events they produced,
4. flushes the transport, so everything the pass sent hits the wire
   before the loop moves on.

A pass is scheduled two ways.  New work — :meth:`deliver`,
:meth:`call_soon`, a buffered send — asks for one with
``loop.call_soon``; a pending flag folds any number of requests into
one pass, and a request made while a pass runs is dropped because
that pass loops until its inbox is empty and flushes at its end.
Timers use a single ``loop.call_at`` handle at the wall time of
``env.peek()``, re-armed only when the next due time moves earlier.
An idle runtime therefore costs nothing: no polling heartbeat.

``time_scale`` compresses simulated seconds into wall time, so a test
cell with multi-second protocol timeouts settles in tens of
milliseconds while real sockets stay in the loop.  One runtime hosts
one or more nodes on one :class:`~repro.net.tcp.SocketTransport`; a
pass is the only place environment time advances, so protocol code
never races.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..sim.engine import Environment
from ..sim.trace import Tracer
from .session import DEFAULT_LIFETIME
from .tcp import _LINK_QUEUE_LIMIT, LiveConnectivity, SocketTransport

__all__ = ["LiveRuntime"]


class LiveRuntime:
    """Drives one endpoint's private environment in wall-clock time."""

    def __init__(
        self,
        secret: bytes,
        time_scale: float = 1.0,
        lifetime: float = DEFAULT_LIFETIME,
        connectivity: Optional[LiveConnectivity] = None,
        keep_log: bool = False,
        codec: str = "json",
        accept_binary: bool = True,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=keep_log)
        self.time_scale = float(time_scale)
        self.transport = SocketTransport(
            self,
            secret,
            lifetime=lifetime,
            connectivity=connectivity,
            codec=codec,
            accept_binary=accept_binary,
        )
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox: Deque[Tuple[str, str, Any]] = deque()
        self._calls: Deque[Callable[[], None]] = deque()
        # Loop time at which the environment's clock read zero.
        self._origin = 0.0
        self._scheduled = False
        self._in_pass = False
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_due = math.inf
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the frame server, start driving; returns the bound port."""
        self.loop = asyncio.get_running_loop()
        bound = await self.transport.start_server(host, port)
        # Anchor wall time so sim time resumes from env.now (always 0 in
        # practice, but harmless to honour).
        self._origin = self.loop.time() - self.env.now / self.time_scale
        self.wake()
        return bound

    async def stop(self) -> None:
        self._stopping = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self.transport.close()

    @property
    def port(self) -> Optional[int]:
        return self.transport.port

    # -- wiring --------------------------------------------------------------
    def register(self, node: Any) -> Any:
        return self.transport.register(node)

    def set_peers(self, directory: Dict[str, Tuple[str, int]]) -> None:
        self.transport.set_peers(directory)

    # -- cross-task entry points ----------------------------------------------
    def deliver(self, src: str, dst: str, message: Any) -> None:
        """Queue an inbound message for asynchronous delivery.

        The inbox holds at most as many messages as a link queue.  A
        socket reader that fills it (one read can carry thousands of
        messages) runs a pass on the spot to drain it, so nothing a
        socket delivered is lost; only a pass overfilling its own inbox
        (local loopback), or a runtime with no pass to run, sheds the
        message and counts it as a drop.
        """
        if len(self._inbox) >= _LINK_QUEUE_LIMIT:
            if self._in_pass or self._stopping or self.loop is None:
                self.transport._count_drop(dst, "inbox full")
                return
            try:
                self._pass()
            except Exception as exc:
                # As for a pass run by the loop: report it, keep reading.
                self.loop.call_exception_handler(
                    {"message": "exception in a driver pass", "exception": exc}
                )
        self._inbox.append((src, dst, message))
        self.wake()

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` inside the next driver pass."""
        self._calls.append(fn)
        self.wake()

    def wake(self) -> None:
        """Ask for a driver pass on the next loop iteration."""
        if self._scheduled or self._in_pass or self._stopping or self.loop is None:
            return
        self._scheduled = True
        self.loop.call_soon(self._on_wake)

    def when(self, event: Any) -> "asyncio.Future[Any]":
        """An asyncio future resolved when a sim event is processed.

        Works for any :class:`~repro.sim.engine.Event`, including
        :class:`~repro.sim.engine.Process` completion.  The callback
        runs inside a driver pass; the future resolves with the
        event's value (or its exception, if the event failed).
        """
        assert self.loop is not None, "runtime not started"
        future: "asyncio.Future[Any]" = self.loop.create_future()

        def _resolve(ev: Any) -> None:
            if future.done():
                return
            if ev.ok:
                future.set_result(ev.value)
            else:
                future.set_exception(ev.value)

        self.call_soon(lambda: event.add_callback(_resolve))
        return future

    def run_process(self, generator: Any, name: Optional[str] = None) -> "asyncio.Future[Any]":
        """Start a protocol generator in this runtime; await its result."""
        assert self.loop is not None, "runtime not started"
        future: "asyncio.Future[Any]" = self.loop.create_future()

        def _start() -> None:
            process = self.env.process(generator, name=name or "live-call")

            def _resolve(ev: Any) -> None:
                if future.done():
                    return
                if ev.ok:
                    future.set_result(ev.value)
                else:
                    future.set_exception(ev.value)

            process.add_callback(_resolve)

        self.call_soon(_start)
        return future

    async def wait_until(self, sim_target: float) -> None:
        """Block until this runtime's environment reaches ``sim_target``."""
        if self.env.now >= sim_target:
            return

        def _sleep() -> Any:
            yield self.env.timeout(max(0.0, sim_target - self.env.now))

        await self.run_process(_sleep(), name="wait-until")

    # -- the driver ------------------------------------------------------------
    def _wall(self, sim_time: float) -> float:
        """The loop time at which the environment reaches ``sim_time``."""
        return self._origin + sim_time / self.time_scale

    def _on_wake(self) -> None:
        self._scheduled = False
        self._pass()

    def _on_timer(self, due: float) -> None:
        self._timer = None
        self._timer_due = math.inf
        self._pass(due)

    def _pass(self, floor: float = 0.0) -> None:
        """One driver pass; ``floor`` is a sim time the pass must reach
        (the due time of the timer that fired it), so float rounding
        between loop and sim time can never leave a due timer unfired."""
        if self._stopping:
            return
        assert self.loop is not None
        env = self.env
        self._in_pass = True
        try:
            while True:
                target = (self.loop.time() - self._origin) * self.time_scale
                # ``self.env.run``, not a bound local: instrumentation
                # may patch ``run`` on the environment instance.
                self.env.run(until=max(env.now, floor, target))
                if self._calls or self._inbox:
                    while self._calls:
                        self._calls.popleft()()
                    deliver = self.transport._deliver_now
                    while self._inbox:
                        deliver(*self._inbox.popleft())
                    # run(until=now) processes the zero-delay events the
                    # calls and deliveries above scheduled at this instant.
                    self.env.run(until=env.now)
                # The explicit flush bound for the coalescing send path:
                # everything this pass produced goes to the wire before
                # the loop runs anything else, so batching never adds
                # latency beyond the pass that produced the messages.
                self.transport.flush()
                if not (self._calls or self._inbox):
                    break
        finally:
            self._in_pass = False
            if self._calls or self._inbox:
                # Only after an exception: the rest still gets a pass.
                self.wake()
            self._arm(env.peek())

    def _arm(self, due: float) -> None:
        """Keep the one loop timer at the next sim-due time.

        Re-armed only when ``due`` is earlier than what is armed: a
        later (or dead, elided) entry just costs one early pass, which
        re-arms for whatever is due then.
        """
        if due >= self._timer_due:
            return
        assert self.loop is not None
        if self._timer is not None:
            self._timer.cancel()
        self._timer_due = due
        self._timer = self.loop.call_at(self._wall(due), self._on_timer, due)
