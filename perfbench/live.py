"""The live workloads: a localhost cell under closed-loop reads and an open-loop writer.

One process, one asyncio loop.  A :class:`~repro.net.cell.LiveCell`
(3 managers, 2 hosts, binary codec, C = 2) and a client
:class:`~repro.net.runtime.LiveRuntime` holding 2
:class:`~repro.core.client.UserClient` nodes share the loop and talk
over real loopback TCP; the client runtime keeps one socket per host.

* Readers: 2 closed-loop clients, client ``i`` on host ``i``.  On
  ``live_hot`` each reuses one seeded user, so after the warm-up
  request every check is a cache hit.  On ``live_churn`` each draws
  users uniformly from 20,000 seeded grants with its own seeded RNG,
  so nearly every check misses and runs a round of signed queries.
* Writer: open loop at :data:`WRITER_RATE` cycles per
  second.  Cycle ``k`` uses reserved user ``w<k>`` (never read, never
  reused): ``add`` through manager ``k mod 3`` (timed from its due
  time to the quorum ack), probe both hosts (must be allowed), then at
  the half-cycle ``revoke`` (timed the same way), wait until
  revocation forwarding has flushed both hosts' caches, and probe both
  hosts again (must be denied: the flushed hosts query afresh, and any
  C = 2 answers include one of the M - C + 1 = 2 managers that hold
  the revocation).

Wall-clock figures are reported at the reference CPU speed of
``speed.py``.  Its probes run on the loop that drives the cell, so a
read or write a probe overlapped is left out of the latency quantiles
(``bench.cpu.probe_overlap_share`` reports the share of reads left
out); it still counts towards ``rps``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import UserClient
from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.net.cell import LiveCell
from repro.net.runtime import LiveRuntime
from repro.sim.trace import TraceKind

from . import report
from .layers import LayerCounts, instrument_protocol, instrument_runtime, instrument_wire
from .spans import Instrumenter, SpanRecorder
from .speed import SpeedMeter

__all__ = ["LiveConfig", "LIVE_HOT", "LIVE_CHURN", "run_live"]

APP = "app"
SECRET = b"perfbench-cell"
N_MANAGERS = 3
N_HOSTS = 2
N_CLIENTS = 2
#: Longest a read, a quorum ack or a cache flush may take before it
#: counts as failed.
WAIT_LIMIT = 5.0
#: Writer cycles per second.
WRITER_RATE = 5.0


def live_policy() -> AccessPolicy:
    """C = 2 of M = 3; Te of an hour, far beyond any run, so cached
    grants never expire while measured."""
    return AccessPolicy(check_quorum=2, expiry_bound=3600.0)


@dataclass(frozen=True)
class LiveConfig:
    name: str
    read_users: int        # seeded users the readers draw from
    hot: bool              # each client reuses one user
    setup_repeats: int     # set-ups per run; setup_s is their median


LIVE_HOT = LiveConfig("live_hot", read_users=N_CLIENTS, hot=True, setup_repeats=9)
LIVE_CHURN = LiveConfig("live_churn", read_users=20_000, hot=False, setup_repeats=5)


@dataclass
class Deployment:
    cell: LiveCell
    client_runtime: LiveRuntime
    clients: List[UserClient]
    seed_seconds: float
    grants: int
    flush_waiters: Dict[Any, "asyncio.Future[None]"] = field(default_factory=dict)

    @property
    def runtimes(self) -> List[LiveRuntime]:
        return list(self.cell.runtimes.values()) + [self.client_runtime]

    async def stop(self) -> None:
        await self.client_runtime.stop()
        await self.cell.stop()


@dataclass
class Phase:
    """What one measured window produced."""

    began: float = 0.0
    seconds: float = 0.0        # the whole window, writer's last cycle included
    read_seconds: float = 0.0   # until the last reader stopped
    cpu_seconds: float = 0.0
    reads: int = 0
    reads_failed: int = 0
    read_spans: List[Tuple[float, float]] = field(default_factory=list)   # (began, ended)
    write_spans: List[Tuple[float, float]] = field(default_factory=list)  # (due, acked)
    writer_lag_ms: List[float] = field(default_factory=list)
    writes: int = 0
    revokes: int = 0
    writes_failed: int = 0
    grant_probes: int = 0
    revoke_probes: int = 0
    probes_failed: int = 0
    grant_probes_refused: int = 0
    failures: List[str] = field(default_factory=list)
    speed: SpeedMeter = field(default_factory=SpeedMeter)

    def unprobed_ms(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Durations of the ``spans`` no speed probe overlapped, in ms."""
        overlaps = self.speed.overlaps_probe
        return [(end - start) * 1000.0 for start, end in spans if not overlaps(start, end)]

    @property
    def probe_overlap_share(self) -> float:
        return 1.0 - report.ratio(len(self.unprobed_ms(self.read_spans)), len(self.read_spans))

    @property
    def probes(self) -> int:
        return self.grant_probes + self.revoke_probes

    @property
    def attempted(self) -> int:
        return self.reads + self.probes + self.writes

    @property
    def failed(self) -> int:
        return self.reads_failed + self.probes_failed + self.writes_failed


def read_user(index: int) -> str:
    return f"u{index}"


async def build(config: LiveConfig) -> Deployment:
    """Construct, seed and start the cell and the client runtime."""
    cell = LiveCell(n_managers=N_MANAGERS, n_hosts=N_HOSTS, applications=(APP,),
                    policy=live_policy(), secret=SECRET, codec="binary")
    began = time.perf_counter()
    for index in range(config.read_users):
        cell.seed_grant(APP, read_user(index))
    seed_seconds = time.perf_counter() - began
    await cell.start()
    client_runtime = LiveRuntime(SECRET, codec="binary")
    clients = []
    for index in range(N_CLIENTS):
        client = UserClient(f"c{index}", read_user(index))
        client_runtime.register(client)
        clients.append(client)
    await client_runtime.start()
    client_runtime.set_peers(cell.directory)
    deployment = Deployment(cell, client_runtime, clients, seed_seconds, config.read_users)
    for host in cell.hosts:
        def on_flush(record: Any, address: str = host.address) -> None:
            waiter = deployment.flush_waiters.pop((address, record.data["user"]), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        cell.runtime_of(host.address).tracer.subscribe([TraceKind.CACHE_FLUSHED], on_flush)
    # The first request per client opens the client's connections and
    # negotiates the codec (and, on live_hot, fills the cache).
    for index, client in enumerate(clients):
        result = await invoke(deployment, index)
        if not result.allowed:
            raise RuntimeError(f"warm-up read by {client.user_id} failed: {result.reason}")
    return deployment


def invoke(deployment: Deployment, index: int) -> "asyncio.Future[Any]":
    client = deployment.clients[index]
    host = deployment.cell.hosts[index % N_HOSTS].address
    return deployment.client_runtime.run_process(client.invoke(host, APP, index))


async def setup(config: LiveConfig) -> tuple:
    """Build ``config.setup_repeats`` times; keep the last deployment.

    Returns ``(deployment, set-up seconds of each build at the reference
    CPU speed)``.  Each build starts from a collected heap so earlier
    builds' garbage is not charged to it.
    """
    times = []
    deployment: Optional[Deployment] = None
    for _ in range(config.setup_repeats):
        if deployment is not None:
            await deployment.stop()
            deployment = None
        gc.collect()
        meter = SpeedMeter()
        meter.sample()
        began = time.perf_counter()
        deployment = await build(config)
        elapsed = time.perf_counter() - began
        meter.sample()
        times.append(meter.duration(elapsed))
    assert deployment is not None
    gc.collect()
    return deployment, times


async def reader(deployment: Deployment, config: LiveConfig, index: int,
                 rng: random.Random, deadline: float, phase: Phase,
                 recorder: Optional[SpanRecorder]) -> None:
    client = deployment.clients[index]
    clock = time.perf_counter
    while clock() < deadline:
        if not config.hot:
            client.user_id = read_user(rng.randrange(config.read_users))
        if recorder is not None:
            recorder.new_request(client.user_id)
        began = clock()
        result = await invoke(deployment, index)
        phase.read_spans.append((began, clock()))
        phase.reads += 1
        if not result.allowed:
            phase.reads_failed += 1
            kind = "timed out" if result.timed_out else f"refused ({result.reason})"
            phase.failures.append(f"read by authorized {client.user_id} {kind}")
    phase.read_seconds = max(phase.read_seconds, clock() - phase.began)


async def write(deployment: Deployment, k: int, user: str, grant: bool) -> Optional[str]:
    """Issue one update through a manager and wait for its quorum ack."""
    cell = deployment.cell
    address = cell.manager_addrs[k % N_MANAGERS]
    manager = cell.managers[k % N_MANAGERS]
    operation = manager.add if grant else manager.revoke
    handle = await cell.call(address, lambda: operation(APP, user, Right.USE))
    try:
        await asyncio.wait_for(cell.runtime_of(address).when(handle.quorum), WAIT_LIMIT)
    except asyncio.TimeoutError:
        return f"{'add' if grant else 'revoke'} of {user} reached no quorum"
    return None


async def probe(deployment: Deployment, user: str, expect: bool, phase: Phase) -> None:
    decisions = await asyncio.gather(
        *(deployment.cell.check(index, APP, user) for index in range(N_HOSTS))
    )
    for index, decision in enumerate(decisions):
        if expect:
            phase.grant_probes += 1
        else:
            phase.revoke_probes += 1
        if decision.allowed != expect:
            phase.probes_failed += 1
            phase.grant_probes_refused += 1 if expect else 0
            phase.failures.append(
                f"{'post-grant' if expect else 'post-revoke'} probe of {user} on "
                f"h{index} was {'allowed' if decision.allowed else 'denied'} "
                f"({decision.reason})"
            )


async def writer_cycle(deployment: Deployment, k: int, due: float, half: float,
                       phase: Phase, recorder: Optional[SpanRecorder]) -> None:
    user = f"w{k}"
    loop_clock = time.perf_counter
    for grant, due_at in ((True, due), (False, due + half)):
        delay = due_at - loop_clock()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.writer_lag_ms.append(max(0.0, loop_clock() - due_at) * 1000.0)
        if recorder is not None:
            recorder.bind(user, f"{'add' if grant else 'revoke'}:{user}")
        if not grant:
            loop = asyncio.get_running_loop()
            flushed = [loop.create_future() for _ in deployment.cell.hosts]
            for host, waiter in zip(deployment.cell.hosts, flushed):
                deployment.flush_waiters[(host.address, user)] = waiter
        error = await write(deployment, k, user, grant)
        phase.writes += 1
        phase.revokes += 0 if grant else 1
        if error is not None:
            phase.writes_failed += 1
            phase.failures.append(error)
            return
        phase.write_spans.append((due_at, loop_clock()))
        if not grant:
            try:
                await asyncio.wait_for(asyncio.gather(*flushed), WAIT_LIMIT)
            except asyncio.TimeoutError:
                phase.probes_failed += 1
                phase.failures.append(f"revocation of {user} never flushed a host cache")
                return
        await probe(deployment, user, grant, phase)


async def writer(deployment: Deployment, first_cycle: int, deadline: float,
                 phase: Phase, recorder: Optional[SpanRecorder]) -> int:
    """Open loop: cycle ``k`` is due at ``start + k / WRITER_RATE``; returns cycles run."""
    start = time.perf_counter()
    k = 0
    while start + k / WRITER_RATE < deadline:
        await writer_cycle(deployment, first_cycle + k, start + k / WRITER_RATE,
                           0.5 / WRITER_RATE, phase, recorder)
        k += 1
    return k


async def measure(deployment: Deployment, config: LiveConfig, seed: int,
                  seconds: float, first_cycle: int,
                  recorder: Optional[SpanRecorder] = None) -> tuple:
    """One measured window; returns ``(phase, writer cycles run)``."""
    rngs = [random.Random(f"{config.name}:{seed}:{first_cycle}:{index}")
            for index in range(N_CLIENTS)]
    cpu_began = time.process_time()
    phase = Phase(began=time.perf_counter())
    deadline = phase.began + seconds
    cycles, *_ = await asyncio.gather(
        writer(deployment, first_cycle, deadline, phase, recorder),
        phase.speed.run(deadline),
        *(reader(deployment, config, index, rngs[index], deadline, phase, recorder)
          for index in range(N_CLIENTS)),
    )
    phase.seconds = time.perf_counter() - phase.began
    phase.cpu_seconds = time.process_time() - cpu_began
    return phase, cycles


def session_rejects(deployment: Deployment) -> int:
    return sum(
        runtime.transport.frames_rejected + sum(runtime.transport.auth.rejected.values())
        for runtime in deployment.runtimes
    )


def check_phase(phase: Phase, deployment: Deployment) -> None:
    rejects = session_rejects(deployment)
    if rejects:
        phase.failures.append(f"{rejects} session frames rejected")
    if not phase.reads:
        phase.failures.append("no read completed")


def end_to_end(phase: Phase, setup_times: List[float]) -> Dict[str, float]:
    """Wall-clock figures at the reference CPU speed (see ``speed.py``)."""
    authorized = phase.reads + phase.grant_probes
    refused = phase.reads_failed + phase.grant_probes_refused
    speed = phase.speed
    read_ms = phase.unprobed_ms(phase.read_spans)
    return {
        "setup_s": report.median(setup_times),
        "rps": speed.rate(phase.reads / phase.read_seconds),
        "p50_ms": speed.duration(report.quantile(read_ms, 0.50)),
        "p99_ms": speed.duration(report.quantile(read_ms, 0.99)),
        "write_p50_ms": speed.duration(
            report.quantile(phase.unprobed_ms(phase.write_spans), 0.50)),
        "availability": (authorized - refused) / authorized,
        "decisions_per_s": speed.rate((phase.reads + phase.probes) / phase.read_seconds),
        "peak_rss_mb": report.peak_rss_mb(),
    }


def wire_totals(deployment: Deployment) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for runtime in deployment.runtimes:
        for key, value in runtime.transport.wire.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def tracer_counts(deployment: Deployment) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for runtime in deployment.runtimes:
        for key, value in runtime.tracer.counts().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def engine_state(deployment: Deployment) -> Dict[str, int]:
    return {
        "dead_pops": sum(rt.env.dead_pops for rt in deployment.runtimes),
        "sent": sum(rt.transport.messages_sent for rt in deployment.runtimes),
        "dropped": sum(rt.transport.messages_dropped for rt in deployment.runtimes),
    }


async def _run_live(config: LiveConfig, seed: int, seconds: float, trace: bool,
                    spans_path: Optional[str]) -> report.Result:
    result = report.Result()
    if not trace:
        deployment, setup_times = await setup(config)
        try:
            phase, _cycles = await measure(deployment, config, seed, seconds, 0)
            check_phase(phase, deployment)
        finally:
            await deployment.stop()
        result.metrics = end_to_end(phase, setup_times)
        result.add_phase(phase.attempted, phase.failed, phase.failures)
        return result

    deployment, _times = await setup(dataclasses.replace(config, setup_repeats=1))
    recorder = SpanRecorder()
    inst = Instrumenter(recorder)
    counts = LayerCounts()
    try:
        plain, cycles = await measure(deployment, config, seed, seconds / 2, 0)
        check_phase(plain, deployment)
        wire_before = wire_totals(deployment)
        trace_before = tracer_counts(deployment)
        engine_before = engine_state(deployment)
        instrument_protocol(inst, counts)
        instrument_wire(inst, counts)
        instrument_runtime(
            inst,
            counts,
            [runtime.env for runtime in deployment.runtimes],
            [node for runtime in deployment.runtimes for node in runtime.transport.nodes.values()],
        )
        counts.watch(runtime.tracer for runtime in deployment.runtimes)
        try:
            traced, _ = await measure(deployment, config, seed, seconds / 2, cycles, recorder)
        finally:
            inst.restore()
        check_phase(traced, deployment)
        rejects = session_rejects(deployment)
        wire = report.delta(wire_totals(deployment), wire_before)
        traces = report.delta(tracer_counts(deployment), trace_before)
        engine = report.delta(engine_state(deployment), engine_before)
    finally:
        await deployment.stop()
    for phase in (plain, traced):
        result.add_phase(phase.attempted, phase.failed, phase.failures)
    quorum = live_policy().update_quorum(N_MANAGERS)
    result.failures.extend(report.quorum_ack_failures(counts.quorum_acks, quorum))
    result.metrics = report.per_layer(
        recorder=recorder,
        counts=counts,
        traces=traces,
        engine=engine,
        wire=wire,
        requests=traced.reads,
        traced_seconds=traced.seconds,
        plain_rate=plain.reads / plain.seconds,
        traced_rate=traced.reads / traced.seconds,
        cpu_busy_share=plain.cpu_seconds / plain.seconds,
        cpu_speed=traced.speed.ratio,
        probe_overlap_share=plain.probe_overlap_share,
        session_rejects=rejects,
        writes=traced.writes,
        revokes=traced.revokes,
        writer_lag_ms=report.quantile(traced.writer_lag_ms, 0.5),
        seed_seconds=deployment.seed_seconds,
        grants=deployment.grants,
        acls=[manager.acl(APP) for manager in deployment.cell.managers],
    )
    if spans_path is not None:
        recorder.dump(spans_path)
    return result


def run_live(config: LiveConfig, seed: int, seconds: float, trace: bool,
             spans_path: Optional[str] = None) -> report.Result:
    return asyncio.run(_run_live(config, seed, seconds, trace, spans_path))
