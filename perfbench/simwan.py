"""The ``sim_wan`` workload: the deterministic simulator over a partitioned WAN.

M = 5 managers, N = 8 hosts with drifting clocks, C = 3, Te = 60,
R = 3, per-pair link outages (``PairEpochModel(pi=0.1,
mean_outage=20)``), 5,000 Zipf(1.0) users of whom 80% hold seeded
grants, 100 accesses/s and 1 update/s for 300 simulated seconds.  No
sockets: the engine, scheduler, simulated network, partition model and
protocol strategies carry the load.

A run repeats the same seeded scenario until ``--seconds`` of wall time
are used (at least once).  Wall-clock figures are medians over the
repeats, at the reference CPU speed of ``speed.py``; the simulated ones
(latency, availability, the section 4.1 counts) come from the first
repeat and are exact for the seed.
Every repeat checks the ``AuthorizationOracle``: an access allowed to a
user revoked more than Te earlier is a violation and fails the run.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.host import DecisionReason
from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.core.system import AccessControlSystem
from repro.sim.network import Network
from repro.sim.partitions import PairEpochModel
from repro.sim.trace import TraceKind
from repro.workloads.generators import AccessWorkload, AuthorizationOracle, UpdateWorkload
from repro.workloads.population import UserPopulation

from . import report
from .layers import LayerCounts, instrument_protocol, instrument_runtime
from .spans import Instrumenter, SpanRecorder
from .speed import SpeedMeter

__all__ = ["SimWanConfig", "SIM_WAN", "run_sim_wan"]

APP = "service"
N_MANAGERS = 5
N_HOSTS = 8
#: Pair outages: probability a link is down, mean outage in seconds.
OUTAGE_PI = 0.1
MEAN_OUTAGE = 20.0
SEEDED_FRACTION = 0.8
ZIPF_S = 1.0
ACCESS_RATE = 100.0  # per simulated second
UPDATE_RATE = 1.0    # per simulated second
#: C = 3 of M = 5, Te = 60 s, R = 3 rounds.
POLICY = AccessPolicy(check_quorum=3, expiry_bound=60.0, max_attempts=3)


@dataclass(frozen=True)
class SimWanConfig:
    """The scenario's size; the tests shrink it."""

    users: int = 5000
    duration: float = 300.0  # simulated seconds


SIM_WAN = SimWanConfig()


class Observer:
    """Folds each decision into availability, latency and violation counts."""

    def __init__(self, system: AccessControlSystem, oracle: AuthorizationOracle) -> None:
        self.env = system.env
        self.oracle = oracle
        self.decisions = 0
        self.authorized = 0
        self.authorized_allowed = 0
        self.violations = 0
        self.latency_ms: List[float] = []
        self.write_ms: List[float] = []
        system.tracer.subscribe([TraceKind.UPDATE_QUORUM_REACHED], self.on_quorum)

    def on_decision(self, observed) -> None:
        decision = observed.decision
        self.decisions += 1
        if decision.reason != DecisionReason.EXHAUSTED:
            # An access refused after R rounds found no check quorum; it
            # counts against availability, not in the latency quantiles.
            self.latency_ms.append(decision.latency * 1000.0)
        if observed.authorized:
            self.authorized += 1
            self.authorized_allowed += decision.allowed
        elif decision.allowed and self.oracle.violation(observed.application,
                                                        observed.user, self.env.now):
            self.violations += 1

    def on_quorum(self, record) -> None:
        self.write_ms.append(record.data["elapsed"] * 1000.0)


@dataclass
class Scenario:
    system: AccessControlSystem
    access: AccessWorkload
    updates: UpdateWorkload
    observer: Observer
    seed_seconds: float
    grants: int


#: Builds per repeat; only the last one is simulated.  ``setup_s`` is
#: the median over every build of the run.
SETUP_BUILDS = 5


@dataclass
class Repeat:
    """What one pass over the scenario measured; the scenario itself is
    dropped so repeats do not pile up in memory."""

    setup_seconds: List[float]
    run_seconds: float
    speed: float  # CPU speed ratio while simulating
    attempts: int
    decisions: int
    simulated: Dict[str, float]  # exact for the seed
    failures: List[str]


def build(config: SimWanConfig, seed: int) -> Scenario:
    system = AccessControlSystem(
        n_managers=N_MANAGERS,
        n_hosts=N_HOSTS,
        applications=(APP,),
        policy=POLICY,
        connectivity=PairEpochModel(pi=OUTAGE_PI, mean_outage=MEAN_OUTAGE),
        clock_drift=True,
        seed=seed,
    )
    population = UserPopulation(config.users, zipf_s=ZIPF_S)
    oracle = AuthorizationOracle(expiry_bound=POLICY.expiry_bound)
    grants = int(round(SEEDED_FRACTION * config.users))
    began = time.perf_counter()
    for user in population.head(grants):
        system.seed_grant(APP, user, Right.USE)
        oracle.grant(APP, user)
    seed_seconds = time.perf_counter() - began
    observer = Observer(system, oracle)
    access = AccessWorkload(system, APP, population, oracle, rate=ACCESS_RATE,
                            rng=system.streams.stream("access-workload"),
                            on_decision=observer.on_decision, keep_observations=False)
    updates = UpdateWorkload(system, APP, population, oracle, rate=UPDATE_RATE,
                             rng=system.streams.stream("update-workload"),
                             target_fraction=SEEDED_FRACTION)
    return Scenario(system, access, updates, observer, seed_seconds, grants)


def setup(config: SimWanConfig, seed: int) -> tuple:
    """Build :data:`SETUP_BUILDS` times from a collected heap; returns
    ``(last scenario, seconds of each build at the reference CPU speed)``."""
    times = []
    scenario = None
    for _ in range(SETUP_BUILDS):
        scenario = None
        gc.collect()
        meter = SpeedMeter()
        meter.sample()
        began = time.perf_counter()
        scenario = build(config, seed)
        elapsed = time.perf_counter() - began
        meter.sample()
        times.append(meter.duration(elapsed))
    return scenario, times


def simulate(scenario: Scenario, duration: float, speed: SpeedMeter) -> float:
    """Advance one simulated second per ``run`` call, sampling the CPU
    speed between calls; returns the wall seconds spent in ``run``."""
    system = scenario.system
    clock = time.perf_counter
    seconds = 0.0
    for second in range(1, int(duration) + 1):
        began = clock()
        system.run(until=float(second))
        seconds += clock() - began
        speed.sample()
    return seconds


def summarize(scenario: Scenario, setup_seconds: List[float], run_seconds: float,
              speed: SpeedMeter) -> Repeat:
    observer = scenario.observer
    failures = []
    if observer.violations:
        failures.append(f"{observer.violations} accesses allowed past the Te bound")
    if not observer.decisions:
        failures.append("no access decided")
    return Repeat(
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        speed=speed.ratio,
        attempts=scenario.access.attempts,
        decisions=observer.decisions,
        simulated={
            "p50_ms": report.quantile(observer.latency_ms, 0.50),
            "p99_ms": report.quantile(observer.latency_ms, 0.99),
            "write_p50_ms": report.quantile(observer.write_ms, 0.50),
            "availability": report.ratio(observer.authorized_allowed, observer.authorized),
        },
        failures=failures,
    )


def repeat(config: SimWanConfig, seed: int) -> Repeat:
    scenario, setup_seconds = setup(config, seed)
    speed = SpeedMeter()
    return summarize(scenario, setup_seconds, simulate(scenario, config.duration, speed), speed)


def end_to_end(repeats: List[Repeat]) -> Dict[str, float]:
    """Wall-clock figures at the reference CPU speed (see ``speed.py``)."""
    metrics = {
        "setup_s": report.median([t for r in repeats for t in r.setup_seconds]),
        "rps": report.median([r.attempts / r.run_seconds / r.speed for r in repeats]),
        "decisions_per_s": report.median(
            [r.decisions / r.run_seconds / r.speed for r in repeats]),
        "peak_rss_mb": report.peak_rss_mb(),
    }
    metrics.update(repeats[0].simulated)
    return {name: metrics[name] for name, *_ in report.END_TO_END}


def traced_repeat(config: SimWanConfig, seed: int, plain_rate: float,
                  spans_path: Optional[str]) -> tuple:
    """One repeat with every layer wrapped; returns ``(repeat, per-layer
    metrics)``.  The top-level spans are the engine's run calls, so the
    spans cover the whole simulated run."""
    scenario, setup_seconds = setup(config, seed)
    recorder = SpanRecorder()
    inst = Instrumenter(recorder)
    counts = LayerCounts()
    system = scenario.system
    instrument_protocol(inst, counts)
    inst.patch_call(Network, "send", "transport.send", user_arg=3)
    for fanout in ("send_many", "multicast"):
        inst.patch_call(Network, fanout, "transport.fanout")
    instrument_runtime(inst, counts, [system.env], list(system.network.nodes.values()))
    counts.watch([system.tracer])
    speed = SpeedMeter()
    cpu_began, wall_began = time.process_time(), time.perf_counter()
    try:
        seconds = simulate(scenario, config.duration, speed)
    finally:
        inst.restore()
    busy = (time.process_time() - cpu_began) / (time.perf_counter() - wall_began)
    traced = summarize(scenario, setup_seconds, seconds, speed)
    traced.failures.extend(report.quorum_ack_failures(
        counts.quorum_acks, POLICY.update_quorum(N_MANAGERS)))
    network = system.network
    metrics = report.per_layer(
        recorder=recorder,
        counts=counts,
        traces=system.tracer.counts(),
        engine={
            "dead_pops": system.env.dead_pops,
            "sent": network.messages_sent,
            "dropped": network.messages_dropped,
        },
        wire={},
        requests=traced.decisions,
        traced_seconds=seconds,
        plain_rate=plain_rate,
        traced_rate=traced.decisions / seconds,
        cpu_busy_share=busy,
        cpu_speed=traced.speed,
        probe_overlap_share=0.0,
        session_rejects=0,
        writes=scenario.updates.adds + scenario.updates.revokes,
        revokes=scenario.updates.revokes,
        writer_lag_ms=0.0,
        seed_seconds=scenario.seed_seconds,
        grants=scenario.grants,
        acls=[manager.acl(APP) for manager in system.managers],
    )
    if spans_path is not None:
        recorder.dump(spans_path)
    return traced, metrics


def run_sim_wan(seed: int, seconds: float, trace: bool,
                config: SimWanConfig = SIM_WAN,
                spans_path: Optional[str] = None) -> report.Result:
    """Untraced repeats fill ``seconds`` (half of it when tracing, and
    then one traced repeat follows)."""
    result = report.Result()
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    repeats = [repeat(config, seed)]
    while time.perf_counter() + sum(repeats[-1].setup_seconds) + repeats[-1].run_seconds < deadline:
        repeats.append(repeat(config, seed))
    for each in repeats:
        result.add_phase(each.attempts, 0, each.failures)
    if not trace:
        result.metrics = end_to_end(repeats)
        return result
    plain_rate = report.median([r.decisions / r.run_seconds for r in repeats])
    traced, result.metrics = traced_repeat(config, seed, plain_rate, spans_path)
    result.add_phase(traced.attempts, 0, traced.failures)
    return result
