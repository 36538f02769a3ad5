"""Metric names, units, the statistics behind them, and the result line.

``END_TO_END`` and ``PER_LAYER`` are the metric contract; the test
suite checks that ``BENCHMARK.json`` lists exactly these.  A run with
tracing off reports every end-to-end metric, a traced run every
per-layer metric.  A layer a workload never calls reports 0 there
(the simulator has no codec, session MAC or sockets).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.sim.trace import TraceKind

from .spans import LayerStats, SpanRecorder

__all__ = ["END_TO_END", "PER_LAYER", "Result", "per_layer", "median", "quantile"]

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("rps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("availability", "share", "higher", 0.05),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

#: (name, unit, better)
PER_LAYER = (
    ("net.codec_bin.encode_us", "us", "lower"),
    ("net.codec_bin.decode_us", "us", "lower"),
    ("net.codec_bin.bytes_per_msg", "B", "lower"),
    ("net.session.seal_us", "us", "lower"),
    ("net.session.open_us", "us", "lower"),
    ("net.session.rejects", "count", "lower"),
    ("net.tcp.msgs_per_segment", "count", "higher"),
    ("net.tcp.wire_bytes_per_req", "B", "lower"),
    ("net.tcp.flush_us", "us", "lower"),
    ("net.tcp.write_us", "us", "lower"),
    ("net.runtime.env_run_us", "us", "lower"),
    ("net.runtime.loop_us", "us", "lower"),
    ("net.runtime.cpu_busy_share", "share", "lower"),
    ("bench.cpu.speed", "x", "higher"),
    ("bench.cpu.probe_overlap_share", "share", "lower"),
    ("core.node.dispatch_us", "us", "lower"),
    ("auth.signatures.sign_us", "us", "lower"),
    ("auth.signatures.verify_us", "us", "lower"),
    ("auth.signatures.signs_per_miss", "count", "lower"),
    ("protocols.pipeline.check_us", "us", "lower"),
    ("protocols.planner.round_us", "us", "lower"),
    ("protocols.planner.queries_per_miss", "count", "lower"),
    ("protocols.planner.rounds_per_miss", "count", "lower"),
    ("protocols.combiner.combine_us", "us", "lower"),
    ("core.manager.answer_us", "us", "lower"),
    ("core.cache.probe_us", "us", "lower"),
    ("core.cache.hit_ratio", "share", "higher"),
    ("protocols.dissemination.issue_us", "us", "lower"),
    ("protocols.dissemination.msgs_per_write", "count", "lower"),
    ("protocols.dissemination.quorum_acks", "count", "lower"),
    ("protocols.revocation.forwards_per_revoke", "count", "lower"),
    ("core.cache.flushes_per_revoke", "count", "lower"),
    ("sim.engine.events_per_decision", "count", "lower"),
    ("sim.engine.dead_pop_ratio", "share", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.network.msgs_per_decision", "count", "lower"),
    ("sim.network.drop_ratio", "share", "lower"),
    ("sim.network.send_us", "us", "lower"),
    ("core.acl.seed_us_per_grant", "us", "lower"),
    ("core.acl.bytes_per_entry", "B", "lower"),
    ("bench.trace.untraced_rps", "1/s", "higher"),
    ("bench.trace.traced_rps", "1/s", "higher"),
    ("bench.trace.rps_ratio", "x", "higher"),
    ("bench.trace.accounted_share", "share", "higher"),
    ("bench.writer.lag_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


@dataclass
class Result:
    """Everything one run reports."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def add_phase(self, attempted: int, failed: int, failures: Iterable[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0 and self.attempted > 0

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        })


# -- statistics -----------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def delta(after: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def quorum_ack_failures(acks: Sequence[int], quorum: int) -> List[str]:
    """Every update quorum must be exactly the M - C + 1 acks."""
    wrong = [count for count in acks if count != quorum]
    if wrong:
        return [f"{len(wrong)} update quorums reached with acks {sorted(set(wrong))}, "
                f"expected {quorum}"]
    return []


# -- per-layer metrics -------------------------------------------------------------
def per_layer(
    recorder: SpanRecorder,
    counts: Any,
    traces: Mapping[str, int],
    engine: Mapping[str, int],
    wire: Mapping[str, int],
    requests: int,
    traced_seconds: float,
    plain_rate: float,
    traced_rate: float,
    cpu_busy_share: float,
    cpu_speed: float,
    probe_overlap_share: float,
    session_rejects: int,
    writes: int,
    revokes: int,
    writer_lag_ms: float,
    seed_seconds: float,
    grants: int,
    acls: Sequence[Any],
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``*_us`` metrics are self time per call, except the generator
    layers (``pipeline.check``, ``planner.round``), which are self time
    summed over their steps per check or per round.
    ``net.runtime.loop_us`` is the traced wall time per request that no
    layer span covers: the asyncio machinery, socket reads, and the
    benchmark's own client code.  Times here are as measured, not scaled
    to the reference CPU speed; ``bench.cpu.speed`` is the traced
    window's speed ratio (see ``speed.py``), and
    ``bench.cpu.probe_overlap_share`` the share of untraced reads left
    out of the latency quantiles because a speed probe overlapped them.
    ``counts.events`` are the engine events popped (processed or dead)
    while traced.
    """
    stats = LayerStats(recorder)
    us = stats.self_us_per_call
    decisions = traces.get(TraceKind.ACCESS_REQUESTED, 0)
    misses = decisions - traces.get(TraceKind.CACHE_HIT, 0)
    messages = counts.msgs_by_kind
    events = counts.events
    return {
        "net.codec_bin.encode_us": us("net.codec_bin.encode"),
        "net.codec_bin.decode_us": us("net.codec_bin.decode"),
        "net.codec_bin.bytes_per_msg": ratio(counts.encoded_bytes, counts.encoded_msgs),
        "net.session.seal_us": us("net.session.seal"),
        "net.session.open_us": us("net.session.open"),
        "net.session.rejects": session_rejects,
        "net.tcp.msgs_per_segment": ratio(wire.get("segment_msgs_sent", 0),
                                          wire.get("segments_sent", 0)),
        "net.tcp.wire_bytes_per_req": ratio(wire.get("bytes_sent", 0), requests),
        "net.tcp.flush_us": us("net.tcp.flush"),
        "net.tcp.write_us": us("net.tcp.write"),
        "net.runtime.env_run_us": us("engine.run"),
        "net.runtime.loop_us": ratio(traced_seconds - stats.total_self_time, requests) * 1e6,
        "net.runtime.cpu_busy_share": cpu_busy_share,
        "bench.cpu.speed": cpu_speed,
        "bench.cpu.probe_overlap_share": probe_overlap_share,
        "core.node.dispatch_us": us("core.node.dispatch"),
        "auth.signatures.sign_us": us("auth.signatures.sign"),
        "auth.signatures.verify_us": us("auth.signatures.verify"),
        "auth.signatures.signs_per_miss": ratio(stats.calls.get("auth.signatures.sign", 0),
                                                misses),
        "protocols.pipeline.check_us": ratio(
            stats.self_time.get("protocols.pipeline.check", 0.0), decisions) * 1e6,
        "protocols.planner.round_us": ratio(
            stats.self_time.get("protocols.planner.round", 0.0), counts.rounds) * 1e6,
        "protocols.planner.queries_per_miss": ratio(traces.get(TraceKind.QUERY_SENT, 0),
                                                    misses),
        "protocols.planner.rounds_per_miss": ratio(counts.rounds, misses),
        "protocols.combiner.combine_us": us("protocols.combiner.combine"),
        "core.manager.answer_us": us("core.manager.answer"),
        "core.cache.probe_us": us("core.cache.probe"),
        "core.cache.hit_ratio": ratio(traces.get(TraceKind.CACHE_HIT, 0), decisions),
        "protocols.dissemination.issue_us": us("protocols.dissemination.issue"),
        "protocols.dissemination.msgs_per_write": ratio(
            messages.get("UpdateMsg", 0) + messages.get("UpdateAck", 0), writes),
        "protocols.dissemination.quorum_acks": ratio(sum(counts.quorum_acks),
                                                     len(counts.quorum_acks)),
        "protocols.revocation.forwards_per_revoke": ratio(
            traces.get(TraceKind.REVOKE_FORWARDED, 0), revokes),
        "core.cache.flushes_per_revoke": ratio(counts.entries_flushed, revokes),
        "sim.engine.events_per_decision": ratio(events, decisions),
        "sim.engine.dead_pop_ratio": ratio(engine["dead_pops"], events),
        "sim.engine.us_per_event": ratio(stats.self_time.get("engine.run", 0.0), events) * 1e6,
        "sim.network.msgs_per_decision": ratio(engine["sent"], decisions),
        "sim.network.drop_ratio": ratio(engine["dropped"], engine["sent"]),
        "sim.network.send_us": us("transport.send"),
        "core.acl.seed_us_per_grant": ratio(seed_seconds, grants) * 1e6,
        "core.acl.bytes_per_entry": median([ratio(acl.nbytes(), len(acl)) for acl in acls]),
        "bench.trace.untraced_rps": plain_rate,
        "bench.trace.traced_rps": traced_rate,
        "bench.trace.rps_ratio": ratio(traced_rate, plain_rate),
        "bench.trace.accounted_share": ratio(stats.total_self_time, traced_seconds),
        "bench.writer.lag_ms": writer_lag_ms,
    }
