"""Which public functions are wrapped in a traced run, and under what names.

Span names are the layer names of the per-layer metrics (see
``report.py``).  Layers shared by both backends are wrapped on their
classes; the live backend adds the wire layers, and each environment
and node is wrapped on its instance so the engine's run loop and a
node's message dispatch get their own spans; while traced, each
environment's ``run`` is driven through its public ``step`` so the
events it pops can be counted.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Iterable, Optional

from repro.auth.identity import Authenticator, Principal
from repro.core.cache import ACLCache
from repro.core.manager import AccessControlManager
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.session import SessionAuth
from repro.net.tcp import SocketTransport
from repro.protocols.combiner import (
    ByzantineVouchCombiner,
    HighestVersionCombiner,
    WeightedVoteCombiner,
)
from repro.protocols.pipeline import VerificationPipeline
from repro.protocols.planner import ParallelPlanner, SequentialPlanner
from repro.protocols.query import QueryAnswerer
from repro.sim.trace import TraceKind

from .spans import Instrumenter

__all__ = ["LayerCounts", "instrument_protocol", "instrument_wire", "instrument_runtime"]

#: Record kinds whose fields the per-layer counts need.
_FIELD_KINDS = (
    TraceKind.MSG_SENT,
    TraceKind.UPDATE_QUORUM_REACHED,
)


class LayerCounts:
    """Counts taken at layer boundaries during a traced phase."""

    def __init__(self) -> None:
        self.rounds = 0
        self.events = 0
        self.encoded_msgs = 0
        self.encoded_bytes = 0
        self.entries_flushed = 0
        self.msgs_by_kind: Dict[str, int] = {}
        self.quorum_acks: list = []

    def on_round(self, _args: tuple) -> None:
        self.rounds += 1

    def on_encoded(self, blob: bytes) -> None:
        self.encoded_msgs += 1
        self.encoded_bytes += len(blob)

    def on_flushed(self, removed: int) -> None:
        if removed:
            self.entries_flushed += 1

    def on_record(self, record: Any) -> None:
        if record.kind == TraceKind.MSG_SENT:
            kind = record.data["message_kind"]
            self.msgs_by_kind[kind] = self.msgs_by_kind.get(kind, 0) + 1
        else:
            self.quorum_acks.append(record.data["acks"])

    def watch(self, tracers: Iterable[Any]) -> None:
        """Subscribe to the record kinds whose fields are counted."""
        for tracer in tracers:
            tracer.subscribe(_FIELD_KINDS, self.on_record)


def instrument_protocol(inst: Instrumenter, counts: LayerCounts) -> None:
    """Host pipeline, planner, combiner, manager, cache and signatures."""
    recorder = inst.recorder

    def bind_check(args: tuple) -> None:
        _pipeline, _application, user = args[:3]
        if recorder.request_for(user) is None:
            recorder.new_request(user)

    inst.patch_generator(VerificationPipeline, "check", "protocols.pipeline.check",
                         user_arg=2, on_start=bind_check)
    for planner in (ParallelPlanner, SequentialPlanner):
        inst.patch_generator(planner, "run_round", "protocols.planner.round",
                             user_arg=3, on_start=counts.on_round)
    for combiner in (HighestVersionCombiner, ByzantineVouchCombiner, WeightedVoteCombiner):
        inst.patch_call(combiner, "combine", "protocols.combiner.combine")
    inst.patch_call(QueryAnswerer, "answer", "core.manager.answer", user_arg=3)
    for operation in ("add", "revoke"):
        inst.patch_call(AccessControlManager, operation, "protocols.dissemination.issue",
                        user_arg=2)
    inst.patch_call(ACLCache, "probe", "core.cache.probe", user_arg=1)
    inst.patch_call(ACLCache, "flush", "core.cache.flush", user_arg=1,
                    on_result=counts.on_flushed)
    inst.patch_call(Principal, "sign", "auth.signatures.sign", user_arg=1)
    inst.patch_call(Authenticator, "authenticate", "auth.signatures.verify", user_arg=1)


def instrument_wire(inst: Instrumenter, counts: LayerCounts) -> None:
    """Binary codec, session MAC, socket transport and socket writes."""
    inst.patch_call(BinaryEncoder, "encode", "net.codec_bin.encode",
                    on_result=counts.on_encoded)
    inst.patch_call(BinaryDecoder, "decode", "net.codec_bin.decode")
    for operation in ("seal", "seal_segment"):
        inst.patch_call(SessionAuth, operation, "net.session.seal")
    for operation in ("open", "open_segment"):
        inst.patch_call(SessionAuth, operation, "net.session.open")
    inst.patch_call(SocketTransport, "send", "transport.send", user_arg=3)
    inst.patch_call(SocketTransport, "flush", "net.tcp.flush")
    inst.patch_call(asyncio.StreamWriter, "write", "net.tcp.write")


def instrument_runtime(inst: Instrumenter, counts: LayerCounts, envs: Iterable[Any],
                       nodes: Iterable[Any]) -> None:
    """Each environment's run loop and each node's message dispatch."""
    for env in envs:
        inst.patch(env, "run", lambda run: _stepped_run(env, run, counts))
        inst.patch_call(env, "run", "engine.run")
    for node in nodes:
        inst.patch_call(node, "handle_message", "core.node.dispatch", user_arg=1)


def _stepped_run(env: Any, run: Callable[..., None], counts: LayerCounts) -> Callable[..., None]:
    """``env.run`` driven through the public ``peek``/``step``, counting
    the events it pops.

    ``step`` pops one entry exactly as ``run``'s loop does (a dead timer
    is counted in ``dead_pops`` and skipped), so the simulation is
    unchanged; the original ``run`` then only advances the clock to
    ``until``.
    """
    peek, step = env.peek, env.step

    def stepped(until: Optional[float] = None) -> None:
        limit = math.inf if until is None else until
        while True:
            at = peek()
            if at == math.inf or at > limit:
                break
            step()
            counts.events += 1
        run(until=until)

    return stepped
