""":class:`SocketTransport` — the transport interface over asyncio TCP.

Wire format: every frame is ``4-byte BE length || kind byte || body``,
where the kind byte selects one of four frame flavours:

``J``
    a JSON session frame — ``HMAC || envelope(JSON)`` exactly as in
    PR 7 (see :mod:`repro.net.session`); the compatibility floor every
    endpoint speaks.
``H`` / ``A``
    codec negotiation — a sealed hello naming the codec the client
    wants for this connection, and the sealed accept/reject ack.  An
    unknown or unaccepted codec name is a *structured* rejection
    (counted under the session's ``negotiation`` counter, answered
    with a reject ack): the connection stays a perfectly good JSON
    connection; nothing is poisoned.
``B``
    a binary segment — ``HMAC || segment`` carrying a whole flush's
    worth of messages for one endpoint: one length prefix, one replay
    nonce, and one MAC amortised over the batch, each message body
    encoded by the connection's :class:`~repro.net.codec_bin.BinaryEncoder`.

Topology: every long-lived cell node runs a frame server; for each
known peer a lazily-connected outbound link (an ``asyncio.Queue``
drained by a writer task, which also connects and negotiates) carries
this endpoint's frames; once a binary link is open and idle, a flush
writes its segment straight to the socket.  Links are
full-duplex — replies may come back on the same connection — and
inbound connections from addresses *not* in the peer directory (e.g.
transient ``repro load`` clients, which run no server) are remembered
as *return routes* so responses to them travel back over the
connection they arrived on.

Codec state is scoped to one TCP connection per direction: the
interning dictionaries of a :class:`BinaryEncoder`/``BinaryDecoder``
pair stay consistent because TCP delivers that connection's frames in
order, and any divergence (a :class:`DictionaryError`, which can only
mean a bug or an attack) closes the connection so the automatic
reconnect resets both sides.  A binary-preferring transport buffers
``send``s per destination and :meth:`SocketTransport.flush` — called
once per driver pass, so latency never regresses past one scheduling
quantum — packs them into per-endpoint segments.

Failure semantics mirror the sim :class:`~repro.sim.network.Network`:
``send`` is synchronous fire-and-forget; connection failures, unknown
destinations, crashed endpoints, authentication failures, and scripted
partitions all silently drop the frame (counted and traced, never
raised into protocol code).  Reliability is the protocol's own
retry/ack machinery, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.trace import TraceKind
from .codec import CodecError, FrameError, FrameReader, decode_message, encode_frame, encode_message
from .codec_bin import BinaryDecoder, BinaryEncoder, decode_bin, encode_bin
from .session import DEFAULT_LIFETIME, AuthError, SessionAuth
from .transport import Address, Transport

__all__ = ["SocketTransport", "LiveConnectivity", "CODECS"]

#: Bound on queued outbound frames/batches per peer before sends drop.
_LINK_QUEUE_LIMIT = 4096

#: Codec names a transport can negotiate.  ``json`` is the floor and is
#: always accepted; ``binary`` is accepted unless ``accept_binary`` is
#: off.  Anything else in a hello is a structured negotiation rejection.
CODECS = ("json", "binary")

#: Pending sends per transport that force an early flush mid-pass, so a
#: pathological burst inside one driver pass cannot buffer
#: unboundedly before hitting the wire.
_FLUSH_LIMIT = 128

#: Wall-clock bound on a codec handshake before the link downgrades to
#: JSON (covers pre-kind-byte servers that never answer a hello).
_HELLO_TIMEOUT = 5.0

_KIND_JSON = 0x4A     # 'J'
_KIND_HELLO = 0x48    # 'H'
_KIND_ACK = 0x41      # 'A'
_KIND_SEGMENT = 0x42  # 'B'

_JSON_PREFIX = bytes((_KIND_JSON,))
_HELLO_PREFIX = bytes((_KIND_HELLO,))
_ACK_PREFIX = bytes((_KIND_ACK,))
_SEGMENT_PREFIX = bytes((_KIND_SEGMENT,))


class LiveConnectivity:
    """Scripted partitions for a live cell (shared across its runtimes).

    The live analogue of :class:`~repro.sim.partitions.ScriptedConnectivity`:
    a mutable set of blocked (src, dst) directed pairs consulted at send
    time.  All runtimes of an in-process cell share one instance, so a
    test partitions the cell with plain method calls.
    """

    def __init__(self) -> None:
        self._blocked: set[Tuple[Address, Address]] = set()

    def allows(self, src: Address, dst: Address) -> bool:
        return (src, dst) not in self._blocked

    def set_down(self, a: Address, b: Address) -> None:
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def set_up(self, a: Address, b: Address) -> None:
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def isolate(self, address: Address, others: Iterable[Address]) -> None:
        for other in others:
            self.set_down(address, other)

    def reconnect(self, address: Address, others: Iterable[Address]) -> None:
        for other in others:
            self.set_up(address, other)

    def heal(self) -> None:
        self._blocked.clear()


class _ConnState:
    """Per-connection codec state for one inbound stream direction.

    ``decoder`` is set once this side has agreed to *receive* binary on
    the connection (server: at hello accept; client: at ack accept);
    ``encoder``/``reply_label``/``peer_name`` are the server-side state
    for sending binary *reply* segments back down the same connection
    to a transient client.
    """

    __slots__ = ("writer", "decoder", "encoder", "reply_label", "peer_name")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.decoder: Optional[BinaryDecoder] = None
        self.encoder: Optional[BinaryEncoder] = None
        self.reply_label: Optional[str] = None
        self.peer_name: Optional[str] = None


class _PeerLink:
    """Lazily-connected outbound connection to one peer address (JSON)."""

    def __init__(self, transport: "SocketTransport", address: Address, host: str, port: int):
        self._transport = transport
        self.address = address
        self.host = host
        self.port = port
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=_LINK_QUEUE_LIMIT)
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"link:{address}"
        )

    def enqueue(self, frame: bytes) -> bool:
        try:
            self.queue.put_nowait(frame)
            return True
        except asyncio.QueueFull:
            return False

    async def _run(self) -> None:
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while True:
                frame = await self.queue.get()
                if frame is None:
                    break
                if writer is None or writer.is_closing():
                    writer = await self._connect()
                    if writer is None:
                        # Connection refused after retries: the frame is
                        # lost, like a message into a dead partition.
                        self._transport._count_drop(self.address, "connect failed")
                        continue
                try:
                    writer.write(frame)
                    await writer.drain()
                    self._transport._wire_wrote(len(frame))
                except (ConnectionError, OSError):
                    self._transport._count_drop(self.address, "connection lost")
                    writer = None
        finally:
            if writer is not None and not writer.is_closing():
                writer.close()

    async def _connect(self) -> Optional[asyncio.StreamWriter]:
        backoff = self._transport.connect_backoff
        for attempt in range(self._transport.connect_retries):
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(backoff * (attempt + 1))
                continue
            # Full duplex: replies may come back on this connection.
            asyncio.get_running_loop().create_task(
                self._transport._read_stream(reader, writer, close_on_exit=False),
                name=f"link-read:{self.address}",
            )
            return writer
        return None

    async def close(self) -> None:
        await self.queue.put(None)
        await self.task


class _BinLink:
    """Outbound link to one *endpoint*, negotiated at connect time.

    Where :class:`_PeerLink` queues ready-made frames for one address,
    a binary link queues whole batches of ``(src, dst, message)``
    triples for one ``(host, port)`` endpoint — so a fan-out to many
    nodes of one remote runtime coalesces into a single segment — and
    encodes *at write time*, after the handshake has picked the codec
    and created this connection's fresh :class:`BinaryEncoder`.
    Encoding at write time is what keeps the interning dictionary
    consistent: whatever bytes reach the wire were produced by the
    encoder whose state the connection's decoder mirrors.
    """

    def __init__(self, transport: "SocketTransport", host: str, port: int):
        self._transport = transport
        self.host = host
        self.port = port
        self.label = f"{host}:{port}"
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=_LINK_QUEUE_LIMIT)
        self.codec = "binary"
        self.encoder: Optional[BinaryEncoder] = None
        #: The connection once its handshake is done (None before).
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"bin-link:{self.label}"
        )

    def enqueue(self, batch: List[Tuple[Address, Address, Any]]) -> bool:
        try:
            self.queue.put_nowait(batch)
            return True
        except asyncio.QueueFull:
            return False

    def _drop_batch(self, batch: List[Tuple[Address, Address, Any]], reason: str) -> None:
        for _src, dst, _message in batch:
            self._transport._count_drop(dst, reason)

    def write_now(self, batch: List[Tuple[Address, Address, Any]]) -> bool:
        """Pack ``batch`` and write it straight to the open connection.

        Skips the queue-and-writer-task hop when that cannot reorder or
        overfill anything: the handshake is done, nothing is queued
        ahead of this batch, and the socket is not above its own
        write-buffer high-water mark.  Returns False otherwise, and the
        caller queues the batch instead.
        """
        writer = self.writer
        if writer is None or writer.is_closing() or not self.queue.empty():
            return False
        sock = writer.transport
        if sock.get_write_buffer_size() > sock.get_write_buffer_limits()[1]:
            return False
        self._ship(writer, batch)
        return True

    def _ship(
        self, writer: asyncio.StreamWriter, batch: List[Tuple[Address, Address, Any]]
    ) -> bool:
        """Pack and write one batch; False if the connection failed."""
        packed = self._pack(batch)
        if packed is None:
            return True
        frame, nframes = packed
        try:
            writer.write(frame)
            # A selector transport does not raise on a failed send: it
            # closes itself and returns, so check for that too.
            lost = writer.is_closing()
        except (ConnectionError, OSError):
            lost = True
        if lost:
            self._drop_batch(batch, "connection lost")
            writer.close()
            return False
        self._transport._wire_wrote(len(frame), frames=nframes)
        if self.codec == "binary":
            wire = self._transport.wire
            wire["segments_sent"] += 1
            wire["segment_msgs_sent"] += len(batch)
        return True

    async def _run(self) -> None:
        try:
            while True:
                batch = await self.queue.get()
                if batch is None:
                    break
                writer = self.writer
                if writer is None or writer.is_closing():
                    # Unset while the handshake runs, so flush() keeps
                    # queueing behind this batch instead of writing.
                    self.writer = None
                    writer = self.writer = await self._handshake()
                    if writer is None:
                        self._drop_batch(batch, "connect failed")
                        continue
                if not self._ship(writer, batch):
                    continue
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._drop_batch(batch, "connection lost")
                    writer.close()
        finally:
            if self.writer is not None and not self.writer.is_closing():
                self.writer.close()

    async def _handshake(self) -> Optional[asyncio.StreamWriter]:
        """Connect, then negotiate this connection's codec.

        A fresh connection always re-negotiates (and gets a fresh
        encoder): the remote decoder died with the old connection, so
        dictionary state must restart from empty on both sides.
        """
        transport = self._transport
        backoff = transport.connect_backoff
        writer: Optional[asyncio.StreamWriter] = None
        for attempt in range(transport.connect_retries):
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(backoff * (attempt + 1))
                continue
            asyncio.get_running_loop().create_task(
                transport._read_stream(reader, writer, close_on_exit=False),
                name=f"bin-link-read:{self.label}",
            )
            break
        if writer is None:
            return None
        waiter: "asyncio.Future[str]" = asyncio.get_running_loop().create_future()
        transport._hello_waiters[self.label] = waiter
        hello = json.dumps({"codec": "binary", "v": 1}).encode("utf-8")
        frame = encode_frame(
            _HELLO_PREFIX
            + transport.auth.seal(transport.endpoint_name(), self.label, hello)
        )
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            transport._hello_waiters.pop(self.label, None)
            return None
        transport._wire_wrote(len(frame))
        try:
            self.codec = await asyncio.wait_for(waiter, timeout=_HELLO_TIMEOUT)
        except asyncio.TimeoutError:
            # A server that never answers hellos is a JSON-era server;
            # fall back rather than stall the link.
            self.codec = "json"
        finally:
            transport._hello_waiters.pop(self.label, None)
        self.encoder = BinaryEncoder() if self.codec == "binary" else None
        return writer

    def _pack(self, batch: List[Tuple[Address, Address, Any]]) -> Optional[Tuple[bytes, int]]:
        """Encode one queued batch under the connection's codec.

        Returns ``(wire_bytes, frame_count)`` or None if nothing
        survived encoding.
        """
        transport = self._transport
        if self.codec == "binary" and self.encoder is not None:
            items: List[Tuple[str, str, bytes]] = []
            for src, dst, message in batch:
                try:
                    items.append((src, dst, self.encoder.encode(message)))
                except CodecError as exc:
                    transport._count_drop(dst, f"encode: {exc}")
            if not items:
                return None
            blob = transport.auth.seal_segment(
                transport.endpoint_name(), self.label, items
            )
            try:
                return encode_frame(_SEGMENT_PREFIX + blob), 1
            except FrameError as exc:
                self._drop_batch(batch, f"encode: {exc}")
                return None
        # Downgraded link: one JSON frame per message, still a single
        # write for the whole batch.
        out = bytearray()
        nframes = 0
        for src, dst, message in batch:
            try:
                sealed = transport.auth.seal(src, dst, encode_message(message))
                out += encode_frame(_JSON_PREFIX + sealed)
                nframes += 1
            except (CodecError, FrameError) as exc:
                transport._count_drop(dst, f"encode: {exc}")
        return (bytes(out), nframes) if out else None

    async def close(self) -> None:
        await self.queue.put(None)
        await self.task


class SocketTransport(Transport):
    """The :class:`~repro.net.transport.Transport` over real TCP.

    ``runtime`` is the owning :class:`~repro.net.runtime.LiveRuntime`;
    it supplies the event environment, the tracer, the asyncio loop,
    and asynchronous local delivery (``runtime.deliver``), which keeps
    ``handle_message`` off the sender's stack exactly as in the sim.

    ``codec`` is the *outbound preference*: ``"json"`` sends legacy
    per-message frames (byte-compatible with PR 7); ``"binary"``
    negotiates the interned binary codec per connection and coalesces
    each flush into per-endpoint segments.  ``accept_binary`` governs
    the *inbound* side — when off, binary hellos get a structured
    negotiation rejection and the peer downgrades to JSON.
    """

    def __init__(
        self,
        runtime: Any,
        secret: bytes,
        lifetime: float = DEFAULT_LIFETIME,
        connectivity: Optional[LiveConnectivity] = None,
        connect_retries: int = 5,
        connect_backoff: float = 0.05,
        codec: str = "json",
        accept_binary: bool = True,
    ) -> None:
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r} (choose from {CODECS})")
        self._runtime = runtime
        self.auth = SessionAuth(secret, lifetime=lifetime)
        self.connectivity = connectivity
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.codec = codec
        self.accept_binary = accept_binary
        self.nodes: Dict[Address, Any] = {}
        self.peers: Dict[Address, Tuple[str, int]] = {}
        self._links: Dict[Address, _PeerLink] = {}
        self._bin_links: Dict[Tuple[str, int], _BinLink] = {}
        self._return_routes: Dict[Address, asyncio.StreamWriter] = {}
        self._return_conns: Dict[Address, _ConnState] = {}
        self._hello_waiters: Dict[str, "asyncio.Future[str]"] = {}
        self._endpoint_name: Optional[str] = None
        # Coalescing buffers (binary mode): dst -> [(src, message), ...].
        self._pending: Dict[Address, List[Tuple[Address, Any]]] = {}
        self._pending_routes: Dict[Address, List[Tuple[Address, Any]]] = {}
        self._pending_count = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._server_port: Optional[int] = None
        # Counters (mirror the sim Network's) — part of the live report.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.frames_rejected = 0
        #: Wire-level counters for the A/B report: raw bytes and frames
        #: both ways, plus segment/coalescing shape.
        self.wire: Dict[str, int] = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
            "frames_received": 0,
            "segments_sent": 0,
            "segments_received": 0,
            "segment_msgs_sent": 0,
            "segment_msgs_received": 0,
        }

    # -- properties delegated to the runtime --------------------------------
    @property
    def env(self) -> Any:
        return self._runtime.env

    @property
    def tracer(self) -> Any:
        return self._runtime.tracer

    @property
    def port(self) -> Optional[int]:
        """The bound server port (None until the server is started)."""
        return self._server_port

    def endpoint_name(self) -> str:
        """The stable session name this transport handshakes under.

        Used as the sealed sender of hellos and outbound segments — a
        single nonce counter all this endpoint's connections share (each
        connection sees an increasing subsequence, which is all the
        replay check requires).  Pinned on first use so late node
        registration cannot change it mid-session.
        """
        if self._endpoint_name is None:
            self._endpoint_name = min(self.nodes) if self.nodes else "client"
        return self._endpoint_name

    def wire_stats(self) -> Dict[str, Any]:
        """Wire counters plus derived coalescing shape, for reports."""
        stats: Dict[str, Any] = dict(self.wire)
        stats["codec"] = self.codec
        segments = stats["segments_sent"]
        stats["msgs_per_segment"] = (
            stats["segment_msgs_sent"] / segments if segments else 0.0
        )
        return stats

    # -- membership ----------------------------------------------------------
    def register(self, node: Any) -> Any:
        if node.address in self.nodes:
            raise ValueError(f"duplicate address {node.address!r}")
        self.nodes[node.address] = node
        node.attach(self)
        return node

    def set_peers(self, directory: Dict[Address, Tuple[str, int]]) -> None:
        """Install/extend the address -> (host, port) peer directory."""
        self.peers.update(directory)

    # -- server ----------------------------------------------------------------
    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the frame server; returns the (possibly ephemeral) port."""
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self._server_port = self._server.sockets[0].getsockname()[1]
        return self._server_port

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._read_stream(reader, writer, close_on_exit=True)

    async def _read_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close_on_exit: bool,
    ) -> None:
        """Read frames off one connection until EOF or a framing error.

        Authentication and codec failures drop the single frame (counted
        and traced); framing errors and dictionary divergence poison the
        stream, so the connection is closed.  Nothing propagates: one
        hostile client cannot take down the server loop.
        """
        frames = FrameReader()
        conn = _ConnState(writer)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                self.wire["bytes_received"] += len(chunk)
                try:
                    bodies = frames.feed(chunk)
                except FrameError as exc:
                    self._reject("frame", str(exc))
                    break
                fatal = False
                for body in bodies:
                    if not self._on_frame(body, conn):
                        fatal = True
                        break
                if fatal:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight readers; swallow so the
            # stream protocol's done-callback doesn't log a spurious error.
            pass
        finally:
            if close_on_exit and not writer.is_closing():
                writer.close()

    def _on_frame(self, body: bytes, conn: _ConnState) -> bool:
        """Dispatch one frame by kind; False means close the connection."""
        self.wire["frames_received"] += 1
        kind = body[0]
        blob = body[1:]
        if kind == _KIND_JSON:
            self._on_json_frame(blob, conn)
            return True
        if kind == _KIND_SEGMENT:
            return self._on_segment(blob, conn)
        if kind == _KIND_HELLO:
            self._on_hello(blob, conn)
            return True
        if kind == _KIND_ACK:
            self._on_ack(blob, conn)
            return True
        # Unknown kind: drop the frame, keep the connection — a newer
        # peer may interleave kinds this build does not know.
        self._reject("frame", f"unknown frame kind 0x{kind:02x}")
        return True

    def _on_json_frame(self, blob: bytes, conn: _ConnState) -> None:
        try:
            sender, recipient, payload = self.auth.open(blob)
        except AuthError as exc:
            self._reject(exc.kind, exc.detail)
            return
        try:
            message = decode_message(payload)
        except CodecError as exc:
            self._reject("codec", str(exc))
            return
        if sender not in self.peers and sender not in self.nodes:
            # Transient client (no server of its own): remember the way back.
            self._return_routes[sender] = conn.writer
        node = self.nodes.get(recipient)
        if node is None:
            self._count_drop(recipient, "unknown recipient")
            return
        self._runtime.deliver(sender, recipient, message)

    def _on_segment(self, blob: bytes, conn: _ConnState) -> bool:
        """Handle one coalesced binary segment; False closes the stream."""
        if conn.decoder is None:
            # Segments before a completed handshake can only mean the
            # peer thinks this connection negotiated binary and we do
            # not — dictionary state is unknowable, so reset the
            # connection rather than guess.
            self._reject("frame", "binary segment before negotiation")
            return False
        try:
            sender, _recipient, items = self.auth.open_segment(blob)
        except AuthError as exc:
            self._reject(exc.kind, exc.detail)
            # The decoder never saw the segment's definitions, so the
            # dictionaries have diverged; reset the connection.
            return False
        self.wire["segments_received"] += 1
        self.wire["segment_msgs_received"] += len(items)
        for src, dst, body in items:
            try:
                message = conn.decoder.decode(body)
            except CodecError as exc:
                # Any mid-segment decode failure leaves the dictionary
                # in an unknown state: connection-fatal by design.
                self._reject("codec", str(exc))
                return False
            if src not in self.peers and src not in self.nodes:
                self._return_routes[src] = conn.writer
                self._return_conns[src] = conn
            node = self.nodes.get(dst)
            if node is None:
                self._count_drop(dst, "unknown recipient")
                continue
            self._runtime.deliver(src, dst, message)
        return True

    def _on_hello(self, blob: bytes, conn: _ConnState) -> None:
        try:
            sender, recipient, payload = self.auth.open(blob)
        except AuthError as exc:
            self._reject(exc.kind, exc.detail)
            return
        try:
            fields = json.loads(payload.decode("utf-8"))
            wanted = fields["codec"]
            if not isinstance(wanted, str):
                raise TypeError("codec must be a string")
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            self._reject("codec", f"bad hello: {exc}")
            return
        accepted = {"json", "binary"} if self.accept_binary else {"json"}
        if wanted in accepted:
            verdict, reason = True, ""
            if wanted == "binary":
                conn.decoder = BinaryDecoder()
                conn.encoder = BinaryEncoder()
                conn.reply_label = recipient
                conn.peer_name = sender
        else:
            # Structured rejection: counted, answered, connection kept.
            verdict, reason = False, f"codec {wanted!r} not accepted"
            self.auth.rejected["negotiation"] += 1
            self._reject("negotiation", reason)
        ack = json.dumps(
            {"accept": verdict, "codec": wanted if verdict else "json", "reason": reason}
        ).encode("utf-8")
        frame = encode_frame(_ACK_PREFIX + self.auth.seal(recipient, sender, ack))
        try:
            conn.writer.write(frame)
        except (ConnectionError, OSError):
            return
        self._wire_wrote(len(frame))

    def _on_ack(self, blob: bytes, conn: _ConnState) -> None:
        try:
            sender, _recipient, payload = self.auth.open(blob)
        except AuthError as exc:
            self._reject(exc.kind, exc.detail)
            return
        waiter = self._hello_waiters.get(sender)
        if waiter is None or waiter.done():
            self._reject("frame", f"unsolicited codec ack from {sender}")
            return
        try:
            fields = json.loads(payload.decode("utf-8"))
            accepted = bool(fields["accept"])
            codec = fields["codec"] if accepted else "json"
            if codec not in CODECS:
                raise ValueError(f"unknown codec {codec!r}")
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._reject("codec", f"bad codec ack: {exc}")
            waiter.set_result("json")
            return
        if codec == "binary":
            # Reply segments from this endpoint arrive on this same
            # connection; mirror its encoder with a fresh decoder.
            conn.decoder = BinaryDecoder()
        waiter.set_result(codec)

    # -- transmission -----------------------------------------------------------
    def send(self, src: Address, dst: Address, message: Any) -> None:
        src_node = self.nodes.get(src)
        if src_node is not None and not src_node.up:
            self._count_drop(dst, "sender down")
            return
        if self.connectivity is not None and not self.connectivity.allows(src, dst):
            self._count_drop(dst, "partitioned")
            return
        self.messages_sent += 1
        if self.tracer.wants(TraceKind.MSG_SENT):
            self.tracer.publish(
                TraceKind.MSG_SENT, src, dst=dst, message_kind=type(message).__name__
            )
        else:
            self.tracer.bump(TraceKind.MSG_SENT)
        binary = self.codec == "binary"
        if dst in self.nodes:
            # Local loopback still goes through the codec so both halves
            # of a conversation see identically-normalised messages.
            try:
                if binary:
                    wire = decode_bin(encode_bin(message))
                else:
                    wire = decode_message(encode_message(message))
            except CodecError as exc:
                self._count_drop(dst, f"codec: {exc}")
                return
            self._runtime.deliver(src, dst, wire)
            return
        if binary:
            if dst in self.peers:
                self._defer(self._pending, src, dst, message)
                return
            route_conn = self._return_conns.get(dst)
            if (
                route_conn is not None
                and route_conn.encoder is not None
                and not route_conn.writer.is_closing()
            ):
                self._defer(self._pending_routes, src, dst, message)
                return
            # No binary path to this destination: fall through to the
            # per-message JSON frame (JSON return route or drop).
        try:
            frame = encode_frame(
                _JSON_PREFIX + self.auth.seal(src, dst, encode_message(message))
            )
        except (CodecError, FrameError) as exc:
            self._count_drop(dst, f"encode: {exc}")
            return
        if dst in self.peers:
            if dst not in self._links:
                host, port = self.peers[dst]
                self._links[dst] = _PeerLink(self, dst, host, port)
            if not self._links[dst].enqueue(frame):
                self._count_drop(dst, "link queue full")
            return
        route = self._return_routes.get(dst)
        if route is not None and not route.is_closing():
            try:
                route.write(frame)
            except (ConnectionError, OSError):
                self._return_routes.pop(dst, None)
                self._count_drop(dst, "return route lost")
                return
            self._wire_wrote(len(frame))
            return
        self._count_drop(dst, "unknown destination")

    def _defer(
        self,
        buffer: Dict[Address, List[Tuple[Address, Any]]],
        src: Address,
        dst: Address,
        message: Any,
    ) -> None:
        """Buffer one send for the next flush (binary mode only)."""
        buffer.setdefault(dst, []).append((src, message))
        self._pending_count += 1
        if self._pending_count >= _FLUSH_LIMIT:
            self.flush()
        else:
            # Sends can originate outside a driver pass (tests, admin
            # paths); make sure a driver pass — and therefore a flush —
            # happens promptly either way.
            self._runtime.wake()

    def flush(self) -> None:
        """Pack buffered sends into per-endpoint segments and ship them.

        Called by the driver once per pass (its explicit flush bound:
        messages never wait longer than the driver pass that produced
        them) and by :meth:`_defer` when a single pass buffers
        :data:`_FLUSH_LIMIT` messages.  A batch for an open, idle link
        is written at once (:meth:`_BinLink.write_now`); the link's
        queue and writer task take the rest.
        """
        if not self._pending and not self._pending_routes:
            return
        if self._pending:
            by_endpoint: Dict[Tuple[str, int], List[Tuple[Address, Address, Any]]] = {}
            for dst, entries in self._pending.items():
                endpoint = self.peers[dst]
                batch = by_endpoint.setdefault(endpoint, [])
                for src, message in entries:
                    batch.append((src, dst, message))
            self._pending.clear()
            for endpoint, batch in by_endpoint.items():
                link = self._bin_links.get(endpoint)
                if link is None:
                    link = self._bin_links[endpoint] = _BinLink(self, *endpoint)
                if not link.write_now(batch) and not link.enqueue(batch):
                    link._drop_batch(batch, "link queue full")
        if self._pending_routes:
            by_conn: Dict[int, Tuple[_ConnState, List[Tuple[Address, Address, Any]]]] = {}
            for dst, entries in self._pending_routes.items():
                conn = self._return_conns.get(dst)
                if (
                    conn is None
                    or conn.encoder is None
                    or conn.writer.is_closing()
                ):
                    for _src, _message in entries:
                        self._count_drop(dst, "return route lost")
                    continue
                _conn, batch = by_conn.setdefault(id(conn), (conn, []))
                for src, message in entries:
                    batch.append((src, dst, message))
            self._pending_routes.clear()
            for conn, batch in by_conn.values():
                self._write_reply_segment(conn, batch)
        self._pending_count = 0

    def _write_reply_segment(
        self, conn: _ConnState, batch: List[Tuple[Address, Address, Any]]
    ) -> None:
        """Seal one reply segment down a negotiated inbound connection."""
        assert conn.encoder is not None and conn.reply_label and conn.peer_name
        items: List[Tuple[str, str, bytes]] = []
        for src, dst, message in batch:
            try:
                items.append((src, dst, conn.encoder.encode(message)))
            except CodecError as exc:
                self._count_drop(dst, f"encode: {exc}")
        if not items:
            return
        try:
            frame = encode_frame(
                _SEGMENT_PREFIX
                + self.auth.seal_segment(conn.reply_label, conn.peer_name, items)
            )
        except FrameError as exc:
            for _src, dst, _message in batch:
                self._count_drop(dst, f"encode: {exc}")
            return
        try:
            conn.writer.write(frame)
        except (ConnectionError, OSError):
            for _src, dst, _message in batch:
                self._count_drop(dst, "return route lost")
            return
        self._wire_wrote(len(frame))
        self.wire["segments_sent"] += 1
        self.wire["segment_msgs_sent"] += len(items)

    def _deliver_now(self, src: Address, dst: Address, message: Any) -> None:
        """Hand a queued inbound message to its node (driver pass only)."""
        node = self.nodes.get(dst)
        if node is None or not node.up:
            self._count_drop(dst, "recipient down")
            return
        self.messages_delivered += 1
        if self.tracer.wants(TraceKind.MSG_DELIVERED):
            self.tracer.publish(
                TraceKind.MSG_DELIVERED, dst, src=src, message_kind=type(message).__name__
            )
        else:
            self.tracer.bump(TraceKind.MSG_DELIVERED)
        node.handle_message(src, message)

    # -- bookkeeping -------------------------------------------------------------
    def _wire_wrote(self, nbytes: int, frames: int = 1) -> None:
        self.wire["bytes_sent"] += nbytes
        self.wire["frames_sent"] += frames

    def _count_drop(self, dst: Address, reason: str) -> None:
        self.messages_dropped += 1
        if self.tracer.wants(TraceKind.MSG_DROPPED):
            self.tracer.publish(TraceKind.MSG_DROPPED, "net", dst=dst, reason=reason)
        else:
            self.tracer.bump(TraceKind.MSG_DROPPED)

    def _reject(self, kind: str, detail: str) -> None:
        self.frames_rejected += 1
        if self.tracer.wants(TraceKind.MSG_DROPPED):
            self.tracer.publish(
                TraceKind.MSG_DROPPED, "net", reason=f"rejected:{kind}", detail=detail
            )
        else:
            self.tracer.bump(TraceKind.MSG_DROPPED)

    # -- shutdown ----------------------------------------------------------------
    async def close(self) -> None:
        self.flush()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self._links.values()):
            await link.close()
        self._links.clear()
        for bin_link in list(self._bin_links.values()):
            await bin_link.close()
        self._bin_links.clear()
        for waiter in self._hello_waiters.values():
            if not waiter.done():
                waiter.set_result("json")
        self._hello_waiters.clear()
        for route in list(self._return_routes.values()):
            if not route.is_closing():
                route.close()
        self._return_routes.clear()
        self._return_conns.clear()
