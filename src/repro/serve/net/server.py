"""The TCP front door: many sockets, one fairly-shared Frontend.

:class:`NetServer` exposes :meth:`Frontend.submit
<repro.serve.frontend.Frontend.submit>` over the framed protocol of
:mod:`repro.serve.net.protocol`.  Design decisions, in the order they
matter under fan-in:

**Per-connection fairness (round-robin admission).**  Frames are not
submitted to the Frontend straight off the socket.  Each connection
parses into its own bounded pending queue, and a single dispatcher
grants one request per connection per rotation — so a firehose client
that keeps 10 000 requests on the wire interleaves 1:1 with a client
that sends one request at a time.  The firehose's surplus stays in
*its* queue (and, past :attr:`NetServerConfig.max_inflight_per_conn`,
in its kernel socket buffer — the server simply stops reading, which is
TCP's own backpressure), never in front of other clients.

**Load shedding under fan-in.**  Three nested walls:

1. per-connection: ``max_inflight_per_conn`` outstanding requests; at
   the wall the read loop pauses (backpressure, nothing lost);
2. global: ``max_pending_total`` parsed-but-undispatched requests
   across all connections; at the wall the server sheds
   **oldest-deadline-first** — the request whose budget expires
   soonest (it is the least likely to make it anyway; requests without
   deadlines shed oldest-received first) resolves as a typed
   ``Overloaded`` response frame;
3. the Frontend's own ``block`` / ``reject`` / ``shed`` admission
   policy applies to every dispatched request exactly as it does
   in-process — a ``reject``-policy refusal comes back as an
   ``Overloaded`` frame, never a dropped connection.

**Deadline propagation.**  A client sends a *relative* budget
(``deadline_ms``); the server clamps it to the Frontend's
``default_deadline_ms`` (a client cannot buy more time than the
operator configured) and converts it to an absolute expiry on arrival,
so time spent queued in the net layer counts.  An expired request
resolves as a typed ``Failed(kind="deadline")`` response frame — never
a silently hung socket.

**Graceful drain.**  :meth:`NetServer.aclose` (and the SIGTERM/SIGINT
handlers :meth:`install_signal_handlers` installs) stops accepting
connections, sends every client a GOAWAY frame, stops reading new
frames, drains every already-received request through the Frontend
(bounded by ``drain_timeout_s``; stragglers resolve as ``Overloaded``
frames), then closes the connections and — when the server owns its
Frontend — drains the Frontend itself.

**Abuse containment.**  Oversized frames are rejected from their
four-byte length prefix (the body is never buffered); garbage and
out-of-contract frames produce a typed ERROR frame and a closed
connection; a peer that stalls mid-frame (slowloris) is cut off by
``frame_timeout_s``; a connection that dies mid-request is torn down
and its undelivered responses discarded, while its already-dispatched
work completes harmlessly in the Frontend.  None of these paths can
leave an unresolved future or take the server down.

Everything observable lands in :mod:`repro.obs` under ``repro_net_*``
(see docs/observability.md); the registry is the only record.  Queue
occupancy is never counted separately: :attr:`NetServer.pending` and
:attr:`NetServer.inflight` are computed from the connections' queues
and the live dispatch tasks.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, Optional, Set, Tuple

from ...obs import MetricsRegistry, get_registry
from ..engine import BatchEngine
from ..faults import (
    KIND_DEADLINE,
    KIND_INTERNAL,
    KIND_VALUE,
    Failed,
    Ok,
    Overloaded,
)
from ..frontend import Frontend, FrontendClosed
from .protocol import (
    DEFAULT_MAX_FRAME,
    FRAME_ERROR,
    FRAME_GOAWAY,
    FRAME_HELLO,
    FRAME_HELLO_OK,
    FRAME_NAMES,
    FRAME_PING,
    FRAME_PONG,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    HEADER_SIZE,
    PROTOCOL_VERSION,
    Frame,
    FrameTooLarge,
    ProtocolError,
    SUPPORTED_CODECS,
    WireCodecError,
    codec_id,
    encode_body,
    encode_frame,
    read_frame,
    wire_decode,
    wire_encode,
)

__all__ = ["NetServer", "NetServerConfig"]

#: On-wire envelope of every frame: 4-byte length prefix + fixed header.
_ENVELOPE = 4 + HEADER_SIZE


def _frame_size(frame: Frame) -> int:
    """Approximate inbound wire size for the bytes counters."""
    try:
        return _ENVELOPE + len(encode_body(frame.body, frame.codec))
    except Exception:  # pragma: no cover - counting must never raise
        return _ENVELOPE


@dataclass(frozen=True)
class NetServerConfig:
    """Transport-layer tuning knobs (the Frontend keeps its own).

    Attributes:
        host: bind address.
        port: bind port (0 = ephemeral; read :attr:`NetServer.port`).
        max_frame_bytes: per-frame size bound, both directions; a
            larger length prefix is rejected before the body is read.
        max_inflight_per_conn: outstanding (queued + dispatched)
            requests one connection may hold; at the wall the read
            loop pauses, pushing backpressure into the client's socket.
        max_pending_total: parsed-but-undispatched requests across all
            connections; beyond it the server sheds
            oldest-deadline-first with typed ``Overloaded`` frames.
        max_dispatch_inflight: requests concurrently dispatched into
            the Frontend across all connections.  This bound is what
            makes round-robin grants meaningful: with unbounded
            dispatch every arrival would be handed straight to the
            Frontend's FIFO lanes and fairness would degenerate to
            arrival order.  Size it at a few engine flushes
            (several ``max_batch``); make it the bottleneck and
            requests accumulate per connection where the RR grant —
            and, past ``max_pending_total``, the shed policy — decides
            who goes next.
        max_connections: concurrent connections; extras are refused
            with a GOAWAY frame at accept time.
        handshake_timeout_s: a new socket must complete HELLO within
            this long or be closed (slowloris defence, phase one).
        frame_timeout_s: once a frame's length prefix arrives, the
            rest must arrive within this long (slowloris, phase two).
        drain_timeout_s: bound on graceful drain; stragglers resolve
            as ``Overloaded`` frames when it expires.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame_bytes: int = DEFAULT_MAX_FRAME
    max_inflight_per_conn: int = 32
    max_pending_total: int = 1024
    max_dispatch_inflight: int = 64
    max_connections: int = 256
    handshake_timeout_s: float = 5.0
    frame_timeout_s: float = 30.0
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
        if self.max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be >= 1")
        if self.max_pending_total < 1:
            raise ValueError("max_pending_total must be >= 1")
        if self.max_dispatch_inflight < 1:
            raise ValueError("max_dispatch_inflight must be >= 1")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        for name in ("handshake_timeout_s", "frame_timeout_s", "drain_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class _NetRequest:
    """One parsed REQUEST frame waiting for its round-robin grant."""

    request_id: int
    kind: str
    payload: Any
    received_at: float
    #: Absolute ``time.perf_counter()`` expiry (clamped), or None.
    expires_at: Optional[float] = None

    def shed_key(self) -> Tuple[int, float]:
        """Oldest-deadline-first ordering: soonest expiry sheds first;
        deadline-less requests shed oldest-received first, after every
        deadlined one."""
        if self.expires_at is not None:
            return (0, self.expires_at)
        return (1, self.received_at)


class _Conn:
    """Per-connection state: queue, in-flight count, write ordering."""

    __slots__ = (
        "id", "peer", "reader", "writer", "codec", "pending", "inflight",
        "write_lock", "alive", "space", "idle", "goaway_sent", "task",
    )

    def __init__(self, conn_id: int, peer: str, reader, writer, codec: int):
        self.id = conn_id
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.pending: Deque[_NetRequest] = deque()
        self.inflight = 0
        self.write_lock = asyncio.Lock()
        self.alive = True
        #: Set while outstanding < max_inflight_per_conn (read may resume).
        self.space = asyncio.Event()
        self.space.set()
        #: Set while outstanding == 0 (safe to close after client GOAWAY).
        self.idle = asyncio.Event()
        self.idle.set()
        self.goaway_sent = False
        self.task: Optional[asyncio.Task] = None

    @property
    def outstanding(self) -> int:
        return len(self.pending) + self.inflight


class NetServer:
    """Serve a :class:`~repro.serve.frontend.Frontend` over TCP.

    Construct with an existing Frontend (shared ownership: the server
    never closes it) or let the server build one from ``engine`` /
    ``frontend_config`` and own its lifecycle::

        server = NetServer(frontend=my_frontend, port=0)
        await server.start()
        print(server.port)          # ephemeral port actually bound
        ...
        await server.aclose()       # graceful drain + GOAWAY

    or as an async context manager (``async with NetServer(...) as s:``).
    """

    def __init__(
        self,
        frontend: Optional[Frontend] = None,
        config: Optional[NetServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        engine: Optional[BatchEngine] = None,
        frontend_config=None,
        **overrides: Any,
    ):
        self.config = replace(config or NetServerConfig(), **overrides)
        self.metrics = metrics if metrics is not None else get_registry()
        if frontend is not None:
            if engine is not None or frontend_config is not None:
                raise ValueError(
                    "pass either an existing frontend or engine/frontend_config"
                )
            self.frontend = frontend
            self._owns_frontend = False
        else:
            self.frontend = Frontend(
                engine, config=frontend_config, metrics=self.metrics
            )
            self._owns_frontend = True
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Dict[int, _Conn] = {}
        self._next_conn_id = 1
        self._rr_pos = 0
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._dispatch_tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "NetServer":
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-net-dispatch"
        )
        return self

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def connections(self) -> int:
        """Connections currently in the established state."""
        return len(self._conns)

    @property
    def pending(self) -> int:
        """Parsed, undispatched requests across registered connections."""
        return sum(len(conn.pending) for conn in self._conns.values())

    @property
    def inflight(self) -> int:
        """Requests dispatched into the Frontend and not yet answered."""
        return len(self._dispatch_tasks)

    def _update_idle(self) -> None:
        """Derive the drain signal from the queues it describes."""
        if self.pending or self.inflight:
            self._idle.clear()
        else:
            self._idle.set()

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(self, loop=None) -> None:
        """Route SIGTERM/SIGINT into a graceful :meth:`aclose`."""
        import signal

        loop = loop or asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.aclose())
            )

    async def serve_until_closed(self) -> None:
        """Block until :meth:`aclose` completes (e.g. from a signal)."""
        while not self._closed:
            await asyncio.sleep(0.05)

    async def aclose(self, drain: bool = True) -> None:
        """Stop accepting, GOAWAY every client, drain, close.

        ``drain=True`` (default) resolves every already-received
        request through the Frontend (bounded by ``drain_timeout_s``);
        ``drain=False`` resolves them as ``Overloaded`` frames
        immediately.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # GOAWAY first (clients stop sending), then stop the read loops.
        for conn in list(self._conns.values()):
            await self._send_frame(conn, FRAME_GOAWAY, 0,
                                   {"reason": "server draining"})
            conn.goaway_sent = True
        for conn in list(self._conns.values()):
            if conn.task is not None and not conn.task.done():
                conn.task.cancel()
        if drain:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass
        # Whatever is still queued (drain=False, or the timeout fired)
        # resolves as a typed Overloaded frame — never silence.
        for conn in list(self._conns.values()):
            while conn.pending:
                req = conn.pending.popleft()
                self._shed_counters("drain")
                await self._respond_overloaded(
                    conn, req.request_id, "server draining; request not executed"
                )
        self._update_idle()
        # In-flight dispatch tasks still resolve (their submits are in
        # the Frontend); give them the rest of the drain budget.
        if self._dispatch_tasks:
            await asyncio.wait(
                list(self._dispatch_tasks),
                timeout=self.config.drain_timeout_s,
            )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for conn in list(self._conns.values()):
            await self._close_conn(conn)
        if self._owns_frontend and not self.frontend.closed:
            await self.frontend.aclose(drain=drain)

    async def __aenter__(self) -> "NetServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection handling ----------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        cfg = self.config
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        if self._draining or len(self._conns) >= cfg.max_connections:
            reason = ("server draining" if self._draining
                      else f"connection limit ({cfg.max_connections}) reached")
            self.metrics.counter(
                "repro_net_connections_total", event="refused"
            ).inc()
            try:
                frame = encode_frame(FRAME_GOAWAY, 0, {"reason": reason},
                                     max_frame=cfg.max_frame_bytes)
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn: Optional[_Conn] = None
        try:
            conn = await self._handshake(reader, writer, peer)
        except (ProtocolError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            kind = exc.kind if isinstance(exc, ProtocolError) else "handshake"
            self._protocol_error_counters(kind)
            try:
                writer.write(encode_frame(
                    FRAME_ERROR, 0,
                    {"error": kind, "message": str(exc) or "handshake failed"},
                    max_frame=cfg.max_frame_bytes,
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn.task = asyncio.current_task()
        self._conns[conn.id] = conn
        self.metrics.counter("repro_net_connections_total", event="opened").inc()
        self.metrics.gauge("repro_net_connections_open").set(len(self._conns))
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            if self._draining:
                # aclose() stopped this read loop; the connection stays
                # registered so its queued requests drain to completion.
                return
            raise
        except (FrameTooLarge, ProtocolError) as exc:
            self._protocol_error_counters(exc.kind)
            await self._send_frame(conn, FRAME_ERROR, 0,
                                   {"error": exc.kind, "message": str(exc)})
            await self._conn_lost(conn)
        except asyncio.TimeoutError:
            # Slowloris: a frame opened and never finished arriving.
            self._protocol_error_counters("stall")
            await self._send_frame(conn, FRAME_ERROR, 0, {
                "error": "stall",
                "message": f"frame stalled past {cfg.frame_timeout_s:g} s",
            })
            await self._conn_lost(conn)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Mid-request disconnect: drop undeliverable work, keep serving.
            await self._conn_lost(conn)
        else:
            # Clean exit (client GOAWAY): drain this connection's
            # outstanding requests, then close.
            try:
                await asyncio.wait_for(conn.idle.wait(),
                                       timeout=cfg.drain_timeout_s)
            except asyncio.TimeoutError:
                pass
            except asyncio.CancelledError:
                if self._draining:
                    # aclose() took over; it drains and closes every
                    # still-registered connection itself.
                    return
                raise
            await self._close_conn(conn)

    async def _handshake(self, reader, writer, peer: str) -> _Conn:
        cfg = self.config
        frame = await read_frame(
            reader,
            max_frame=cfg.max_frame_bytes,
            first_byte_timeout=cfg.handshake_timeout_s,
            body_timeout=cfg.frame_timeout_s,
        )
        if frame.type != FRAME_HELLO:
            raise ProtocolError(
                "handshake", f"expected HELLO, got {frame.type_name}"
            )
        body = frame.body if isinstance(frame.body, dict) else {}
        versions = body.get("versions")
        if not isinstance(versions, list) or PROTOCOL_VERSION not in versions:
            raise ProtocolError(
                "bad_version",
                f"no common protocol version (client offers {versions!r})",
            )
        offered = body.get("codecs")
        if not isinstance(offered, list) or not offered:
            offered = ["json"]
        chosen = next((c for c in offered if c in SUPPORTED_CODECS), None)
        if chosen is None:
            raise ProtocolError(
                "bad_codec", f"no common codec (client offers {offered!r})"
            )
        conn = _Conn(self._next_conn_id, peer, reader, writer, codec_id(chosen))
        self._next_conn_id += 1
        hello_ok = {
            "version": PROTOCOL_VERSION,
            "codec": chosen,
            "max_frame": cfg.max_frame_bytes,
            "max_inflight": cfg.max_inflight_per_conn,
            "server": "repro-net",
        }
        # The HELLO exchange itself is always JSON (bootstrap).
        data = encode_frame(FRAME_HELLO_OK, frame.request_id, hello_ok,
                            max_frame=cfg.max_frame_bytes)
        writer.write(data)
        await writer.drain()
        self._record_out("hello_ok", len(data))
        return conn

    async def _read_loop(self, conn: _Conn) -> None:
        cfg = self.config
        while not self._draining:
            # Backpressure: at the per-connection wall we stop reading;
            # the client's unread frames wait in kernel buffers.
            while conn.outstanding >= cfg.max_inflight_per_conn:
                conn.space.clear()
                if conn.outstanding < cfg.max_inflight_per_conn:
                    break
                await conn.space.wait()
            frame = await read_frame(
                conn.reader,
                max_frame=cfg.max_frame_bytes,
                first_byte_timeout=None,  # idle connections are welcome
                body_timeout=cfg.frame_timeout_s,
            )
            self._record_in(frame.type_name, _frame_size(frame))
            if frame.type == FRAME_REQUEST:
                await self._accept_request(conn, frame)
            elif frame.type == FRAME_PING:
                await self._send_frame(conn, FRAME_PONG, frame.request_id, {})
            elif frame.type == FRAME_GOAWAY:
                return  # client is leaving; drain its outstanding, close
            else:
                raise ProtocolError(
                    "bad_type",
                    f"client may not send {frame.type_name} frames",
                )

    async def _accept_request(self, conn: _Conn, frame: Frame) -> None:
        if not conn.alive:
            # Frames still buffered on a torn-down connection: nothing
            # can be answered, so nothing is admitted.
            return
        now = time.perf_counter()
        body = frame.body if isinstance(frame.body, dict) else None
        if body is None or not isinstance(body.get("kind"), str):
            await self._respond_failed(conn, frame.request_id, Failed(
                kind=KIND_VALUE, message="REQUEST body must carry a 'kind' string",
            ))
            self._request_counters("?", "failed")
            return
        kind = body["kind"]
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool) or deadline_ms <= 0
        ):
            await self._respond_failed(conn, frame.request_id, Failed(
                kind=KIND_VALUE, message="deadline_ms must be a positive number",
            ))
            self._request_counters(kind, "failed")
            return
        try:
            payload = wire_decode(body.get("payload"))
        except WireCodecError as exc:
            await self._respond_failed(conn, frame.request_id, Failed(
                kind=KIND_VALUE, message=f"undecodable payload: {exc}",
            ))
            self._request_counters(kind, "failed")
            return
        # Deadline clamp: the client's relative budget never exceeds
        # the operator's default_deadline_ms.
        default_ms = self.frontend.config.default_deadline_ms
        if deadline_ms is None:
            effective_ms = default_ms
        elif default_ms is None:
            effective_ms = float(deadline_ms)
        else:
            effective_ms = min(float(deadline_ms), default_ms)
        req = _NetRequest(
            request_id=frame.request_id,
            kind=kind,
            payload=payload,
            received_at=now,
            expires_at=None if effective_ms is None
            else now + effective_ms / 1000.0,
        )
        if self.pending >= self.config.max_pending_total:
            victim_conn, victim = self._pick_shed_victim(conn, req)
            self._shed_counters("queue_full")
            await self._respond_overloaded(
                victim_conn, victim.request_id,
                f"server pending queue full "
                f"({self.config.max_pending_total}); request shed "
                f"oldest-deadline-first",
            )
            if victim is req:
                return
        conn.pending.append(req)
        self._update_idle()
        self.metrics.gauge(
            "repro_net_conn_queue_depth", mode="max"
        ).set(len(conn.pending))
        self._work.set()

    def _pick_shed_victim(
        self, incoming_conn: _Conn, incoming: _NetRequest
    ) -> Tuple[_Conn, _NetRequest]:
        """Oldest-deadline-first victim across every pending queue.

        The incoming request competes too: if *it* carries the soonest
        expiry it is shed on arrival, and an already-queued request
        survives.  The chosen queued victim is removed from its queue.
        """
        victim_conn, victim = incoming_conn, incoming
        for cand_conn in self._conns.values():
            for cand in cand_conn.pending:
                if cand.shed_key() < victim.shed_key():
                    victim_conn, victim = cand_conn, cand
        if victim is not incoming:
            victim_conn.pending.remove(victim)
            if victim_conn.outstanding < self.config.max_inflight_per_conn:
                victim_conn.space.set()
        return victim_conn, victim

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._work.clear()
            granted = self._grant_round()
            for conn, req in granted:
                task = loop.create_task(self._dispatch_one(conn, req))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_done)
            if not granted:
                await self._work.wait()

    def _grant_round(self):
        """One round-robin sweep: at most one grant per connection,
        bounded globally by ``max_dispatch_inflight`` open slots."""
        ids = list(self._conns)
        grants = []
        if not ids:
            return grants
        n = len(ids)
        start = self._rr_pos % n
        for off in range(n):
            if self.inflight + len(grants) >= self.config.max_dispatch_inflight:
                break
            conn = self._conns.get(ids[(start + off) % n])
            if conn is None or not conn.pending:
                continue
            req = conn.pending.popleft()
            conn.inflight += 1
            conn.idle.clear()
            self.metrics.counter("repro_net_rr_grants_total").inc()
            grants.append((conn, req))
        self._rr_pos = (start + 1) % max(1, n)
        return grants

    def _dispatch_done(self, task: asyncio.Task) -> None:
        self._dispatch_tasks.discard(task)
        self._update_idle()
        self._work.set()

    async def _dispatch_one(self, conn: _Conn, req: _NetRequest) -> None:
        try:
            now = time.perf_counter()
            if req.expires_at is not None and now >= req.expires_at:
                self.metrics.counter(
                    "repro_deadline_expired_total", stage="net"
                ).inc()
                await self._respond_failed(conn, req.request_id, Failed(
                    kind=KIND_DEADLINE,
                    message=(
                        f"deadline expired after "
                        f"{(now - req.received_at) * 1e3:.1f} ms in the "
                        f"network queue"
                    ),
                    latency=now - req.received_at,
                ))
                self._request_counters(req.kind, "failed")
                return
            budget = (None if req.expires_at is None
                      else req.expires_at - now)
            try:
                outcome = await self.frontend.submit_outcome(
                    req.kind, req.payload, deadline=budget
                )
            except Overloaded as exc:
                await self._respond_overloaded(conn, req.request_id, str(exc))
                return
            except FrontendClosed:
                await self._respond_overloaded(
                    conn, req.request_id, "frontend closed; request refused"
                )
                return
            except (ValueError, TypeError) as exc:
                # Unknown kind / malformed payload shape: a typed
                # per-request failure, never a dead connection.
                outcome = Failed(kind=KIND_VALUE, message=str(exc))
            if isinstance(outcome, Failed):
                await self._respond_failed(conn, req.request_id, outcome)
                self._request_counters(req.kind, "failed")
            else:
                value = outcome.value if isinstance(outcome, Ok) else outcome
                await self._respond_ok(conn, req.request_id, value)
                self._request_counters(req.kind, "ok")
            self.metrics.histogram(
                "repro_net_request_latency_seconds"
            ).observe(time.perf_counter() - req.received_at)
        finally:
            conn.inflight -= 1
            if conn.outstanding < self.config.max_inflight_per_conn:
                conn.space.set()
            if conn.outstanding == 0:
                conn.idle.set()

    # -- response writing ----------------------------------------------------
    async def _respond_ok(self, conn: _Conn, request_id: int, value: Any) -> None:
        try:
            body = {"status": "ok", "value": wire_encode(value)}
        except WireCodecError as exc:  # pragma: no cover - defensive
            await self._respond_failed(conn, request_id, Failed(
                kind=KIND_INTERNAL, message=f"unencodable result: {exc}",
            ))
            return
        await self._send_frame(conn, FRAME_RESPONSE, request_id, body)

    async def _respond_failed(self, conn: _Conn, request_id: int,
                              failure: Failed) -> None:
        await self._send_frame(conn, FRAME_RESPONSE, request_id, {
            "status": "failed",
            "kind": failure.kind,
            "message": failure.message,
            "index": failure.index,
            "latency": failure.latency,
        })

    async def _respond_overloaded(self, conn: _Conn, request_id: int,
                                  message: str) -> None:
        self._request_counters("?", "overloaded")
        await self._send_frame(conn, FRAME_RESPONSE, request_id, {
            "status": "overloaded",
            "message": message,
        })

    async def _send_frame(self, conn: _Conn, frame_type: int,
                          request_id: int, body: Any) -> bool:
        """Serialize + write one frame; False when the peer is gone."""
        if not conn.alive:
            return False
        try:
            data = encode_frame(
                frame_type, request_id, body, codec=conn.codec,
                max_frame=self.config.max_frame_bytes,
            )
        except FrameTooLarge:
            data = encode_frame(
                FRAME_RESPONSE, request_id,
                {"status": "failed", "kind": KIND_INTERNAL,
                 "message": "response exceeded the frame size bound",
                 "index": -1, "latency": 0.0},
                codec=conn.codec, max_frame=self.config.max_frame_bytes,
            )
        async with conn.write_lock:
            if not conn.alive:
                return False
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                await self._conn_lost(conn)
                return False
        self._record_out(FRAME_NAMES.get(frame_type, "?"), len(data))
        return True

    # -- teardown --------------------------------------------------------
    async def _conn_lost(self, conn: _Conn) -> None:
        """Abrupt teardown: peer vanished or violated the protocol.

        Undispatched requests are dropped (their responses have nowhere
        to go); dispatched ones complete in the Frontend and their
        responses are discarded by the ``alive`` guard.
        """
        if not conn.alive:
            return
        conn.alive = False
        conn.pending.clear()
        conn.space.set()
        if conn.outstanding == 0:
            conn.idle.set()
        self._unregister(conn)
        self._update_idle()
        try:
            conn.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - best effort
            pass

    async def _close_conn(self, conn: _Conn) -> None:
        """Orderly close after a drain (responses already written)."""
        if conn.alive:
            conn.alive = False
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._unregister(conn)

    def _unregister(self, conn: _Conn) -> None:
        if self._conns.pop(conn.id, None) is not None:
            self.metrics.counter(
                "repro_net_connections_total", event="closed"
            ).inc()
            self.metrics.gauge(
                "repro_net_connections_open"
            ).set(len(self._conns))

    # -- counters ----------------------------------------------------------
    def _record_in(self, type_name: str, nbytes: int) -> None:
        self.metrics.counter(
            "repro_net_frames_total", direction="in", type=type_name
        ).inc()
        self.metrics.counter(
            "repro_net_bytes_total", direction="in"
        ).inc(nbytes)

    def _record_out(self, type_name: str, nbytes: int) -> None:
        self.metrics.counter(
            "repro_net_frames_total", direction="out", type=type_name
        ).inc()
        self.metrics.counter(
            "repro_net_bytes_total", direction="out"
        ).inc(nbytes)

    def _request_counters(self, kind: str, outcome: str) -> None:
        self.metrics.counter(
            "repro_net_requests_total", kind=kind, outcome=outcome
        ).inc()

    def _shed_counters(self, reason: str) -> None:
        self.metrics.counter("repro_net_shed_total", reason=reason).inc()

    def _protocol_error_counters(self, kind: str) -> None:
        self.metrics.counter(
            "repro_net_protocol_errors_total", kind=kind
        ).inc()
