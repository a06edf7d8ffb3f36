"""Hostile clients against the TCP front door.

The acceptance bar (ISSUE 10): mid-request disconnects, garbage or
oversized frames, slowloris stalls, and expired deadlines must all
produce **typed frame-level errors or clean connection teardown** —
never an unresolved future, a hung socket, or a server crash.  Every
test here attacks with raw sockets (no client library to keep us
honest) while a well-behaved :class:`NetClient` victim confirms the
server keeps serving everyone else.

Conventions as in test_net_server.py: real server on an ephemeral
loopback port, stub engine, ``PYTEST_SEED``-driven randomness.
"""

import asyncio
import os
import random
import struct
import time
import zlib

from repro.obs import MetricsRegistry
from repro.serve import (
    BatchResult,
    BatchStats,
    Frontend,
    FrontendConfig,
    NetClient,
    NetServer,
    NetServerConfig,
)
from repro.serve.net.protocol import (
    FRAME_ERROR,
    FRAME_GOAWAY,
    FRAME_HELLO,
    FRAME_HELLO_OK,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    encode_frame,
    read_frame,
)

from tests.test_frontend import counted
from tests.test_net_server import assert_quiescent

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class StubEngine:
    def __init__(self, delay: float = 0.0):
        self.delay = delay

    def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                 min_chunk=None, deadline=None):
        if self.delay:
            time.sleep(self.delay)
        return BatchResult(
            results=[("echo", p) for _, p in jobs],
            stats=BatchStats(ops=len(jobs)),
        )


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def make_server(stub=None, **net_kwargs):
    fe = Frontend(
        stub if stub is not None else StubEngine(),
        config=FrontendConfig(max_batch=8, max_wait_ms=2.0),
        metrics=MetricsRegistry(),
    )
    net_kwargs.setdefault("handshake_timeout_s", 0.3)
    net_kwargs.setdefault("frame_timeout_s", 0.3)
    return NetServer(frontend=fe, metrics=MetricsRegistry(),
                     config=NetServerConfig(port=0, **net_kwargs))


async def _victim_still_served(server) -> None:
    """A well-behaved client must get clean service right now."""
    async with await NetClient.connect("127.0.0.1", server.port) as victim:
        assert await victim.submit("sm", (42, None)) == ("echo", (42, None))


async def _handshake_raw(port):
    """Raw-socket HELLO; returns (reader, writer) ready for abuse."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FRAME_HELLO, 0,
                              {"versions": [1], "codecs": ["json"]}))
    await writer.drain()
    frame = await read_frame(reader, max_frame=1 << 20)
    assert frame.type == FRAME_HELLO_OK
    return reader, writer


async def _read_until_eof(reader, timeout=5.0):
    return await asyncio.wait_for(reader.read(), timeout=timeout)


class TestGarbageFrames:
    def test_garbage_instead_of_hello(self):
        async def body():
            server = await make_server().start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(_rng("garbage-hello").randbytes(64))
                await writer.drain()
                data = await _read_until_eof(reader)
                writer.close()
                # Either a typed ERROR frame arrived or the connection
                # just closed; both are clean teardown, not a hang.
                assert data is not None
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)
            assert counted(server, "repro_net_protocol_errors_total") >= 1

        run(body())

    def test_garbage_after_handshake_gets_typed_error(self):
        async def body():
            server = await make_server().start()
            try:
                reader, writer = await _handshake_raw(server.port)
                # A length prefix that promises a valid-sized frame full
                # of garbage: bad version byte, undecodable body.
                evil = _rng("garbage-frame").randbytes(40)
                writer.write(struct.pack(">I", len(evil)) + evil)
                await writer.drain()
                frame = await read_frame(reader, max_frame=1 << 20)
                assert frame.type == FRAME_ERROR
                assert frame.body["error"] in (
                    "bad_version", "bad_type", "bad_flags", "bad_codec",
                    "bad_body",
                )
                assert await _read_until_eof(reader) == b""
                writer.close()
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_oversized_frame_rejected_without_buffering(self):
        async def body():
            server = await make_server(max_frame_bytes=4096).start()
            try:
                reader, writer = await _handshake_raw(server.port)
                # Announce a 256 MiB frame.  The server must reject it
                # from the prefix alone — we never send the body.
                writer.write(struct.pack(">I", 256 << 20))
                await writer.drain()
                frame = await read_frame(reader, max_frame=1 << 20)
                assert frame.type == FRAME_ERROR
                assert frame.body["error"] == "frame_too_large"
                assert await _read_until_eof(reader) == b""
                writer.close()
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_forbidden_frame_type_gets_typed_error(self):
        async def body():
            server = await make_server().start()
            try:
                reader, writer = await _handshake_raw(server.port)
                # RESPONSE is server->client only.
                writer.write(encode_frame(FRAME_RESPONSE, 9,
                                          {"status": "ok"}))
                await writer.drain()
                frame = await read_frame(reader, max_frame=1 << 20)
                assert frame.type == FRAME_ERROR
                assert frame.body["error"] == "bad_type"
                writer.close()
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_undecodable_payload_is_per_request_not_fatal(self):
        async def body():
            server = await make_server().start()
            try:
                reader, writer = await _handshake_raw(server.port)
                writer.write(encode_frame(FRAME_REQUEST, 5, {
                    "kind": "sm",
                    "payload": {"__wire__": "flux-capacitor"},
                }))
                writer.write(encode_frame(FRAME_REQUEST, 6, {
                    "no-kind-at-all": True,
                }))
                await writer.drain()
                seen = {}
                for _ in range(2):
                    frame = await read_frame(reader, max_frame=1 << 20)
                    assert frame.type == FRAME_RESPONSE
                    seen[frame.request_id] = frame.body
                assert seen[5]["status"] == "failed"
                assert seen[5]["kind"] == "value"
                assert seen[6]["status"] == "failed"
                assert seen[6]["kind"] == "value"
                writer.close()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())


class TestSlowloris:
    def test_silent_connection_is_cut_at_handshake_timeout(self):
        async def body():
            server = await make_server(handshake_timeout_s=0.15).start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                t0 = time.perf_counter()
                data = await _read_until_eof(reader)
                elapsed = time.perf_counter() - t0
                writer.close()
                assert elapsed < 5.0, "silent socket held far past timeout"
                assert data is not None
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_partial_frame_drip_is_cut_at_frame_timeout(self):
        async def body():
            server = await make_server(frame_timeout_s=0.15).start()
            try:
                reader, writer = await _handshake_raw(server.port)
                good = encode_frame(FRAME_REQUEST, 7, {"kind": "sm",
                                                       "payload": 1})
                # Send the length prefix and half the frame, then stall.
                writer.write(good[: len(good) // 2])
                await writer.drain()
                t0 = time.perf_counter()
                data = await _read_until_eof(reader)
                elapsed = time.perf_counter() - t0
                writer.close()
                assert elapsed < 5.0, "stalled frame held far past timeout"
                # The server said why before hanging up (typed ERROR),
                # or at minimum closed cleanly.
                assert data is not None
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)
            assert counted(server, "repro_net_protocol_errors_total") >= 1

        run(body())


class TestDisconnects:
    def test_mid_request_disconnect_discards_quietly(self):
        async def body():
            stub = StubEngine(delay=0.02)
            server = await make_server(stub).start()
            try:
                reader, writer = await _handshake_raw(server.port)
                for i in range(8):
                    writer.write(encode_frame(FRAME_REQUEST, 100 + i,
                                              {"kind": "sm", "payload": i}))
                await writer.drain()
                # Vanish while everything is queued or in flight.
                writer.close()
                # The server must fully release the connection...
                for _ in range(200):
                    if server.connections == 0:
                        break
                    await asyncio.sleep(0.01)
                assert server.connections == 0
                # ...and still serve the well-behaved.
                await _victim_still_served(server)
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_disconnect_storm_under_load(self):
        async def body():
            stub = StubEngine(delay=0.005)
            server = await make_server(stub).start()
            rng = _rng("storm")
            try:
                async def abuser(i):
                    reader, writer = await _handshake_raw(server.port)
                    for j in range(rng.randrange(1, 6)):
                        writer.write(encode_frame(
                            FRAME_REQUEST, i * 100 + j,
                            {"kind": "sm", "payload": j},
                        ))
                    await writer.drain()
                    await asyncio.sleep(rng.uniform(0.0, 0.03))
                    writer.close()  # no GOAWAY, no goodbye

                async def victim():
                    async with await NetClient.connect(
                        "127.0.0.1", server.port
                    ) as c:
                        out = await asyncio.gather(
                            *[c.submit("sm", (i, None)) for i in range(20)]
                        )
                        assert out == [("echo", (i, None))
                                       for i in range(20)]

                await asyncio.gather(
                    victim(), *[abuser(i) for i in range(12)]
                )
                for _ in range(200):
                    if server.connections == 0:
                        break
                    await asyncio.sleep(0.01)
                assert server.connections == 0
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_client_library_surfaces_connection_loss(self):
        # The other side of the contract: when the *server* vanishes
        # mid-request, the client library must resolve every
        # outstanding future with ConnectionLostError, not hang.
        from repro.serve.net.protocol import ConnectionLostError

        async def body():
            stub = StubEngine(delay=0.05)
            server = await make_server(stub).start()
            client = await NetClient.connect("127.0.0.1", server.port)
            futs = [
                asyncio.ensure_future(client.submit("sm", (i, None)))
                for i in range(6)
            ]
            await asyncio.sleep(0.02)
            await server.aclose(drain=False)  # abandon, don't drain
            await server.frontend.aclose(drain=False)
            assert_quiescent(server)
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            for o in outcomes:
                # Typed overload (abandoned at the drain wall), typed
                # connection loss, or a completed echo — never a hang.
                from repro.serve import Overloaded
                from repro.serve.net import NetClientClosed

                assert (
                    isinstance(o, (ConnectionLostError, NetClientClosed,
                                   Overloaded))
                    or (isinstance(o, tuple) and o[0] == "echo")
                ), o
            await client.aclose()

        run(body())


class TestExpiredDeadlines:
    def test_already_expired_budget_never_hangs_the_socket(self):
        async def body():
            stub = StubEngine(delay=0.05)
            server = await make_server(stub).start()
            try:
                reader, writer = await _handshake_raw(server.port)
                # A microscopic budget: by dispatch time it is dust.
                for i in range(4):
                    writer.write(encode_frame(FRAME_REQUEST, 200 + i, {
                        "kind": "sm", "payload": i,
                        "deadline_ms": 0.0001,
                    }))
                await writer.drain()
                got = {}
                for _ in range(4):
                    frame = await asyncio.wait_for(
                        read_frame(reader, max_frame=1 << 20), timeout=10
                    )
                    assert frame.type == FRAME_RESPONSE
                    got[frame.request_id] = frame.body
                for i in range(4):
                    body_i = got[200 + i]
                    assert body_i["status"] == "failed"
                    assert body_i["kind"] == "deadline"
                writer.close()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert_quiescent(server)

        run(body())

    def test_goaway_is_sent_to_idle_connections_on_drain(self):
        async def body():
            server = await make_server().start()
            reader, writer = await _handshake_raw(server.port)
            closer = asyncio.ensure_future(server.aclose())
            frame = await asyncio.wait_for(
                read_frame(reader, max_frame=1 << 20), timeout=10
            )
            assert frame.type == FRAME_GOAWAY
            assert await _read_until_eof(reader) == b""
            writer.close()
            await closer
            await server.frontend.aclose()
            assert_quiescent(server)

        run(body())
