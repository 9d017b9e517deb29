"""Asyncio remote search endpoint: non-blocking client for the service.

:class:`AsyncRemoteTopKInterface` speaks the JSON wire format
(:mod:`repro.service.wire`) over **non-blocking sockets** driven by one
asyncio event loop, so hundreds of queries can be in flight without a
thread apiece.  It implements the
:class:`~repro.hiddendb.endpoint.AsyncSearchEndpoint` protocol (plus the
blocking ``query()`` / ``batch_query()`` bridge, so it also satisfies the
classic :class:`~repro.hiddendb.endpoint.SearchEndpoint` and drops into
serial strategies unchanged).

It owns no query semantics.  The cache and ledger mount, replay ids,
retry and backoff, response classification and the batch rounds are the
flows of :class:`~repro.service.client.QueryClientCore`, the same ones
the blocking :class:`~repro.service.client.RemoteTopKInterface` runs.
This module is only the transport that performs their effects:

* **an asyncio trampoline** -- ``_drive`` sends each ``Send`` effect over
  a pooled connection and awaits each ``Sleep`` (``asyncio.sleep`` by
  default);
* **connection pooling** -- keep-alive HTTP/1.1 connections are pooled on
  the client's private event loop and reused across queries; concurrent
  in-flight queries each hold one connection and return it on completion;
* **minimal HTTP parsing** -- responses are read with a purpose-built
  status-line / headers / ``Content-Length`` parser instead of the stdlib
  ``http.client`` machinery, which is a measurable per-query saving at
  high concurrency (the wire format is fixed and simple, so the client
  does the minimum work the format requires);
* **event-loop affinity** -- all I/O runs on one
  :class:`~repro.hiddendb.endpoint.EventLoopRunner` owned by the client,
  so pooled connections stay valid for the client's whole lifetime and
  ``close()`` releases everything deterministically.  ``aquery`` /
  ``abatch_query`` may be awaited from any loop; the work is marshalled
  to the client's loop and awaited without blocking the caller's loop.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
from typing import Any, Awaitable, Callable, Sequence

from ..hiddendb.endpoint import EventLoopRunner
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from .client import Flow, QueryClientCore, Send, Sleep, _Retriable
from .server import ANONYMOUS_KEY

#: Idle keep-alive connections retained per client.
DEFAULT_POOL_SIZE = 128


class _Connection:
    """One pooled keep-alive connection (reader/writer pair)."""

    __slots__ = ("reader", "writer")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    @property
    def usable(self) -> bool:
        return not self.writer.is_closing()

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


class AsyncRemoteTopKInterface(QueryClientCore):
    """An :class:`AsyncSearchEndpoint` speaking HTTP to a hidden-DB service.

    Construction performs the same ``/api/schema`` bootstrap as the sync
    client (blocking, on the client's private loop).  Parameters mirror
    :class:`~repro.service.client.RemoteTopKInterface`; ``sleep`` may be a
    plain callable or a coroutine function (tests pass a no-op),
    ``pool_size`` bounds the idle keep-alive connections retained.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str = ANONYMOUS_KEY,
        timeout: float = 30.0,
        max_retries: int = 8,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        cache_size: int | None = None,
        ledger=None,
        replay_nonce: str | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        sleep: Callable[[float], Awaitable[None] | None] = asyncio.sleep,
    ) -> None:
        self._init_core(
            url,
            api_key=api_key,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            backoff_cap=backoff_cap,
            cache_size=cache_size,
            ledger=ledger,
            replay_nonce=replay_nonce,
        )
        self._pool_size = pool_size
        self._sleep_fn = sleep
        #: Idle connections; touched only on the runner's loop, so no lock.
        self._pool: list[_Connection] = []
        self._runner = EventLoopRunner(name="repro-aclient")
        self._closed = False
        try:
            self._apply_metadata(
                self._run(self._request_flow("GET", "/api/schema"))
            )
        except BaseException:
            # A failed bootstrap must not leak the loop thread (callers
            # may retry construction in a supervisor loop).
            self.close()
            raise

    # ------------------------------------------------------------------
    # AsyncSearchEndpoint surface
    # ------------------------------------------------------------------
    async def aquery(self, query: Query) -> QueryResult:
        """Issue one query without blocking (or answer it from the cache).

        Awaitable from any event loop; the I/O runs on the client's own
        loop.  Semantics -- caching, billing, retry, error mapping,
        request-id replay -- are the shared ``query()`` flow's.
        """
        return await self._marshal(self._drive(self._query_flow(query)))

    async def abatch_query(
        self, queries: Sequence[Query]
    ) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one ``/api/batch`` trip.

        Per-item semantics and the ``partial_results`` contract are the
        shared ``batch_query()`` flow's.
        """
        return await self._marshal(
            self._drive(self._batch_flow(list(queries)))
        )

    def close(self) -> None:
        """Close every pooled connection and stop the client's loop."""
        if self._closed:
            return
        self._closed = True
        try:
            self._runner.run(self._drain_pool())
        except Exception:
            pass
        self._runner.close()

    def __enter__(self) -> "AsyncRemoteTopKInterface":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # loop marshalling
    # ------------------------------------------------------------------
    @property
    def aio_runner(self) -> EventLoopRunner:
        """The client's event-loop runner.

        Exposed so the async execution strategy can schedule transports
        directly on the loop that owns this client's connection pool --
        one cross-thread hop per query instead of two.
        """
        return self._runner

    async def _marshal(self, coro):
        """Run ``coro`` on the client's loop, awaited from any loop."""
        if asyncio.get_running_loop() is self._runner.loop:
            return await coro
        return await asyncio.wrap_future(self._runner.submit(coro))

    # ------------------------------------------------------------------
    # transport: an asyncio trampoline over pooled connections
    # ------------------------------------------------------------------
    def _run(self, flow: Flow) -> Any:
        """Blocking bridge: drive ``flow`` on the client's loop."""
        return self._runner.run(self._drive(flow))

    async def _drive(self, flow: Flow) -> Any:
        reply = failure = None
        while True:
            try:
                if failure is None:
                    effect = flow.send(reply)
                else:
                    effect = flow.throw(failure)
            except StopIteration as done:
                return done.value
            reply = failure = None
            if type(effect) is Sleep:
                outcome = self._sleep_fn(effect.seconds)
                if inspect.isawaitable(outcome):
                    await outcome
                continue
            try:
                reply = await self._exchange(effect)
            except _Retriable as exc:
                failure = exc

    async def _exchange(self, send: Send) -> tuple[int, dict[str, str], bytes]:
        """One HTTP round trip on a pooled connection."""
        data = send.body or b""
        head = f"{send.method} {send.path} HTTP/1.1\r\n"
        head += f"Host: {self._netloc}\r\n"
        for name, value in send.headers.items():
            head += f"{name}: {value}\r\n"
        head += f"Content-Length: {len(data)}\r\n\r\n"
        held: list[_Connection] = []  # visible to cleanup if we time out

        async def exchange():
            conn = await self._acquire()
            held.append(conn)
            conn.writer.write(head.encode("latin-1") + data)
            await conn.writer.drain()
            return await self._read_response(conn.reader)

        try:
            # One timeout bounds the whole round trip -- connect, write,
            # response -- matching the sync client's socket timeout.
            status, headers, raw = await asyncio.wait_for(
                exchange(), self._timeout
            )
        except asyncio.CancelledError:
            # A cancelled drain abandons the request mid-flight; the
            # connection's stream state is unknown, so drop it.
            for conn in held:
                conn.close()
            raise
        except (
            OSError,
            EOFError,
            ConnectionError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ) as exc:
            # Transient transport failure (refused mid-restart, reset,
            # timeout, half-closed keep-alive): reconnect on retry.
            for conn in held:
                conn.close()
            raise _Retriable(
                str(exc) or type(exc).__name__, status=None
            ) from None
        conn = held[0]
        if headers.get("connection", "").lower() == "close":
            conn.close()
        else:
            self._release(conn)
        return status, headers, raw

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict[str, str], bytes]:
        """Minimal HTTP/1.1 response parse: status, headers, sized body.

        The service always sends ``Content-Length`` (no chunked encoding),
        so the full generality -- and Python-level cost -- of the stdlib
        parser is not needed on this hot path.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise EOFError("connection closed before response") from None
            raise
        status_line, _, header_block = head.partition(b"\r\n")
        parts = status_line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/")
            or not parts[1].isdigit()
        ):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdigit():
            raise ConnectionError(f"malformed Content-Length {declared!r}")
        length = int(declared)
        raw = await reader.readexactly(length) if length else b""
        return status, headers, raw

    async def _acquire(self) -> _Connection:
        """A pooled keep-alive connection, opening a fresh one when dry."""
        while self._pool:
            conn = self._pool.pop()
            if conn.usable:
                return conn
            conn.close()
        reader, writer = await asyncio.open_connection(
            self._host,
            self._port,
            ssl=True if self._scheme == "https" else None,
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Disable Nagle: each query is one small request waiting on
            # one small response, the exact pattern Nagle + delayed ACK
            # turns into ~40ms/query stalls on a keep-alive connection.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(reader, writer)

    def _release(self, conn: _Connection) -> None:
        if conn.usable and len(self._pool) < self._pool_size:
            self._pool.append(conn)
        else:
            conn.close()

    async def _drain_pool(self) -> None:
        pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()


__all__ = ["AsyncRemoteTopKInterface", "DEFAULT_POOL_SIZE"]
