"""A small RPC layer over :mod:`repro.net.sockets`.

The Console Agent forwards trapped calls to the shadow "via RPC" (paper
§4), and CrossBroker talks to its glide-in agents over a direct channel
(§6.1 credits this channel for the shared-VM row of Table I).  Handlers
are registered by method name; a handler may be a plain function or a
generator (to model service time with ``yield env.timeout(...)``).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, NamedTuple, Optional

from ..sim import Environment, Event
from .errors import ConnectionClosedError, NetworkError, RpcError
from .sockets import ConnectionEnd, Listener, connect
from .topology import Network

#: Nominal wire sizes of RPC envelopes.
REQUEST_OVERHEAD = 96
RESPONSE_OVERHEAD = 64


# Envelopes are named tuples: immutable, and one is built per call.
class RpcRequest(NamedTuple):
    call_id: int
    method: str
    args: tuple
    kwargs: dict


class RpcResponse(NamedTuple):
    call_id: int
    ok: bool
    value: Any


class RpcServer:
    """Accepts connections on a listener and dispatches method calls."""

    def __init__(self, network: Network, host: str, port: int,
                 name: Optional[str] = None) -> None:
        self.network = network
        self.env: Environment = network.env
        self.host = host
        self.port = port
        self.name = name or f"rpc@{host}:{port}"
        self.listener = Listener(network, network.hosts[host], port)
        self._handlers: Dict[str, Callable] = {}
        # Service root: the accept loop (and the serve/reader children
        # it spawns, via daemon inheritance) lives as long as the host.
        self._accept_proc = self.env.process(self._accept_loop(),
                                             name=f"{self.name}/accept",
                                             daemon=True)
        self.calls_served = 0

    def register(self, method: str, handler: Callable) -> None:
        self._handlers[method] = handler

    def handler(self, method: str) -> Callable:
        """Decorator form of :meth:`register`."""

        def deco(fn: Callable) -> Callable:
            self.register(method, fn)
            return fn

        return deco

    def close(self) -> None:
        self.listener.close()

    # -- internals --------------------------------------------------------
    def _accept_loop(self) -> Generator:
        while not self.listener.closed:
            server_end = yield from self.listener.accept()
            self.env.process(self._serve(server_end),
                             name=f"{self.name}/serve")

    def _serve(self, conn: ConnectionEnd) -> Generator:
        while True:
            try:
                request = yield from conn.recv()
            except ConnectionClosedError:
                return
            if request is None:  # orderly shutdown marker
                conn.close()
                return
            assert isinstance(request, RpcRequest)
            yield from self._dispatch(conn, request)

    def _dispatch(self, conn: ConnectionEnd, request: RpcRequest) -> Generator:
        handler = self._handlers.get(request.method)
        if handler is None:
            response = RpcResponse(request.call_id, False,
                                   f"unknown method {request.method!r}")
        else:
            try:
                result = handler(*request.args, **request.kwargs)
                if inspect.isgenerator(result):
                    result = yield from result
                response = RpcResponse(request.call_id, True, result)
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                response = RpcResponse(request.call_id, False, str(exc))
        self.calls_served += 1
        try:
            yield from conn.send(response, RESPONSE_OVERHEAD)
        except NetworkError:
            # Response lost (the path dropped mid-call, e.g. a steering
            # ``fail_site`` partition).  Reset the connection: the FIN
            # marker is delivered in-process, so the client's reader
            # fails every pending call instead of dangling forever —
            # without it, a mid-RPC partition wedges the submission for
            # the rest of the run.
            conn.close()
            return


class RpcClient:
    """Client side: one connection, sequential or overlapping calls."""

    def __init__(self, network: Network, src: str, dst: str, port: int,
                 label: Optional[str] = None) -> None:
        self.network = network
        self.env: Environment = network.env
        self.src = src
        self.dst = dst
        self.port = port
        self.label = label or f"rpc:{src}->{dst}:{port}"
        self._conn: Optional[ConnectionEnd] = None
        self._next_call_id = 0
        self._pending: Dict[int, Event] = {}
        self._reader: Optional[Any] = None

    @property
    def connected(self) -> bool:
        return self._conn is not None and not self._conn.closed

    def connect(self) -> Generator:
        self._conn = yield from connect(self.network, self.src, self.dst,
                                        self.port, label=self.label)
        self._reader = self.env.process(self._read_loop(),
                                        name=f"{self.label}/reader")
        return self

    def close(self) -> Generator:
        if self._conn is not None and not self._conn.closed:
            try:
                yield from self._conn.send(None, 16)
            except NetworkError:
                pass
            self._conn.close()
        self._conn = None

    def call(self, method: str, *args: Any, nbytes: int = 0,
             **kwargs: Any) -> Generator:
        """Invoke ``method`` remotely and wait for the reply.

        ``nbytes`` is the payload size shipped with the request (on top of
        the envelope overhead).  Raises :class:`RpcError` on remote failure
        and propagates network errors on a broken path.
        """
        if self._conn is None:
            raise ConnectionClosedError(f"{self.label}: not connected")
        self._next_call_id += 1
        call_id = self._next_call_id
        request = RpcRequest(call_id, method, args, kwargs)
        reply_event = self.env.event()
        self._pending[call_id] = reply_event
        try:
            yield from self._conn.send(request, REQUEST_OVERHEAD + nbytes)
        except NetworkError:
            self._pending.pop(call_id, None)
            raise
        response = yield reply_event
        if not response.ok:
            raise RpcError(method, str(response.value))
        return response.value

    def _read_loop(self) -> Generator:
        assert self._conn is not None
        while True:
            try:
                response = yield from self._conn.recv()
            except ConnectionClosedError:
                self._fail_pending("connection closed")
                return
            if isinstance(response, RpcResponse):
                event = self._pending.pop(response.call_id, None)
                if event is not None:
                    event.succeed(response)

    def _fail_pending(self, reason: str) -> None:
        for call_id, event in list(self._pending.items()):
            event.fail(ConnectionClosedError(reason))
            event.defuse()
        self._pending.clear()
