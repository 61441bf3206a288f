"""The live control plane: HTTP endpoints, SSE streaming, dashboard.

Stdlib-only (``http.server`` + server-sent events): :class:`ControlPlaneServer`
wraps a :class:`repro.obs.control.SimController` and exposes

* ``GET /``          — the single-file HTML dashboard (``dashboard.html``);
* ``GET /health``    — liveness: sim clock, run state;
* ``GET /snapshot``  — full drain-point-consistent snapshot (telemetry +
  world status), the payload ``repro top --watch`` re-renders;
* ``GET /sites``     — per-site rows (free/running/queued/drained/up);
* ``GET /jobs``      — tracked jobs with their lifecycle stage;
* ``GET /events``    — SSE stream of periodic snapshots (``retry:`` hint,
  monotonically increasing ``id:``, ``event: snapshot`` frames, one
  final ``event: done``);
* ``POST /steer``    — execute one steering verb (JSON body
  ``{"verb": ..., <args>}``), answering with the verb's result.

Every read that touches simulation state goes through
``controller.call`` so it executes at the kernel's drain point — never
concurrently with an event callback.  The HTTP threads only ever hold
JSON-able copies.  G-Monitor (cs/0302007) is the shape being
reproduced: a thin web portal over a steerable broker.

The SSE framing helpers (:func:`format_sse`, :func:`snapshot_stream`)
are plain functions over bytes so tests can exercise framing without
sockets.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, Iterator, Optional

from .control import SimController, SteerError

__all__ = [
    "ControlPlaneServer",
    "fetch_json",
    "fetch_snapshot",
    "format_sse",
    "snapshot_stream",
]

#: SSE reconnect hint sent on the first frame (milliseconds).
SSE_RETRY_MS = 2000

_DASHBOARD_PATH = os.path.join(os.path.dirname(__file__), "dashboard.html")


# -- SSE framing (pure, test-friendly) ------------------------------------

def format_sse(data: str, event: Optional[str] = None,
               event_id: Optional[int] = None,
               retry: Optional[int] = None) -> bytes:
    """One server-sent-event frame (multi-line data handled per spec)."""
    lines = []
    if retry is not None:
        lines.append(f"retry: {retry}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    for chunk in data.split("\n"):
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def snapshot_stream(controller: SimController, interval: float,
                    stop: Optional[threading.Event] = None,
                    max_events: Optional[int] = None) -> Iterator[bytes]:
    """Yield SSE frames: periodic snapshots, then one ``done`` frame.

    The first frame carries the ``retry:`` reconnect hint; every frame
    carries a monotonically increasing ``id:`` so clients resume
    coherently.  Pacing uses ``Event.wait`` (never the wall clock API
    the determinism rules ban).  ``stop``/``max_events`` bound the
    stream for disconnecting clients and for tests.
    """
    stop = stop or threading.Event()
    next_id = 1
    while not stop.is_set():
        snap = controller.snapshot()
        yield format_sse(json.dumps(snap, sort_keys=True), event="snapshot",
                         event_id=next_id,
                         retry=SSE_RETRY_MS if next_id == 1 else None)
        if snap.get("finished"):
            yield format_sse("{}", event="done", event_id=next_id + 1)
            return
        next_id += 1
        if max_events is not None and next_id > max_events:
            return
        stop.wait(interval)


# -- HTTP client helpers (shared with `repro top --watch`) ----------------

def fetch_json(url: str, timeout: float = 10.0) -> Any:
    """GET a JSON document (stdlib urllib; no dependencies)."""
    # Imported where used: ``repro.obs`` is on every CLI start's import
    # path and the HTTP stack (http.client, email, ssl) is ~25 ms of it.
    from urllib.request import urlopen
    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_snapshot(base_url: str, timeout: float = 10.0) -> Dict[str, Any]:
    """GET ``<base_url>/snapshot`` from a running control plane."""
    return fetch_json(base_url.rstrip("/") + "/snapshot", timeout=timeout)


# -- the server ------------------------------------------------------------

class ControlPlaneServer:
    """A threading HTTP server bound to one simulation controller.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` —
    what the CI smoke job does).  The server owns no simulation state;
    request threads translate HTTP to ``controller.call``/``steer``.
    """

    def __init__(self, controller: SimController, host: str = "127.0.0.1",
                 port: int = 0, interval: float = 1.0) -> None:
        self.controller = controller
        self.interval = interval
        self._stop = threading.Event()
        from http.server import ThreadingHTTPServer  # see fetch_json
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self._stop.set()

    def shutdown(self) -> None:
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()


def _make_handler(server: "ControlPlaneServer"):
    from http.server import BaseHTTPRequestHandler  # see fetch_json
    controller = server.controller

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # HTTP access noise never reaches the renders

        def _json(self, payload: Any, status: int = 200) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _guarded(self, fn: Callable[[], Any]) -> None:
            try:
                self._json(fn())
            except SteerError as exc:
                self._json({"error": str(exc)}, status=400)
            except (ValueError, KeyError) as exc:
                self._json({"error": str(exc)}, status=400)

        # -- GET ------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route_get()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response; nothing to recover
            except SteerError as exc:
                self._json({"error": str(exc)}, status=503)

        def _route_get(self) -> None:
            path = self.path.split("?", 1)[0]
            if path == "/" or path == "/index.html":
                self._dashboard()
            elif path == "/health":
                env = controller.env
                self._json({"status": "ok", "time": env.now,
                            "running": not controller.finished,
                            "fired": len(controller.fired)})
            elif path == "/snapshot":
                self._json(controller.snapshot())
            elif path == "/sites":
                self._json(controller.call(_world_rows("site_rows")))
            elif path == "/jobs":
                self._json(controller.call(_world_rows("job_rows")))
            elif path == "/events":
                self._events()
            else:
                self._json({"error": f"no such endpoint {path!r}"},
                           status=404)

        def _dashboard(self) -> None:
            with open(_DASHBOARD_PATH, "rb") as fh:
                body = fh.read()
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _events(self) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            for frame in snapshot_stream(controller, server.interval,
                                         stop=server._stop):
                self.wfile.write(frame)
                self.wfile.flush()

        # -- POST -----------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route_post()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response; nothing to recover

        def _route_post(self) -> None:
            path = self.path.split("?", 1)[0]
            if path != "/steer":
                self._json({"error": f"no such endpoint {path!r}"},
                           status=404)
                return
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                doc = json.loads(raw.decode("utf-8"))
                verb = doc.pop("verb")
            except (ValueError, KeyError):
                self._json({"error": "body must be JSON with a 'verb' key"},
                           status=400)
                return
            self._guarded(lambda: {"verb": verb,
                                   "result": controller.steer(verb, **doc)})

    return Handler


def _world_rows(method: str) -> Callable[[SimController], Any]:
    def read(c: SimController) -> Any:
        if c.world is None:
            raise SteerError("no world bound to this controller")
        return getattr(c.world, method)()
    return read
