"""Real Console Agent: traps a live subprocess's stdio and ships it over TCP.

The LD_PRELOAD shared library of the paper is replaced by pipe-level
interposition — the job is spawned with its stdin/stdout/stderr connected
to this agent, which is exactly the observable behaviour of the trapped
libc calls: the program runs unmodified and its I/O lands on the home
machine's console.

Fast mode sends frames straight to the socket and drops them if the link
is gone; reliable mode appends every frame to an on-disk spool file and a
drain thread retries/reconnects until delivery (or until the retry budget
is exhausted, at which point the job is killed — §3/§4 semantics).
"""  # simlint: disable-file=wallclock -- real-runtime component (host threads + sockets); wall-clock deadlines never enter sim state

from __future__ import annotations

import os
import queue
import socket
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .protocol import (
    Frame,
    T_ACK,
    T_EOF,
    T_EXIT,
    T_HELLO,
    T_KILL,
    T_STDERR,
    T_STDIN,
    T_STDOUT,
    read_frame,
    write_frame,
)


@dataclass
class AgentStats:
    frames_sent: int = 0
    frames_dropped: int = 0
    reconnects: int = 0
    bytes_spooled: int = 0


class RealConsoleAgent:
    """Runs ``command`` as a subprocess with trapped stdio."""

    def __init__(self, command: Sequence[str], shadow_host: str,
                 shadow_port: int, reliable: bool = True,
                 retry_interval: float = 0.5, max_retries: int = 20,
                 subjob: int = 0) -> None:
        self.command = list(command)
        self.shadow_host = shadow_host
        self.shadow_port = shadow_port
        self.reliable = reliable
        self.retry_interval = retry_interval
        self.max_retries = max_retries
        self.subjob = subjob
        self.stats = AgentStats()
        self.proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._sock_lock = threading.Lock()
        self._outbox: "queue.Queue[Optional[Frame]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._pump_threads: List[threading.Thread] = []
        self._pending: List[Frame] = []
        self._spool_path: Optional[str] = None
        self._dead = threading.Event()
        #: Set by the receiver for every shadow ACK; reliable delivery only
        #: commits a spooled frame once its ACK arrived (a TCP send can
        #: "succeed" into a socket whose peer is already gone).
        self._ack = threading.Event()
        self.exit_code: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "RealConsoleAgent":
        """Spawn the job, connect back to the shadow, start pump threads."""
        if self.reliable:
            fd, self._spool_path = tempfile.mkstemp(prefix="ca-spool-")
            os.close(fd)
        self.proc = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, bufsize=0)
        self._connect()
        self._send_now(Frame(T_HELLO, str(self.subjob).encode()))
        self._pump_threads = []
        for name, target in (("stdout-pump", self._pump_stream),
                             ("stderr-pump", self._pump_stream_err)):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
            self._pump_threads.append(thread)
        # The receiver first: the sender asks whether it is still there.
        for name, target in (("receiver", self._receiver_loop),
                             ("sender", self._sender_loop),
                             ("waiter", self._wait_job)):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def join(self, timeout: Optional[float] = None) -> Optional[int]:
        """Wait for the job and the output pumps to finish."""
        assert self.proc is not None
        self.proc.wait(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            if thread.name in ("receiver",):
                continue  # lives until the socket dies
            remaining = None if deadline is None \
                else max(deadline - time.monotonic(), 0.01)
            thread.join(timeout=remaining)
        return self.exit_code

    def close(self) -> None:
        self._dead.set()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        with self._sock_lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
        if self._spool_path and os.path.exists(self._spool_path):
            os.unlink(self._spool_path)

    # -- connection management --------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.shadow_host, self.shadow_port), timeout=5.0)
        sock.settimeout(None)
        with self._sock_lock:
            self._sock = sock

    def _send_now(self, frame: Frame) -> None:
        with self._sock_lock:
            if self._sock is None:
                raise OSError("not connected")
            write_frame(self._sock, frame)
        self.stats.frames_sent += 1

    # -- job stdio pumps ------------------------------------------------------
    def _pump_stream(self) -> None:
        self._pump(self.proc.stdout, T_STDOUT)  # type: ignore[union-attr]

    def _pump_stream_err(self) -> None:
        self._pump(self.proc.stderr, T_STDERR)  # type: ignore[union-attr]

    def _pump(self, stream, kind: int) -> None:
        """Read the job's output line-wise (the eol flush trigger)."""
        assert stream is not None
        while True:
            line = stream.readline()
            if not line:
                break
            self._outbox.put(Frame(kind, line))
        if kind == T_STDOUT:
            self._outbox.put(Frame(T_EOF, b""))

    def _wait_job(self) -> None:
        assert self.proc is not None
        self.exit_code = self.proc.wait()
        # The pipes may still hold unread output: drain the pumps first so
        # the EXIT frame (and the sender-shutdown sentinel) come last.
        for thread in self._pump_threads:
            thread.join()
        self._outbox.put(Frame(T_EXIT, str(self.exit_code).encode()))
        self._outbox.put(None)  # sender shutdown sentinel

    # -- sender with reliable spool -----------------------------------------
    def _sender_loop(self) -> None:
        while not self._dead.is_set():
            frame = self._outbox.get()
            if frame is None:
                return
            if self.reliable:
                self._spool_append(frame)
                if not self._drain_with_retries():
                    self._fatal("retry budget exhausted")
                    return
            else:
                try:
                    self._send_now(frame)
                except OSError:
                    self.stats.frames_dropped += 1

    def _spool_append(self, frame: Frame) -> None:
        assert self._spool_path is not None
        with open(self._spool_path, "ab") as fh:
            fh.write(frame.encode())
        self.stats.bytes_spooled += len(frame.payload)
        self._pending.append(frame)

    def _drain_with_retries(self) -> bool:
        failures = 0
        while self._pending and not self._dead.is_set():
            frame = self._pending[0]
            self._ack.clear()
            try:
                self._send_now(frame)
                acked = self._committed()
            except OSError:
                acked = False
            if not acked:
                failures += 1
                if failures >= self.max_retries:
                    return False
                time.sleep(self.retry_interval)
                try:
                    self._connect()
                    # Re-introduce ourselves on the fresh connection.
                    self._send_now(Frame(T_HELLO, str(self.subjob).encode()))
                    self.stats.reconnects += 1
                except OSError:
                    continue
                continue
            failures = 0
            self._pending.pop(0)
        return True

    def _ack_can_arrive(self) -> bool:
        """False once the job is gone and the receiver has exited (a
        KILL order, or a drained stream): nobody is left to see an ACK."""
        assert self.proc is not None
        return self.proc.poll() is None or any(
            t.name == "receiver" and t.is_alive() for t in self._threads)

    def _committed(self) -> bool:
        """Did the frame just sent reach the shadow?  Only the shadow's
        ACK says so — a TCP send can "succeed" into a socket whose peer
        is already gone.  When no ACK can arrive any more the send is
        all the delivery there will be: retrying would only spin until
        the retry budget runs out."""
        if self._ack_can_arrive() \
                and self._ack.wait(timeout=self.retry_interval):
            return True
        return not self._ack_can_arrive()

    def _fatal(self, reason: str) -> None:
        """§3: after the retries are exhausted, kill the process."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._dead.set()

    # -- shadow -> job input ---------------------------------------------------
    def _receiver_loop(self) -> None:
        while not self._dead.is_set():
            with self._sock_lock:
                sock = self._sock
            if sock is None:
                time.sleep(0.05)
                continue
            try:
                frame = read_frame(sock)
            except OSError:
                frame = None
            if frame is None:
                drained = not self._pending and self._outbox.empty()
                if self._dead.is_set() or (
                        self.proc is not None
                        and self.proc.poll() is not None and drained):
                    # The job is gone AND nothing awaits delivery/ACK.
                    return
                time.sleep(self.retry_interval)
                continue
            if frame.kind == T_ACK:
                self._ack.set()
            elif frame.kind == T_STDIN and self.proc is not None \
                    and self.proc.stdin is not None:
                try:
                    self.proc.stdin.write(frame.payload)
                    self.proc.stdin.flush()
                except (BrokenPipeError, ValueError):
                    return
            elif frame.kind == T_KILL:
                if self.proc is not None and self.proc.poll() is None:
                    self.proc.kill()
                return
