"""Real Console Shadow: the home-machine end of the split execution.

Listens on a TCP port (randomly allocated, or pinned as the paper's JDL
port attribute allows), accepts Console Agent connections (one per
subjob), merges their output into a thread-safe console queue, and
broadcasts typed input lines to every connected agent.
"""  # simlint: disable-file=wallclock -- real-runtime component (host threads + sockets); wall-clock deadlines never enter sim state

from __future__ import annotations

import queue
import socket
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


@dataclass(frozen=True)
class ConsoleEvent:
    """One item on the user's console."""

    subjob: int
    kind: str  # "stdout", "stderr", "eof", "exit", "connect"
    data: bytes


class RealConsoleShadow:
    """TCP server side of the Grid Console."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self.console: "queue.Queue[ConsoleEvent]" = queue.Queue()
        self._agents: Dict[int, socket.socket] = {}
        self._agents_lock = threading.Lock()
        #: Serialises writes to agent sockets (ACKs from serve threads
        #: interleave with broadcast input from user threads).
        self._write_lock = threading.Lock()
        self._closing = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shadow-accept", daemon=True)
        self._accept_thread.start()
        self.exit_codes: Dict[int, int] = {}

    # -- user-facing API ---------------------------------------------------
    def read(self, timeout: Optional[float] = None) -> Optional[ConsoleEvent]:
        """Next console event, or None on timeout."""
        try:
            return self.console.get(timeout=timeout)
        except queue.Empty:
            return None

    def read_line(self, timeout: float = 10.0,
                  kinds: Tuple[str, ...] = ("stdout", "stderr")) -> Optional[ConsoleEvent]:
        """Next stdout/stderr event, skipping connection chatter."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            event = self.read(timeout=remaining)
            if event is not None and event.kind in kinds:
                return event

    def send_line(self, data: bytes) -> int:
        """Broadcast one input line to every connected agent (§4: input is
        forwarded to every subjob).  Returns the number of agents reached."""
        if not data.endswith(b"\n"):
            data += b"\n"
        sent = 0
        with self._agents_lock:
            targets = list(self._agents.items())
        for subjob, sock in targets:
            try:
                with self._write_lock:
                    write_frame(sock, Frame(T_STDIN, data))
                sent += 1
            except OSError:
                with self._agents_lock:
                    self._agents.pop(subjob, None)
        return sent

    def kill_job(self) -> None:
        """On-line output control: tell every agent to kill its process."""
        with self._agents_lock:
            targets = list(self._agents.values())
        for sock in targets:
            try:
                with self._write_lock:
                    write_frame(sock, Frame(T_KILL, b""))
            except OSError:
                continue

    @property
    def connected_agents(self) -> int:
        with self._agents_lock:
            return len(self._agents)

    def close(self) -> None:
        self._closing.set()
        try:
            # Wake the blocked accept() — otherwise the kernel keeps the
            # LISTEN socket alive (and the port busy) until it returns.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._agents_lock:
            for sock in self._agents.values():
                try:
                    sock.close()
                except OSError:
                    continue
            self._agents.clear()

    # -- internals ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_agent, args=(sock,),
                             name="shadow-serve", daemon=True).start()

    def _serve_agent(self, sock: socket.socket) -> None:
        subjob = -1
        try:
            hello = read_frame(sock)
            if hello is None or hello.kind != T_HELLO:
                sock.close()
                return
            subjob = int(hello.payload or b"0")
            with self._agents_lock:
                self._agents[subjob] = sock
            self.console.put(ConsoleEvent(subjob, "connect", b""))
            while not self._closing.is_set():
                frame = read_frame(sock)
                if frame is None:
                    return
                if frame.kind in (T_STDOUT, T_STDERR, T_EOF, T_EXIT):
                    # Reliable delivery: acknowledge before presenting.
                    try:
                        with self._write_lock:
                            write_frame(sock, Frame(T_ACK, b""))
                    except OSError:
                        return
                if frame.kind == T_STDOUT:
                    self.console.put(ConsoleEvent(subjob, "stdout",
                                                  frame.payload))
                elif frame.kind == T_STDERR:
                    self.console.put(ConsoleEvent(subjob, "stderr",
                                                  frame.payload))
                elif frame.kind == T_EOF:
                    self.console.put(ConsoleEvent(subjob, "eof", b""))
                elif frame.kind == T_EXIT:
                    self.exit_codes[subjob] = int(frame.payload or b"-1")
                    self.console.put(ConsoleEvent(subjob, "exit",
                                                  frame.payload))
        except OSError:
            return
        finally:
            with self._agents_lock:
                if self._agents.get(subjob) is sock:
                    self._agents.pop(subjob, None)
