"""Wire protocol of the real (non-simulated) split-execution demo.

Length-prefixed binary frames over TCP::

    +------+----------+---------------+
    | type | len (u32)| payload bytes |
    +------+----------+---------------+

The frame types mirror :mod:`repro.streaming.messages`; this is the same
Grid Console protocol, running on real sockets around a real subprocess.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Optional

FRAME_HEADER = struct.Struct("!BI")

#: Frame types.
T_HELLO = 1
T_STDOUT = 2
T_STDERR = 3
T_STDIN = 4
T_EOF = 5
T_KILL = 6
T_EXIT = 7
T_ACK = 8

TYPE_NAMES = {
    T_HELLO: "HELLO",
    T_STDOUT: "STDOUT",
    T_STDERR: "STDERR",
    T_STDIN: "STDIN",
    T_EOF: "EOF",
    T_KILL: "KILL",
    T_EXIT: "EXIT",
    T_ACK: "ACK",
}

#: Frames larger than this are rejected (sanity bound).
MAX_FRAME = 16 << 20


class ProtocolError(Exception):
    """Malformed frame on the wire."""


@dataclass(frozen=True)
class Frame:
    kind: int
    payload: bytes

    def encode(self) -> bytes:
        if len(self.payload) > MAX_FRAME:
            raise ProtocolError(f"frame too large: {len(self.payload)}")
        return FRAME_HEADER.pack(self.kind, len(self.payload)) + self.payload


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly n bytes, or None on orderly EOF."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket) -> Optional[Frame]:
    """Read one frame; None on clean connection close."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    if header is None:
        return None
    kind, length = FRAME_HEADER.unpack(header)
    if kind not in TYPE_NAMES:
        raise ProtocolError(f"unknown frame type {kind}")
    if length > MAX_FRAME:
        raise ProtocolError(f"oversized frame: {length} bytes")
    payload = _recv_exact(sock, length) if length else b""
    if length and payload is None:
        raise ProtocolError("connection closed mid-frame")
    return Frame(kind, payload or b"")


def write_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(frame.encode())
