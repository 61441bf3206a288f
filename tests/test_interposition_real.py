"""Tests for the REAL split execution (live subprocesses + TCP sockets)."""

import sys
import time

import pytest

from repro.interposition import (
    Frame,
    ProtocolError,
    RealConsoleAgent,
    RealConsoleShadow,
    T_STDOUT,
)

PY = sys.executable


def spawn(shadow, code, reliable=True, subjob=0):
    return RealConsoleAgent([PY, "-u", "-c", code], shadow.host, shadow.port,
                            reliable=reliable, subjob=subjob).start()


@pytest.fixture
def shadow():
    s = RealConsoleShadow()
    yield s
    s.close()


class TestProtocol:
    def test_frame_roundtrip_through_socketpair(self):
        import socket

        a, b = socket.socketpair()
        try:
            from repro.interposition import read_frame, write_frame

            write_frame(a, Frame(T_STDOUT, b"payload"))
            frame = read_frame(b)
            assert frame.kind == T_STDOUT
            assert frame.payload == b"payload"
        finally:
            a.close()
            b.close()

    def test_clean_close_returns_none(self):
        import socket

        a, b = socket.socketpair()
        a.close()
        from repro.interposition import read_frame

        assert read_frame(b) is None
        b.close()

    def test_oversized_frame_rejected(self):
        from repro.interposition.protocol import MAX_FRAME

        with pytest.raises(ProtocolError):
            Frame(T_STDOUT, b"x" * (MAX_FRAME + 1)).encode()


class TestRealSplitExecution:
    def test_stdout_forwarded(self, shadow):
        agent = spawn(shadow, 'print("hello world")')
        try:
            event = shadow.read_line(timeout=10)
            assert event is not None
            assert event.kind == "stdout"
            assert event.data.strip() == b"hello world"
            assert agent.join(timeout=10) == 0
        finally:
            agent.close()

    def test_stderr_forwarded(self, shadow):
        agent = spawn(shadow,
                      'import sys; print("oops", file=sys.stderr)')
        try:
            event = shadow.read_line(timeout=10)
            assert event.kind == "stderr"
            assert event.data.strip() == b"oops"
        finally:
            agent.join(timeout=10)
            agent.close()

    def test_stdin_roundtrip(self, shadow):
        agent = spawn(shadow, """
import sys
for line in sys.stdin:
    value = int(line)
    print(value * value)
    if value == 0:
        break
""")
        try:
            # Wait until the agent registered.
            deadline = time.perf_counter() + 5
            while shadow.connected_agents == 0 \
                    and time.perf_counter() < deadline:
                time.sleep(0.02)
            for n in (3, 7):
                shadow.send_line(str(n).encode())
                event = shadow.read_line(timeout=10)
                assert int(event.data) == n * n
            shadow.send_line(b"0")
            event = shadow.read_line(timeout=10)
            assert int(event.data) == 0
            assert agent.join(timeout=10) == 0
        finally:
            agent.close()

    def test_exit_code_reported(self, shadow):
        agent = spawn(shadow, "import sys; sys.exit(3)")
        try:
            assert agent.join(timeout=10) == 3
            deadline = time.perf_counter() + 5
            while 0 not in shadow.exit_codes \
                    and time.perf_counter() < deadline:
                time.sleep(0.02)
            assert shadow.exit_codes.get(0) == 3
        finally:
            agent.close()

    def test_kill_job(self, shadow):
        agent = spawn(shadow, """
import time
print("running")
time.sleep(60)
""")
        try:
            event = shadow.read_line(timeout=10)
            assert event.data.strip() == b"running"
            shadow.kill_job()
            killed_at = time.perf_counter()
            code = agent.join(timeout=10)
            assert code not in (0, None)
            # Nothing waits for an ACK the exited receiver can never see
            # (the sender used to spin its whole retry budget here).
            assert [t.name for t in agent._threads if t.is_alive()] == []
            assert time.perf_counter() - killed_at < 2.0
        finally:
            agent.close()

    def test_two_subjobs_one_shadow(self, shadow):
        agents = [spawn(shadow, f'print("from rank {i}")', subjob=i)
                  for i in range(2)]
        try:
            seen = set()
            for _ in range(2):
                event = shadow.read_line(timeout=10)
                seen.add((event.subjob, event.data.strip()))
            assert seen == {(0, b"from rank 0"), (1, b"from rank 1")}
        finally:
            for agent in agents:
                agent.join(timeout=10)
                agent.close()

    def test_fast_mode_also_works(self, shadow):
        agent = spawn(shadow, 'print("fast path")', reliable=False)
        try:
            event = shadow.read_line(timeout=10)
            assert event.data.strip() == b"fast path"
            # The agent thread bumps frames_sent *after* the frame hits the
            # socket, so the shadow can observe the line before the counter
            # reflects it — poll briefly instead of asserting the
            # instantaneous value (hello + line = 2).
            deadline = time.perf_counter() + 5.0
            while agent.stats.frames_sent < 2 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert agent.stats.frames_sent >= 2
        finally:
            agent.join(timeout=10)
            agent.close()

    def test_large_output_lines(self, shadow):
        agent = spawn(shadow, 'print("x" * 100000)')
        try:
            event = shadow.read_line(timeout=15)
            assert len(event.data.strip()) == 100000
        finally:
            agent.join(timeout=10)
            agent.close()

    def test_many_lines_in_order(self, shadow):
        agent = spawn(shadow, 'print("\\n".join(str(i) for i in range(50)))')
        try:
            got = []
            for _ in range(50):
                event = shadow.read_line(timeout=10)
                got.append(int(event.data))
            assert got == list(range(50))
        finally:
            agent.join(timeout=10)
            agent.close()
