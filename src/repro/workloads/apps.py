"""Canned application behaviors used by examples and integration tests.

These model the CrossGrid application classes the introduction motivates
(Medical, Environmental, HEP): long simulations that emit progress output
and accept steering input in near-real time.
"""

from __future__ import annotations

from typing import Generator, List, Optional


def immediate_output_app(message: str = "started", run_for: float = 2.0,
                         nbytes: int = 64):
    """Writes one line as soon as it starts (the Table I measurement app)."""

    def behavior(ctx) -> Generator:
        yield from ctx.stdio.write(message, nbytes=nbytes, eol=True)
        if run_for > 0:
            yield from ctx.cpu(run_for)
        yield from ctx.stdio.eof()
        return "done"

    return behavior


def cpu_bound_app(duration: float):
    """A plain batch computation (no console interaction)."""

    def behavior(ctx) -> Generator:
        yield from ctx.cpu(duration)
        return duration

    return behavior


def progress_app(steps: int, step_cpu: float, label: str = "step"):
    """Emits one progress line per simulation step (on-line output
    control: the user may kill it when results look wrong)."""

    def behavior(ctx) -> Generator:
        for i in range(steps):
            yield from ctx.cpu(step_cpu)
            yield from ctx.stdio.write(f"{label} {i} done", nbytes=32,
                                       eol=True)
        yield from ctx.stdio.eof()
        return steps

    return behavior


def steerable_simulation(rank: int, steps: int = 20, step_cpu: float = 0.5):
    """A steering-capable MPI-style simulation.

    Rank 0 reads parameter updates from stdin between steps (§1's "Runtime
    Steering" requirement) and all ranks emit per-step results.  Input is
    broadcast to every rank (§4) — non-zero ranks drain and ignore it,
    which is exactly the discipline the paper asks of applications.
    """

    def behavior(ctx) -> Generator:
        param = 1.0
        results: List[float] = []
        for i in range(steps):
            yield from ctx.cpu(step_cpu)
            value = param * (i + 1)
            results.append(value)
            yield from ctx.stdio.write(
                f"rank{rank} step{i} value={value:.2f}", nbytes=48, eol=True)
            chunk = ctx.stdio.try_read()
            if chunk is not None and rank == 0 and chunk.data.startswith("set "):
                param = float(chunk.data.split()[1])
                yield from ctx.stdio.write(
                    f"rank0 applied param={param}", nbytes=32, eol=True)
        yield from ctx.stdio.eof()
        return results

    return behavior


#: What :func:`interactive_console_app` echoes in front of each command.
PROMPT = "> "


def interactive_console_app(rounds: Optional[int] = None):
    """A read-eval-print style app: echoes commands until 'exit'."""

    def behavior(ctx) -> Generator:
        yield from ctx.stdio.write("console ready", nbytes=16, eol=True)
        count = 0
        while rounds is None or count < rounds:
            chunk = yield from ctx.stdio.read()
            count += 1
            if chunk.data.strip() == "exit":
                break
            yield from ctx.cpu(0.02)
            yield from ctx.stdio.write(f"{PROMPT}{chunk.data}",
                                       nbytes=chunk.nbytes + 2, eol=True)
        yield from ctx.stdio.eof()
        return count

    return behavior
