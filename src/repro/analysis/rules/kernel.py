"""Kernel-invariant rules.

The two-lane event kernel (``sim/environment.py``) documents three
scheduling invariants its direct producers must observe, plus the Timer
shot protocol.  These rules catch the ways higher layers have
historically violated them: raw ``env.timeout`` re-armed in churn loops
(the PR 3 leak class), ad-hoc pushes into the kernel queues, events
triggered during construction, and silently swallowed failures.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple, Type

from ..engine import LintContext, Rule

__all__ = [
    "BareExceptRule",
    "KernelQueuePushRule",
    "RawTimeoutLoopRule",
    "SwallowedErrorRule",
    "TriggerInInitRule",
]

#: Files that *are* the kernel: they own the queue structures and may
#: manipulate them directly (they still carry ``disable-file`` markers so
#: the exemption is visible in the source, but the built-in allowlist
#: keeps the rule meaningful even if a marker is lost).
_KERNEL_FILES = (
    "sim/environment.py", "sim/events.py", "sim/timers.py", "sim/process.py",
)


def _receiver_name(node: ast.AST) -> Optional[str]:
    """``env._heap`` -> ``"env"``; ``self._heap`` -> ``"self"``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


class RawTimeoutLoopRule(Rule):
    """Raw ``env.timeout(...)`` armed inside a loop.

    Each ``timeout`` allocates a fresh event and (for positive delays) a
    fresh heap entry; re-armed every cycle it reproduces exactly the
    timer-churn garbage PR 3 removed, and racing it against a wakeup
    (``yield timeout | kick``) leaks a dead condition per cycle.  Churn
    sites must use the re-armable :class:`repro.sim.timers.Timer`.
    Bounded waits that genuinely want a fresh one-shot event can suppress
    with a justification.
    """

    id = "raw-timeout-loop"
    category = "kernel"
    summary = ("env.timeout() re-armed inside a loop — churn sites must "
               "use a re-armable sim.timers.Timer")
    node_types: Tuple[Type[ast.AST], ...] = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "timeout"):
            return
        if not ctx.in_loop:
            return
        ctx.report(self, node,
                   "raw .timeout() inside a loop allocates one event per "
                   "cycle — use a re-armable sim.timers.Timer "
                   "(timer.arm/restart)")


class KernelQueuePushRule(Rule):
    """Direct manipulation of the kernel's queue structures.

    Only the kernel files may push into ``_heap``/``_fifo``/``_urgent``
    or bump ``_eid`` on another object; anyone else doing so bypasses the
    scheduling invariants (eid monotonicity, lane/priority routing,
    timer-free lanes) and silently corrupts the deterministic total
    order.  Go through ``Environment.schedule`` / event ``succeed`` /
    ``Timer.arm``.
    """

    id = "kernel-queue-push"
    category = "kernel"
    summary = ("direct push into the kernel queues outside sim/ — use "
               "Environment.schedule or event triggers")
    node_types: Tuple[Type[ast.AST], ...] = (ast.Call, ast.Assign)
    exempt_suffixes = _KERNEL_FILES

    _QUEUES = ("_heap", "_fifo", "_urgent")

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            # heappush(X._heap, ...) / heapq.heappush(X._heap, ...)
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in ("heappush", "heapify", "heappop") and node.args:
                target = node.args[0]
                if isinstance(target, ast.Attribute) \
                        and target.attr in self._QUEUES \
                        and _receiver_name(target) != "self":
                    ctx.report(self, node,
                               f"direct {name}() into a foreign kernel "
                               f"queue ({ast.unparse(target)}) — use "
                               f"Environment.schedule/Timer.arm")
            # X._fifo.append(...) / X._urgent.append(...)
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("append", "appendleft") \
                    and isinstance(func.value, ast.Attribute) \
                    and func.value.attr in self._QUEUES \
                    and _receiver_name(func.value) != "self":
                ctx.report(self, node,
                           f"direct append to a foreign kernel lane "
                           f"({ast.unparse(func.value)}) — use "
                           f"Environment.schedule or an event trigger")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "_eid" \
                        and _receiver_name(target) != "self":
                    ctx.report(self, node,
                               "writing a foreign Environment's _eid "
                               "breaks insertion-id monotonicity — only "
                               "the kernel may allocate eids")


class TriggerInInitRule(Rule):
    """``succeed``/``fail`` called inside ``__init__``.

    Triggering an event while its constructor is still running schedules
    it before any caller had a chance to register callbacks or even see
    the object — the classic lost-wakeup constructor bug (the kernel's
    own flattened constructors are the audited exception and carry
    explicit suppressions).
    """

    id = "trigger-in-init"
    category = "kernel"
    summary = ("Event.succeed/fail inside __init__ fires before "
               "any caller can register a callback")
    node_types: Tuple[Type[ast.AST], ...] = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("succeed", "fail")):
            return
        if ctx.current_function_name != "__init__":
            return
        ctx.report(self, node,
                   f".{func.attr}() during __init__ triggers the event "
                   f"before callers can register callbacks — trigger "
                   f"after construction")


class BareExceptRule(Rule):
    """Bare ``except:`` handlers.

    A bare except swallows ``StopSimulation``, ``KeyboardInterrupt`` and
    every kernel control-flow exception alike; the kernel's failure
    propagation (undefused failures must surface from ``run()``) cannot
    work underneath one.
    """

    id = "bare-except"
    category = "kernel"
    summary = "bare except: swallows kernel control-flow exceptions"
    node_types: Tuple[Type[ast.AST], ...] = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(self, node,
                       "bare except: catches StopSimulation/"
                       "KeyboardInterrupt too — name the exception "
                       "types")


class SwallowedErrorRule(Rule):
    """Broad exception handlers whose body silently discards the error.

    ``except Exception: pass`` (or catching ``SimulationError`` and
    dropping it) turns a failed event into silence — the exact failure
    mode the sanitizer's *unhandled-failure* check exists for, but
    introduced statically.  Handle, log, or re-raise.
    """

    id = "swallowed-error"
    category = "kernel"
    summary = ("except <broad/SimError>: pass silently discards "
               "failures — handle or re-raise")
    node_types: Tuple[Type[ast.AST], ...] = (ast.ExceptHandler,)

    _BROAD = ("Exception", "BaseException", "SimulationError", "SimError")

    def _caught_names(self, node: ast.ExceptHandler) -> Tuple[str, ...]:
        types = []
        spec = node.type
        items = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for item in items:
            if isinstance(item, ast.Name):
                types.append(item.id)
            elif isinstance(item, ast.Attribute):
                types.append(item.attr)
        return tuple(types)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            return  # bare-except rule owns this case
        caught = self._caught_names(node)
        if not any(name in self._BROAD for name in caught):
            return
        body = node.body
        swallowed = all(
            isinstance(stmt, (ast.Pass, ast.Continue)) or
            (isinstance(stmt, ast.Expr)
             and isinstance(stmt.value, ast.Constant))
            for stmt in body)
        if swallowed:
            ctx.report(self, node,
                       f"except {'/'.join(caught)}: with a pass-only body "
                       f"swallows the failure — handle, log, or re-raise")
