"""Fingerprints of ``repro.*`` module state, for the worker-purity test.

A fingerprint maps one name per piece of module state to what it holds:
every global of every loaded ``repro`` module (``repro.jdl.job._job_counter``)
and every attribute of every class those modules define
(``repro.sim.environment.Environment.default_sanitize``).  A value is
recorded by identity and ``repr``; an instance with the default
``<... at 0x...>`` repr, which says nothing of its contents, is recorded
by ``vars()`` too.  Only names already there count: a submodule, a
module first loaded between two fingerprints and a name that a lazy
package (``repro._lazy``) binds on first use are imports, not writes.

:func:`cell_writes` runs runner cells through the real worker entry,
:func:`repro.runner.engine._execute_cell`, with a fingerprint between
two calls.
"""

from __future__ import annotations

import sys
import types
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from repro.runner.engine import _execute_cell

#: name -> (the value itself, its text).  Holding the value keeps its
#: identity from being reused before the next fingerprint.
Fingerprint = Dict[str, Tuple[object, str]]

#: ``_execute_cell`` keyword sets: the plain worker call, and the one
#: whose telemetry and chaos scopes set class attributes and must
#: restore them.
LEGS = {"plain": {},
        "telemetry+chaos": {"telemetry": True,
                            "chaos": {"version": 1, "actions": []}}}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _record(value: object) -> Tuple[object, str]:
    text = repr(value)
    if text.endswith(">") and " at 0x" in text:
        try:
            text += repr(vars(value))
        except TypeError:
            pass  # no __dict__: identity is all there is
    return value, text


def fingerprint() -> Fingerprint:
    """Every ``repro.*`` module global and class attribute, by name."""
    out: Fingerprint = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for name, value in list(vars(module).items()):
            if _dunder(name) or isinstance(value, types.ModuleType):
                continue
            out[f"{module_name}.{name}"] = _record(value)
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in list(vars(value).items()):
                    if not _dunder(attr):
                        out[f"{module_name}.{name}.{attr}"] = _record(member)
    return out


def changed(before: Fingerprint, after: Fingerprint) -> Set[str]:
    """Names that ``after`` holds differently from ``before``, or lost."""
    lost = (object(), "")
    return {name for name, (value, text) in before.items()
            if after.get(name, lost)[0] is not value
            or after[name][1] != text}


def writes_per_call(calls: Iterable[Tuple[str, Callable[[], object]]]
                    ) -> Dict[str, List[str]]:
    """Run each ``(label, call)`` in turn and map the label to the sorted
    names its call changed.  One fingerprint sits between two calls, so
    a write that a later call undoes is still charged to each call."""
    writes: Dict[str, List[str]] = {}
    before = fingerprint()
    for label, call in calls:
        call()
        after = fingerprint()
        writes[label] = sorted(changed(before, after))
        before = after
    return writes


def cell_writes(cells: Iterable[Tuple[str, Any, Tuple[str, ...]]]
                ) -> Dict[str, List[str]]:
    """``{"<id>/<key> [<leg>]": names written}`` for every leg of every
    ``(experiment id, config, key)`` cell."""
    return writes_per_call(
        (f"{experiment_id}/{'/'.join(key)} [{leg}]",
         partial(_execute_cell, experiment_id, config, key, **kwargs))
        for experiment_id, config, key in cells
        for leg, kwargs in LEGS.items())
