"""The simlint rule catalog.

``ALL_RULES`` is the default rule set used by ``repro lint`` and the CI
gate; ``rules_by_id`` supports ``--select``-style subsets and the
fixture tests.  Adding a rule: subclass :class:`repro.analysis.engine.Rule`
in :mod:`.determinism` or :mod:`.kernel` (or a new module), then append
an instance here — the engine, CLI, JSON report, and docs table pick it
up from this registry.

Layering policy is not a lint rule: ``tests/test_import_boundary.py``
holds the layer table and checks it over each module's import closure.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..engine import Rule
from .determinism import (
    EnvironReadRule,
    IdHashOrderRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from .kernel import (
    BareExceptRule,
    KernelQueuePushRule,
    RawTimeoutLoopRule,
    SwallowedErrorRule,
    TriggerInInitRule,
)

__all__ = ["ALL_RULES", "rules_by_id", "rules_by_category"]

#: Default rule set, in catalog order (determinism, then kernel).
ALL_RULES: List[Rule] = [
    SetIterationRule(),
    UnseededRandomRule(),
    WallClockRule(),
    IdHashOrderRule(),
    EnvironReadRule(),
    RawTimeoutLoopRule(),
    KernelQueuePushRule(),
    TriggerInInitRule(),
    BareExceptRule(),
    SwallowedErrorRule(),
]


def rules_by_id(ids: Sequence[str]) -> List[Rule]:
    """Resolve rule ids to instances (raises on unknown ids)."""
    catalog: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
    unknown = sorted(set(ids) - set(catalog))
    if unknown:
        raise KeyError(f"unknown simlint rule(s): {unknown}; "
                       f"known: {sorted(catalog)}")
    return [catalog[i] for i in ids]


def rules_by_category(category: str) -> List[Rule]:
    """All catalog rules in one category (``determinism``/``kernel``)."""
    return [rule for rule in ALL_RULES if rule.category == category]
