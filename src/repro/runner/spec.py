"""The experiment contract: plan cells, run one cell, merge payloads.

An :class:`ExperimentSpec` is an experiment as three pure pieces:

``plan(config) -> [cell_key, ...]``
    The deterministic list of cells, in canonical (merge) order.
``run_cell(config, cell_key) -> payload``
    Simulate exactly one cell.  Must depend only on ``(config, key)`` —
    never on process identity, wall-clock, or sibling cells — and must
    return a picklable payload (``Series``, dataclasses of ``Series``,
    plain tuples/dicts).
``merge(config, {cell_key: payload}) -> ExperimentResult``
    Assemble tables/checks/notes.  The engine always passes payloads for
    every planned cell and iterates in plan order, so merged output is
    identical whether the cells were computed serially, in parallel, or
    pulled from the cache.

Experiment modules register their spec at import time, and an
experiment module is imported when its spec is first asked for:
:func:`get_spec` loads the one module that
:data:`repro.experiments.SPEC_MODULES` names for the id,
:func:`all_specs` loads them all.  Registering is declaration — config
class, ``plan``, ``merge`` and a reference to the cell function — so it
loads no simulator; ``run_cell`` imports what it simulates with when it
is first *called*, which a fully cached run never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A cell identifier: a tuple of short strings, e.g. ``("campus", "glogin")``
#: or ``("agents-fast", "10000")``.  Tuples of strings keep keys stable,
#: order-comparable, JSON-serialisable, and safe to embed in cache paths.
CellKey = Tuple[str, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to shard it and how to reassemble."""

    experiment_id: str
    #: Zero-argument factory for the default (full paper-scale) config.
    config_factory: Callable[[], Any]
    #: ``config -> ordered cell keys``.
    plan: Callable[[Any], List[CellKey]]
    #: ``(config, key) -> picklable payload``.
    run_cell: Callable[[Any, CellKey], Any]
    #: ``(config, {key: payload}) -> ExperimentResult``.
    merge: Callable[[Any, Dict[CellKey, Any]], Any]
    #: Bump when the simulation code behind this experiment changes in a
    #: result-affecting way; stale cache entries then miss automatically.
    cache_salt: str = "v1"
    #: Factory for the reduced-sample CI configuration (``--quick``).
    quick_config_factory: Callable[[], Any] = field(default=None)  # type: ignore[assignment]

    def make_config(self, quick: bool = False) -> Any:
        if quick and self.quick_config_factory is not None:
            return self.quick_config_factory()
        return self.config_factory()


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register an experiment spec; re-registering an id overwrites it
    (module reloads, ``dataclasses.replace``d variants)."""
    _REGISTRY[spec.experiment_id] = spec
    return spec


def _load(experiment_id: Optional[str] = None) -> None:
    """Import the module that registers ``experiment_id`` — every
    experiment module when the id is None or not a built-in one."""
    from repro.experiments import SPEC_MODULES

    known = SPEC_MODULES.get(experiment_id)
    for module in [known] if known else SPEC_MODULES.values():
        import_module(module, "repro.experiments")


def get_spec(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in _REGISTRY:
        _load(experiment_id)
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def all_specs() -> Dict[str, ExperimentSpec]:
    _load()
    return dict(_REGISTRY)


__all__ = ["CellKey", "ExperimentSpec", "all_specs", "get_spec", "register"]
