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

Experiment modules register their spec at import time; the registry is
populated by importing :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

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


def _ensure_loaded() -> None:
    """Import the experiment modules so their specs self-register."""
    import repro.experiments  # noqa: F401  (import side effect)


def get_spec(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in _REGISTRY:
        _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def all_specs() -> Dict[str, ExperimentSpec]:
    _ensure_loaded()
    return dict(_REGISTRY)


__all__ = ["CellKey", "ExperimentSpec", "all_specs", "get_spec", "register"]
