"""Experiment harness: one module per paper table/figure, plus ablations.

Run one with ``repro.runner.run_experiment("table1", Table1Config(...))``
or ``repro run table1`` on the command line.

Importing this package loads no experiment: the names in ``__all__``
resolve to their defining modules on first use (PEP 562), and
:func:`repro.runner.get_spec` imports — through :data:`SPEC_MODULES` —
only the module that registers the experiment asked for.  An experiment
module is itself declaration only (config, plan, merge, spec); its cell
function imports the simulator when it is first called, i.e. on the
first cell the cache cannot serve.
"""

from .._lazy import lazy_exports

#: Experiment id -> the module whose import registers its spec.
SPEC_MODULES = {
    "table1": ".table1",
    "fig6": ".streaming_overhead",
    "fig7": ".streaming_overhead",
    "fig8": ".fig8",
    "selection-scaling": ".selection_scaling",
    "fairshare-saturation": ".fairshare_saturation",
    "ablation-buffer": ".ablations",
    "ablation-retry": ".ablations",
    "ablation-pl": ".ablations",
    "ablation-degree": ".ablations",
    "ablation-halflife": ".ablations",
    "broker-modes": ".broker_modes",
    "chaos-drill": ".chaos_drill",
}

#: Public name -> defining module.
_EXPORTS = {
    "BrokerModesConfig": ".broker_modes",
    "BufferSweepConfig": ".ablations",
    "ChaosDrillConfig": ".chaos_drill",
    "DegreeSweepConfig": ".ablations",
    "ExperimentResult": ".common",
    "Fig8Config": ".fig8",
    "HalfLifeSweepConfig": ".ablations",
    "PerformanceLossSweepConfig": ".ablations",
    "RetrySweepConfig": ".ablations",
    "SaturationConfig": ".fairshare_saturation",
    "SelectionScalingConfig": ".selection_scaling",
    "ShapeCheck": ".common",
    "StreamingConfig": ".streaming_overhead",
    "Table1Config": ".table1",
    "collect_series": ".export",
    "export_all": ".export",
    "export_result": ".export",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
